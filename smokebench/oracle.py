"""Independent check of `smokewatch detect` outputs.

The forward pass here is plain numpy written from the model JSON alone; it
shares no code with `smokewatch.mlp` or `smokewatch.kernels`. Sessions come
from the benchmark's in-memory copy of the inputs, not from the CSV the
program read.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

TOLERANCE = 1e-9
WIDTH = 200  # the CLI's default window width and stride
STRIDE = 1


class CheckFailed(Exception):
    """A program output disagrees with what the benchmark expects."""


def load_model_doc(path: Path, cache: dict) -> dict:
    data = path.read_bytes()
    key = hashlib.sha256(data).hexdigest()
    if key not in cache:
        cache[key] = json.loads(data)
    return cache[key]


def window_inputs(doc: dict, xyz: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Raw network inputs of the windows starting at `starts`; xyz is (n, 3)."""
    cols = starts[:, None] + np.arange(WIDTH)[None, :]
    x, y, z = xyz[cols, 0], xyz[cols, 1], xyz[cols, 2]
    mode = doc["mode"]
    if mode == "XYZ":
        return np.concatenate([x, y, z], axis=1)
    if mode == "AVG":
        return (x + y + z) / 3.0
    return {"X": x, "Y": y, "Z": z}[mode]


def forward(doc: dict, raw: np.ndarray) -> np.ndarray:
    """Network outputs: min/max scaling onto [-1, 1], tanh layer, logistic output."""
    lo = np.asarray(doc["norm_min"], dtype=np.float64)
    hi = np.asarray(doc["norm_max"], dtype=np.float64)
    span = hi - lo
    live = span > 0
    scaled = np.zeros_like(raw)
    scaled[:, live] = (2.0 * raw[:, live] - (lo + hi)[live]) / span[live]
    hidden = np.tanh(scaled @ np.asarray(doc["w1"]).T + np.asarray(doc["b1"]))
    z = hidden @ np.asarray(doc["w2"]) + float(doc["b2"])
    e = np.exp(-np.abs(z))
    return np.where(z >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))


def check_detect(out_dir: Path, model_path: Path, xyz: np.ndarray,
                 window_count, rng: np.random.Generator, sample: int,
                 cache: dict) -> int:
    """Check one detect run; returns its count of near-threshold windows.

    Raises CheckFailed when the trace length differs from
    `window_count(len(session), WIDTH, STRIDE)`, when a sampled window's
    start, output or decision disagrees with the oracle, or when an output is
    off by more than TOLERANCE. Decisions may differ only for windows within
    TOLERANCE of the threshold; those are counted, not failed.
    """
    doc = load_model_doc(model_path, cache)
    threshold = float(doc["threshold"])
    rows = (out_dir / "trace.csv").read_text(encoding="utf-8").splitlines()[1:]
    expected = window_count(xyz.shape[0], WIDTH, STRIDE)
    if len(rows) != expected:
        raise CheckFailed(f"trace has {len(rows)} windows, expected {expected}")
    picks = np.sort(rng.choice(expected, size=min(sample, expected), replace=False))
    fields = [rows[i].split(",") for i in picks]
    starts = np.array([int(f[0]) for f in fields])
    outputs = np.array([float(f[1]) for f in fields])
    decisions = np.array([f[2] == "1" for f in fields])
    if not np.array_equal(starts, picks * STRIDE):
        raise CheckFailed("trace window starts are not k * stride")
    want = forward(doc, window_inputs(doc, xyz, starts))
    worst = float(np.max(np.abs(outputs - want)))
    if worst > TOLERANCE:
        raise CheckFailed(f"output differs from the oracle by {worst:.3g}")
    near = np.abs(want - threshold) <= TOLERANCE
    flips = (decisions != (want >= threshold)) & ~near
    if np.any(flips):
        raise CheckFailed(f"{int(flips.sum())} decisions differ from the oracle")
    return int(near.sum())
