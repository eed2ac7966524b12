"""Continuous-session detection over rolling raw windows.

The network slides across the session at a fixed stride; each output is
anchored at its window's start sample index. The input scaling is folded into
the first layer once per call (`Network.raw_first_layer`), and the windows
are cut from strided views of the session in blocks of `BLOCK_WINDOWS`, each
passed through `kernels.batch_forward`, so memory stays flat in the session
length. Scoring against handpicked ground-truth ranges labels a window
smoking iff its start index falls inside a range, and additionally flags each
range as detected when at least one window starting inside it fired.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Union

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import kernels, metrics, mlp
from .errors import (
    EmptyTrace,
    InvalidSize,
    InvalidThreshold,
    LengthMismatch,
    ModeMismatch,
    SessionTooShort,
)
from .fileio import atomic_write_text
from .signal import ChannelMode, SensorRecording, window_count

# Windows per forward call: a block of XYZ inputs is 1024 x 600 float64
# (4.7 MiB). 4096-window blocks made an XYZ detect on 100,000 samples about
# 1.5x slower.
BLOCK_WINDOWS = 1024
# Outputs this close to the threshold could flip under a last-bit change of
# the arithmetic; the detect report counts them.
NEAR_THRESHOLD = 1e-9


@dataclass(frozen=True, eq=False)
class DetectionTrace:
    """One network output per window, anchored at the window's start index."""

    starts: np.ndarray
    outputs: np.ndarray
    width: int
    stride: int
    threshold: float

    def __post_init__(self):
        object.__setattr__(self, "starts", np.asarray(self.starts, dtype=np.intp))
        object.__setattr__(self, "outputs", np.asarray(self.outputs, dtype=np.float64))
        if self.starts.ndim != 1 or self.starts.shape != self.outputs.shape:
            raise LengthMismatch("starts and outputs must be 1-d and equally long")

    def __len__(self) -> int:
        return self.starts.shape[0]

    @property
    def decisions(self) -> np.ndarray:
        return self.outputs >= self.threshold

    @property
    def near_threshold_windows(self) -> int:
        """Windows whose output lies within NEAR_THRESHOLD of the threshold."""
        return int(np.count_nonzero(
            np.abs(self.outputs - self.threshold) <= NEAR_THRESHOLD))


@dataclass(frozen=True)
class GestureRanges:
    """Sorted, non-overlapping half-open [start, end) sample-index ranges."""

    ranges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        norm = tuple((int(s), int(e)) for s, e in self.ranges)
        object.__setattr__(self, "ranges", norm)
        prev_end = None
        for s, e in norm:
            if s >= e:
                raise ValueError(f"range start {s} must precede end {e}")
            if prev_end is not None and s < prev_end:
                raise ValueError("ranges must be sorted and non-overlapping")
            prev_end = e

    def __len__(self) -> int:
        return len(self.ranges)

    def contains(self, index: int) -> bool:
        return any(s <= index < e for s, e in self.ranges)

    def label_indices(self, indices: np.ndarray) -> np.ndarray:
        labels = np.zeros(len(indices), dtype=bool)
        for s, e in self.ranges:
            labels |= (indices >= s) & (indices < e)
        return labels


def _axis_windows(session: SensorRecording, width: int, stride: int,
                  mode: ChannelMode) -> tuple[np.ndarray, ...]:
    """Strided (windows, width) views of the axes the mode reads; no copies."""
    axes = {ChannelMode.X: (session.x,), ChannelMode.Y: (session.y,),
            ChannelMode.Z: (session.z,)}.get(mode, (session.x, session.y, session.z))
    return tuple(sliding_window_view(a, width)[::stride] for a in axes)


def _block_inputs(views: tuple[np.ndarray, ...], mode: ChannelMode,
                  lo: int, hi: int) -> np.ndarray:
    """Raw network inputs of windows lo..hi-1 as one contiguous matrix."""
    parts = [v[lo:hi] for v in views]
    if mode is ChannelMode.XYZ:
        return np.concatenate(parts, axis=1)
    if mode is ChannelMode.AVG:
        return (parts[0] + parts[1] + parts[2]) / 3.0
    return np.ascontiguousarray(parts[0])


def detect_session(network: mlp.Network, session: SensorRecording,
                   width: int = 200, stride: int = 1,
                   threshold: float = 0.5) -> DetectionTrace:
    """Run the network over every full rolling window of the session."""
    if width < 2:
        raise InvalidSize("width must be >= 2")
    if stride < 1:
        raise InvalidSize("stride must be >= 1")
    if not 0.0 < threshold < 1.0:
        raise InvalidThreshold("threshold must lie strictly between 0 and 1")
    expected = 3 * width if network.mode is ChannelMode.XYZ else width
    if network.input_size != expected:
        raise ModeMismatch(
            f"{network.mode.value} network with {network.input_size} inputs "
            f"cannot consume width-{width} windows")
    if len(session) < width:
        raise SessionTooShort(
            f"session has {len(session)} samples, window needs {width}")

    n = window_count(len(session), width, stride)
    views = _axis_windows(session, width, stride, network.mode)
    w, b = network.raw_first_layer()
    assert views[0].shape[0] == n
    outputs = np.empty(n)
    for lo in range(0, n, BLOCK_WINDOWS):
        hi = min(lo + BLOCK_WINDOWS, n)
        block = _block_inputs(views, network.mode, lo, hi)
        outputs[lo:hi] = kernels.batch_forward(w, b, network.w2, network.b2, block)
    starts = np.arange(n, dtype=np.intp) * stride
    return DetectionTrace(starts=starts, outputs=outputs, width=width,
                          stride=stride, threshold=threshold)


def score_trace(trace: DetectionTrace,
                truth: GestureRanges) -> tuple[metrics.MetricsReport, list[bool]]:
    """Per-window metrics plus a detected flag per ground-truth range.

    A window counts as truth-smoking iff its start index lies inside a range;
    a range counts as detected iff some window starting inside it decided
    smoking.
    """
    if len(trace) == 0:
        raise EmptyTrace("cannot score an empty trace")
    starts = trace.starts
    decisions = trace.decisions
    labels = truth.label_indices(starts)
    c = metrics.confusion(decisions, labels)
    report = metrics.MetricsReport(
        counts=c, threshold=trace.threshold,
        specificity=metrics.specificity(c),
        sensitivity=metrics.sensitivity(c),
        accuracy=metrics.accuracy(c),
    )
    detected = [bool(np.any(decisions & (starts >= s) & (starts < e)))
                for s, e in truth.ranges]
    return report, detected


def trace_to_plot_series(trace: DetectionTrace, session: SensorRecording
                         ) -> list[tuple[int, float, float, float, float | None]]:
    """One row per session sample: (index, x, y, z, output-or-None).

    Outputs appear only on rows where a window starts, matching a plot of
    the raw signal with the network trace superimposed.
    """
    outputs: list[float | None] = [None] * len(session)
    for start, out in zip(trace.starts.tolist(), trace.outputs.tolist()):
        outputs[start] = out
    return list(zip(range(len(session)), session.x.tolist(), session.y.tolist(),
                    session.z.tolist(), outputs))


PLOT_HEADER = "i,x,y,z,output"


def write_plot_csv(trace: DetectionTrace, session: SensorRecording,
                   path: Union[str, Path]) -> None:
    rows = trace_to_plot_series(trace, session)
    lines = [PLOT_HEADER]
    for i, x, y, z, out in rows:
        tail = "" if out is None else repr(out)
        lines.append(f"{i},{x!r},{y!r},{z!r},{tail}")
    atomic_write_text(path, "\n".join(lines) + "\n")


TRACE_HEADER = "start,output,smoking"


def write_trace_csv(trace: DetectionTrace, path: Union[str, Path]) -> None:
    rows = zip(trace.starts.tolist(), trace.outputs.tolist(),
               trace.decisions.tolist())
    lines = [TRACE_HEADER]
    lines.extend(f"{s},{o!r},{int(d)}" for s, o, d in rows)
    atomic_write_text(path, "\n".join(lines) + "\n")


def load_ranges(path: Union[str, Path]) -> GestureRanges:
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    return GestureRanges(ranges=tuple((int(r["start"]), int(r["end"])) for r in doc))


def save_ranges(ranges: GestureRanges, path: Union[str, Path]) -> None:
    doc = [{"start": s, "end": e} for s, e in ranges.ranges]
    atomic_write_text(path, json.dumps(doc, indent=1) + "\n")
