"""Continuous-session detection over rolling raw windows.

The network slides across the session at a fixed stride, and output k belongs
to the window that starts at sample `k * stride`. The input scaling is folded
into the first layer once per call (`Network.raw_first_layer`), each signal is
centred once so that the folded layer rounds like the scaled one, and the
windows are cut from strided views of the centred signals in blocks of
`BLOCK_WINDOWS`, each passed through `kernels.batch_forward`, so memory stays
flat in the session length. Scoring against handpicked ground-truth ranges
labels a window smoking iff its start index falls inside a range (one
`np.searchsorted` maps each start to its range), and flags each range as
detected when at least one window starting inside it fired. The trace and
plot CSVs are written in one pass over blocks of `fileio.BLOCK_ROWS` samples
that formats each output once, so neither file is ever held whole as text.
"""

from __future__ import annotations

from contextlib import ExitStack
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import fileio, kernels, metrics, mlp
from .errors import (
    EmptyTrace,
    InvalidSize,
    LengthMismatch,
    MalformedRanges,
    SessionTooShort,
)
from .fileio import atomic_open, read_json, write_json
from .signal import SensorRecording, window_count

# Windows per forward call: a block of XYZ inputs is 1024 x 600 float64
# (4.7 MiB). 4096-window blocks made an XYZ detect on 100,000 samples about
# 1.5x slower.
BLOCK_WINDOWS = 1024
# Outputs this close to the threshold could flip under a last-bit change of
# the arithmetic; the detect report counts them.
NEAR_THRESHOLD = 1e-9


@dataclass(frozen=True, eq=False)
class DetectionTrace:
    """One network output per window; output k belongs to the window that
    starts at sample `k * stride`."""

    outputs: np.ndarray
    stride: int
    threshold: float

    def __post_init__(self):
        object.__setattr__(self, "outputs", np.asarray(self.outputs, dtype=np.float64))
        if self.outputs.ndim != 1:
            raise LengthMismatch("outputs must be 1-d")
        if self.stride < 1:
            raise InvalidSize("stride must be >= 1")

    def __len__(self) -> int:
        return self.outputs.shape[0]

    @property
    def starts(self) -> np.ndarray:
        return np.arange(len(self), dtype=np.intp) * self.stride

    @property
    def decisions(self) -> np.ndarray:
        return metrics.decide(self.outputs, self.threshold)

    @property
    def near_threshold_windows(self) -> int:
        """Windows whose output lies within NEAR_THRESHOLD of the threshold."""
        return int(np.count_nonzero(
            np.abs(self.outputs - self.threshold) <= NEAR_THRESHOLD))


@dataclass(frozen=True)
class GestureRanges:
    """Sorted, non-overlapping half-open [start, end) sample-index ranges
    with integer bounds (Python or numpy integers; not bools) that start at
    sample 0 or later."""

    ranges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        bounds = [v for pair in self.ranges for v in pair]
        if any(isinstance(v, bool) or not isinstance(v, (int, np.integer)) for v in bounds):
            raise MalformedRanges("range starts and ends must be integers")
        norm = tuple((int(s), int(e)) for s, e in self.ranges)
        object.__setattr__(self, "ranges", norm)
        prev_end = None
        for s, e in norm:
            if s < 0:
                raise MalformedRanges(f"range start {s} lies before sample 0")
            if s >= e:
                raise MalformedRanges(f"range start {s} must precede end {e}")
            if prev_end is not None and s < prev_end:
                raise MalformedRanges("ranges must be sorted and non-overlapping")
            prev_end = e

    def __len__(self) -> int:
        return len(self.ranges)

    def range_index(self, indices: np.ndarray) -> np.ndarray:
        """Per index, the position of the range holding it, or -1."""
        bounds = np.array(self.ranges, dtype=np.int64).ravel()
        # s_j <= i < e_j iff i sorts right after s_j: an odd insertion point
        k = np.searchsorted(bounds, indices, side="right")
        return np.where(k % 2 == 1, k // 2, -1)


def _block_inputs(views: tuple[np.ndarray, ...], lo: int, hi: int) -> np.ndarray:
    """Network inputs of windows lo..hi-1 as one contiguous matrix."""
    if len(views) > 1:
        return np.concatenate([v[lo:hi] for v in views], axis=1)
    return np.ascontiguousarray(views[0][lo:hi])


def detect_session(network: mlp.Network, session: SensorRecording,
                   stride: int = 1,
                   threshold: float = metrics.DEFAULT_THRESHOLD) -> DetectionTrace:
    """Run the network over every full rolling window of the session; the
    window is the network's per-signal input length (`Network.window`)."""
    width = network.window
    if stride < 1:
        raise InvalidSize("stride must be >= 1")
    metrics.check_threshold(threshold)
    if len(session) < width:
        raise SessionTooShort(
            f"session has {len(session)} samples, window needs {width}")

    n = window_count(len(session), width, stride)
    signals = network.mode.signals(session.x, session.y, session.z)
    w, b, centres = network.raw_first_layer()
    views = tuple(sliding_window_view(s - c, width)[::stride]
                  for s, c in zip(signals, centres))
    assert views[0].shape[0] == n
    outputs = np.empty(n)
    for lo in range(0, n, BLOCK_WINDOWS):
        hi = min(lo + BLOCK_WINDOWS, n)
        outputs[lo:hi] = kernels.batch_forward(w, b, network.w2, network.b2,
                                               _block_inputs(views, lo, hi))
    return DetectionTrace(outputs=outputs, stride=stride, threshold=threshold)


def score_trace(trace: DetectionTrace,
                truth: GestureRanges) -> tuple[metrics.MetricsReport, list[bool]]:
    """Per-window metrics plus a detected flag per ground-truth range.

    A window counts as truth-smoking iff its start index lies inside a range;
    a range counts as detected iff some window starting inside it decided
    smoking.
    """
    if len(trace) == 0:
        raise EmptyTrace("cannot score an empty trace")
    which = truth.range_index(trace.starts)
    labels = which >= 0
    report = metrics.evaluate(trace.outputs, labels, trace.threshold)
    detected = np.zeros(len(truth), dtype=bool)
    detected[which[trace.decisions & labels]] = True
    return report, detected.tolist()


PLOT_HEADER = "i,x,y,z,output"
TRACE_HEADER = "start,output,smoking"


def write_trace_csv(trace: DetectionTrace, path: Union[str, Path, None],
                    session: Optional[SensorRecording] = None,
                    plot_path: Union[str, Path, None] = None) -> None:
    """One row per window, `start,output,smoking`, at path (None writes no
    trace); given a session and a plot_path, also the rows of
    `write_plot_csv(trace, session, plot_path)`. Per block of
    `fileio.BLOCK_ROWS` sample indices the outputs of the windows starting in
    it are formatted once, for both files; through `atomic_open`, so an error
    replaces neither target."""
    stride, outputs = trace.stride, trace.outputs
    smoking = trace.decisions.view(np.int8)
    last = (len(trace) - 1) * stride
    if plot_path is None:
        n = last + 1 if len(trace) else 0
    else:
        n = len(session)
        if len(trace) and last >= n:
            raise LengthMismatch(
                f"a window starts at sample {last} of a {n}-sample session")
    with ExitStack() as stack:
        tf = None if path is None else stack.enter_context(atomic_open(path))
        pf = None if plot_path is None else stack.enter_context(atomic_open(plot_path))
        if tf is not None:
            tf.write(TRACE_HEADER + "\n")
        if pf is not None:
            pf.write(PLOT_HEADER + "\n")
        for lo in range(0, n, fileio.BLOCK_ROWS):
            hi = min(lo + fileio.BLOCK_ROWS, n)
            # windows a..b-1 start in [lo, hi): ceil(lo / stride) <= k < ceil(hi / stride)
            a, b = -(-lo // stride), min(-(-hi // stride), len(trace))
            reprs = list(map(repr, outputs[a:b].tolist()))
            if tf is not None:
                tf.write("".join(f"{s},{o},{d}\n" for s, o, d in
                                 zip(range(a * stride, b * stride, stride), reprs,
                                     smoking[a:b].tolist())))
            if pf is not None:
                tails = [""] * (hi - lo)
                tails[a * stride - lo:b * stride - lo:stride] = reprs
                rows = zip(range(lo, hi), session.x[lo:hi].tolist(),
                           session.y[lo:hi].tolist(), session.z[lo:hi].tolist(), tails)
                pf.write("".join(f"{i},{x!r},{y!r},{z!r},{t}\n" for i, x, y, z, t in rows))


def write_plot_csv(trace: DetectionTrace, session: SensorRecording,
                   path: Union[str, Path]) -> None:
    """One row per session sample, `i,x,y,z,output`; the output column is
    filled only on rows where a window starts. LengthMismatch if a window
    starts past the session's last sample."""
    write_trace_csv(trace, None, session, path)


def load_ranges(path: Union[str, Path]) -> GestureRanges:
    """Read a `[{"start": int, "end": int}, ...]` file; MalformedRanges for
    anything else or for ranges that GestureRanges rejects."""
    try:
        doc = read_json(path)
        pairs = tuple((r["start"], r["end"]) for r in doc)
    except KeyError as exc:
        raise MalformedRanges(f"a range lacks the key {exc}") from None
    except (TypeError, ValueError) as exc:  # json.JSONDecodeError is a ValueError
        raise MalformedRanges(f'not a JSON list of {{"start", "end"}} objects: {exc}') from None
    return GestureRanges(ranges=pairs)


def save_ranges(ranges: GestureRanges, path: Union[str, Path]) -> None:
    doc = [{"start": s, "end": e} for s, e in ranges.ranges]
    write_json(path, doc)
