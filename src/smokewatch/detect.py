"""Continuous-session detection over rolling raw windows.

The network slides across the session at a fixed stride, and output k belongs
to the window that starts at sample `k * stride`. The input scaling is folded
into the first layer once per call (`Network.raw_first_layer`), and each
signal is centred once so that the folded layer rounds like the scaled one.
No window is copied: a window's first-layer pre-activations are a correlation
of the centred signals with the weights, so rows of several consecutive
windows' samples, taken from strided views, go through one banded matrix
(`kernels.window_band`) in blocks of about `BLOCK_WINDOWS` windows
(`kernels.band_forward`), and memory stays flat in the session length.
Scoring against handpicked ground-truth ranges labels a window smoking iff
its start index falls inside a range (one `np.searchsorted` maps each start
to its range), and flags each range as detected when at least one window
starting inside it fired. The trace and plot CSVs are written in one pass,
each block of rows given as character fields with no string per row: per
block of samples, `fileio.output_chars` prints the outputs once for both
files at 10 decimals (at most 5e-11 off, against NEAR_THRESHOLD's 1e-9),
`fileio.digit_chars` the window starts and sample indices, and
`fileio.repr_chars` the x, y and z values for the plot; the `smoking`
column comes from the exact outputs. `fileio.write_csv` owns the block
loop and the joining of fields into text, so neither file is ever held
whole as text. Given paths, `detect_session` also writes the trace, and
on a long session it runs the band blocks on one worker thread during the
writes, so the writes format the rows of the blocks already done: the
BLAS product releases the GIL, the formatting holds it (timings in README,
"Detection beside the writes"). The outputs cannot change: each block is
the same single-threaded product on the same shapes, wherever it runs.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable, Optional, Union

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
from .fileio import read_json, write_json
from .signal import SensorRecording, window_count

# Windows per forward call, in whole rows of the band: on a 100,000-sample
# session, 4096-window blocks ran an XYZ detect at stride 1 in about 0.6x
# the time of 1024-window blocks (one BLAS thread)
BLOCK_WINDOWS = 4096
# Outputs this close to the threshold could flip under a last-bit change of
# the arithmetic; the detect report counts them.
NEAR_THRESHOLD = 1e-9
# Fewest blocks of the band that a writing `detect_session` runs on a
# worker thread. A detect plus --plot write took, inline against pipelined
# (2-vCPU VM, one BLAS thread, medians of 21 and of 31 alternating runs): at
# 6 blocks X 20.5 -> 17.9 and 21.1 -> 17.0 ms, XYZ 23.4 -> 20.0 and 25.7 ->
# 20.7 ms; at 5 blocks X 14.4 -> 12.8 but 13.6 -> 13.8 ms; at 2 blocks (a
# Table-1 session has 1 or 2) X 8.8 -> 9.4 ms
PIPELINE_BLOCKS = 6


@dataclass(frozen=True, eq=False)
class DetectionTrace:
    """One network output per window, in [0, 1]; output k belongs to the
    window that starts at sample `k * stride`."""

    outputs: np.ndarray
    stride: int
    threshold: float
    # set within a pipelined `detect_session` only: returns once outputs[:k]
    # are final and checked
    _wait: Optional[Callable[[int], None]] = field(default=None, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "outputs", np.asarray(self.outputs, dtype=np.float64))
        if self.outputs.ndim != 1:
            raise LengthMismatch("outputs must be 1-d")
        if self.stride < 1:
            raise InvalidSize("stride must be >= 1")
        if self._wait is None:
            kernels.check_outputs(self.outputs)

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


def _band_blocks(network: mlp.Network, session: SensorRecording, stride: int,
                 threshold: float) -> tuple[np.ndarray, int, int, list[Callable[[], None]]]:
    """Check a detection's arguments; return its outputs array, its window
    count n, the windows per block of the band, and one function per block,
    in window order, that fills the block's own slice of outputs and raises
    InvalidSample unless that slice's windows below n are finite and in
    [0, 1]. outputs[:n] are the windows' outputs once every block has run."""
    width = network.window
    if stride < 1:
        raise InvalidSize("stride must be >= 1")
    metrics.check_threshold(threshold)
    if len(session) < width:
        raise SessionTooShort(
            f"session has {len(session)} samples, window needs {width}")
    # windows per row of the band: its multiply-adds on zeros, (per_row - 1)
    # * stride / width of the useful ones, stay at or below 25%
    per_row = 1 + width // (4 * stride)
    step = max(1, BLOCK_WINDOWS // per_row)
    n = window_count(len(session), width, stride)
    rows = -(-n // per_row)
    row_len = (per_row - 1) * stride + width
    used = (n - 1) * stride + width
    signals = network.mode.signals(session.x, session.y, session.z)
    w, b, centres = network.raw_first_layer()
    views = []
    for s, c in zip(signals, centres):
        # centred, then zero-padded to whole rows
        padded = np.zeros((rows * per_row - 1) * stride + width)
        np.subtract(s[:used], c, out=padded[:used])
        views.append(sliding_window_view(padded, row_len)[::per_row * stride])
    band = kernels.window_band(w, len(signals), stride, per_row)
    outputs = np.empty(rows * per_row)

    def block(lo: int) -> None:
        hi = min(lo + step, rows)
        # a sample near +-1e308 overflows; check_outputs names it. The error
        # state is per thread, so it is set where the block runs
        with np.errstate(over="ignore", invalid="ignore"):
            outputs[lo * per_row:hi * per_row] = kernels.band_forward(
                band, b, network.w2, network.b2,
                np.concatenate([v[lo:hi] for v in views], axis=1))
        kernels.check_outputs(outputs[lo * per_row:min(hi * per_row, n)])

    return outputs, n, per_row * step, [partial(block, lo) for lo in range(0, rows, step)]


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def detect_session(network: mlp.Network, session: SensorRecording,
                   stride: int = 1, threshold: float = metrics.DEFAULT_THRESHOLD,
                   path: Union[str, Path, None] = None,
                   plot_path: Union[str, Path, None] = None) -> DetectionTrace:
    """Run the network over every full rolling window of the session; the
    window is the network's per-signal input length (`Network.window`).
    Given a path or a plot_path, also write the trace by
    `write_trace_csv(trace, path, session, plot_path)`. With at least
    PIPELINE_BLOCKS band blocks and two usable CPUs the blocks then run in
    order on one worker thread during the write, and each block of rows
    waits for the band blocks that cover its windows and raises what they
    raised; otherwise every block runs before the write. On an error the
    pending blocks are cancelled, the worker is joined and no target is
    replaced."""
    outputs, n, per_block, blocks = _band_blocks(network, session, stride, threshold)
    writes = path is not None or plot_path is not None
    if not writes or len(blocks) < PIPELINE_BLOCKS or _usable_cpus() < 2:
        while blocks:  # popped, so that the band is freed before the writes
            blocks.pop(0)()
        trace = DetectionTrace(outputs=outputs[:n], stride=stride, threshold=threshold)
        if writes:
            write_trace_csv(trace, path, session, plot_path)
        return trace
    # imported here, so that a process that never pipelines does not load
    # it (it and its imports, logging among them, hold 0.7 MiB resident)
    from concurrent.futures import ThreadPoolExecutor
    pool = ThreadPoolExecutor(max_workers=1)
    try:
        done = [pool.submit(block) for block in blocks]

        def wait(windows: int) -> None:
            for future in done[:-(-windows // per_block)]:
                future.result()

        write_trace_csv(DetectionTrace(outputs=outputs[:n], stride=stride,
                                       threshold=threshold, _wait=wait),
                        path, session, plot_path)
        wait(n)
    finally:
        pool.shutdown(cancel_futures=True)
    return DetectionTrace(outputs=outputs[:n], stride=stride, threshold=threshold)


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
    `write_plot_csv(trace, session, plot_path)`. Per block of sample
    indices the outputs of the windows starting in it are printed once, for
    both files, by `fileio.output_chars`, the block's samples by
    `fileio.repr_chars`, and `fileio.write_csv` writes the blocks, so an
    error replaces neither target. Within a pipelined `detect_session` each
    block waits only for the band blocks that cover its windows."""
    stride = trace.stride
    last = (len(trace) - 1) * stride
    if plot_path is None:
        n = last + 1 if len(trace) else 0
    else:
        n = len(session)
        if len(trace) and last >= n:
            raise LengthMismatch(
                f"a window starts at sample {last} of a {n}-sample session")

    def block_fields(lo: int, hi: int) -> list[list[np.ndarray]]:
        # windows a..b-1 start in [lo, hi): ceil(lo / stride) <= k < ceil(hi / stride);
        # none (b = a) in a block of plot rows past the last window
        a = -(-lo // stride)
        b = max(a, min(-(-hi // stride), len(trace)))
        if trace._wait is not None:
            trace._wait(b)
        outputs = trace.outputs[a:b]
        printed = fileio.output_chars(outputs)
        fields = []  # the trace block's, then the plot block's
        if path is not None:
            fields.append([fileio.digit_chars(np.arange(a * stride, b * stride, stride)),
                           printed,
                           fileio.digit_chars(metrics.decide(outputs, trace.threshold))])
        if plot_path is not None:
            tails = np.zeros((hi - lo, printed.shape[1]), dtype=np.uint8)
            tails[a * stride - lo:b * stride - lo:stride] = printed
            fields.append([
                fileio.digit_chars(np.arange(lo, hi)),
                *fileio.repr_chars([c[lo:hi] for c in (session.x, session.y, session.z)]),
                tails])
        return fields

    targets = [(target, header) for target, header in
               ((path, TRACE_HEADER), (plot_path, PLOT_HEADER)) if target is not None]
    fileio.write_csv(targets, n, block_fields)


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
