"""Rolling-window detection: trace construction, truth labeling, scoring
against ground-truth ranges, and the plot/trace serializations."""

import sys
import threading
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from conftest import make_recording, tiny_network
from oracles import forward
from smokewatch import detect, fileio, kernels, mlp
from smokewatch.detect import (
    BLOCK_WINDOWS,
    NEAR_THRESHOLD,
    DetectionTrace,
    GestureRanges,
    detect_session,
    load_ranges,
    save_ranges,
    score_trace,
    write_plot_csv,
    write_trace_csv,
)
from smokewatch.errors import (
    EmptyTrace,
    InvalidSample,
    InvalidSize,
    InvalidThreshold,
    MalformedRanges,
    SessionTooShort,
)
from smokewatch.fileio import BLOCK_ROWS
from smokewatch.signal import ChannelMode, window_count


def input_size(width: int, mode: ChannelMode) -> int:
    return 3 * width if mode is ChannelMode.XYZ else width


def zero_network(width: int, mode: ChannelMode = ChannelMode.X) -> mlp.Network:
    net = tiny_network(input_size(width, mode), 2, seed=0, mode=mode)
    return net.with_weights(np.zeros(net.n_weights))


def make_trace(decisions, stride=1, threshold=0.5):
    outputs = np.where(decisions, 0.9, 0.1)
    return DetectionTrace(outputs=outputs, stride=stride, threshold=threshold)


# --- GestureRanges -----------------------------------------------------------

def test_ranges_validate_ordering():
    GestureRanges(ranges=((0, 5), (5, 9)))  # touching is fine, half-open
    with pytest.raises(ValueError):
        GestureRanges(ranges=((5, 5),))
    with pytest.raises(ValueError):
        GestureRanges(ranges=((0, 6), (4, 9)))
    with pytest.raises(ValueError):
        GestureRanges(ranges=((10, 12), (0, 5)))
    with pytest.raises(MalformedRanges, match="before sample 0"):
        GestureRanges(ranges=((-500, -100), (0, 50)))
    with pytest.raises(MalformedRanges, match="before sample 0"):
        GestureRanges(ranges=((-1, 5),))


@pytest.mark.parametrize("pair", [(1.7, 5.9), (1.0, 5), (True, 3), (0, False),
                                  ("1", 5), (None, 5), (np.float64(1), 5)])
def test_ranges_reject_bounds_that_are_not_integers(pair):
    with pytest.raises(MalformedRanges, match="integers"):
        GestureRanges(ranges=(pair,))


def test_ranges_accept_numpy_integers():
    r = GestureRanges(ranges=((np.int64(2), np.int32(5)), (np.uint8(7), 9)))
    assert r.ranges == ((2, 5), (7, 9))
    assert all(type(v) is int for pair in r.ranges for v in pair)


def test_ranges_membership_half_open():
    r = GestureRanges(ranges=((10, 20),))
    assert r.range_index(np.array([9, 10, 19, 20])).tolist() == [-1, 0, 0, -1]


def test_range_index_matches_contains(rng):
    r = GestureRanges(ranges=((3, 7), (15, 16), (40, 55)))
    idx = rng.integers(0, 70, 200)
    labels = r.range_index(idx) >= 0
    assert labels.tolist() == [any(s <= i < e for s, e in r.ranges) for i in idx]
    which = [next((j for j, (s, e) in enumerate(r.ranges) if s <= i < e), -1)
             for i in idx]
    assert r.range_index(idx).tolist() == which


def test_ranges_shift_by_k_shifts_labels(rng):
    base = GestureRanges(ranges=((5, 12), (30, 44)))
    k = 17
    shifted = GestureRanges(ranges=tuple((s + k, e + k) for s, e in base.ranges))
    idx = np.arange(0, 60)
    assert np.array_equal(base.range_index(idx) >= 0, shifted.range_index(idx + k) >= 0)


# --- detect_session ----------------------------------------------------------

def test_detect_session_window_arithmetic(rng):
    rec = make_recording(rng.normal(size=(1000, 3)))
    net = zero_network(200)
    trace = detect_session(net, rec, stride=1)
    assert len(trace) == 801
    trace10 = detect_session(net, rec, stride=10)
    assert len(trace10) == 81
    assert trace10.starts.tolist() == list(range(0, 801, 10))


def test_detect_zero_network_equality_rule(rng):
    # all-zero weights output exactly 0.5; at threshold 0.5 every decision fires
    rec = make_recording(rng.normal(size=(50, 3)))
    trace = detect_session(zero_network(10), rec, threshold=0.5)
    assert np.all(trace.outputs == 0.5)
    assert np.all(trace.decisions)


def test_detect_session_too_short(rng):
    rec = make_recording(rng.normal(size=(199, 3)))
    with pytest.raises(SessionTooShort):
        detect_session(zero_network(200), rec)


def test_detect_session_exact_width_gives_one_window(rng):
    rec = make_recording(rng.normal(size=(25, 3)))
    trace = detect_session(zero_network(25), rec)
    assert len(trace) == 1
    assert trace.starts[0] == 0


@pytest.mark.parametrize("mode", tuple(ChannelMode), ids=lambda m: m.value)
def test_detect_names_an_overflow_with_no_numpy_warning(mode, rng):
    # every axis at +1e308 and -1e308 on alternate samples: AVG's mean and
    # every mode's first layer overflow and the outputs are not finite.
    # InvalidSample, and no RuntimeWarning, which pyproject turns into an
    # error
    values = rng.normal(size=(700, 3))
    values[300:400] = 1e308
    values[301:400:2] *= -1
    net = tiny_network(input_size(200, mode), 4, seed=5, mode=mode)
    with pytest.raises(InvalidSample):
        detect_session(net, make_recording(values))


def test_detect_validates_options(rng):
    rec = make_recording(rng.normal(size=(40, 3)))
    net = zero_network(10)
    with pytest.raises(InvalidSize):
        detect_session(net, rec, stride=0)
    with pytest.raises(InvalidThreshold):
        detect_session(net, rec, threshold=1.0)


def test_detect_xyz_mode_consumes_triple_width(rng):
    # an XYZ network has 600 inputs, so its window is 200 samples
    rec = make_recording(rng.normal(size=(220, 3)))
    net = zero_network(200, mode=ChannelMode.XYZ)
    trace = detect_session(net, rec)
    assert len(trace) == 21


@pytest.mark.parametrize("mode, width", [
    (ChannelMode.XYZ, 200), (ChannelMode.X, 1), (ChannelMode.X, 7),
    (ChannelMode.Y, 50), (ChannelMode.AVG, 200)],
    ids=["XYZ-200", "X-1", "X-7", "Y-50", "AVG-200"])
def test_detect_window_is_the_networks_input_per_signal(mode, width, rng):
    # L - w + 1 windows at stride 1 over L samples for a network of w inputs
    # per signal (a recording holds at least 2 samples)
    net = zero_network(width, mode)
    for length in (max(width, 2), width + 1, 3 * width + 5):
        trace = detect_session(net, make_recording(rng.normal(size=(length, 3))))
        assert trace.starts.tolist() == list(range(length - width + 1))


def test_detect_windows_match_manual_forward(rng):
    rec = make_recording(rng.normal(size=(40, 3)))
    net = tiny_network(8, 3, seed=2)
    trace = detect_session(net, rec, stride=3, threshold=0.4)
    for start, out, smoking in zip(trace.starts, trace.outputs, trace.decisions):
        window = rec.x[start:start + 8]
        assert out == pytest.approx(forward(net, window), rel=1e-12)
        assert smoking == (out >= 0.4)


def cut_windows(rec, mode: ChannelMode, starts: np.ndarray, width: int) -> np.ndarray:
    """Raw inputs of the windows at `starts`, cut by fancy indexing."""
    cols = starts[:, None] + np.arange(width)[None, :]
    x, y, z = rec.x[cols], rec.y[cols], rec.z[cols]
    return {ChannelMode.X: x, ChannelMode.Y: y, ChannelMode.Z: z,
            ChannelMode.XYZ: np.concatenate([x, y, z], axis=1),
            ChannelMode.AVG: (x + y + z) / 3.0}[mode]


@pytest.mark.parametrize("stride", [1, 3])
@pytest.mark.parametrize("mode", tuple(ChannelMode), ids=lambda m: m.value)
def test_detect_blocks_match_forward_batch_on_cut_windows(mode, stride):
    # window counts just below, at and just above one and two block
    # boundaries; the scaling has dead inputs (lo == hi) that the session
    # fills with non-zero values, which must not reach the network
    rng = np.random.default_rng(99)
    width = 200
    size = input_size(width, mode)
    lo = rng.uniform(-1.5, 0.5, size)
    hi = lo + rng.uniform(0.3, 3.0, size)
    dead = rng.random(size) < 0.1
    hi[dead] = lo[dead]
    net = replace(tiny_network(size, 4, seed=5, mode=mode),
                  norm=mlp.NormParams(lo=lo, hi=hi))
    counts = [k * BLOCK_WINDOWS + d for k in (1, 2) for d in (-1, 0, 1)]
    values = rng.normal(0.3, 0.6, size=((max(counts) - 1) * stride + width, 3))
    for n in counts:
        rec = make_recording(values[: (n - 1) * stride + width])
        trace = detect_session(net, rec, stride=stride)
        starts = np.arange(n) * stride
        assert np.array_equal(trace.starts, starts)
        want = mlp.forward_batch(net, cut_windows(rec, mode, starts, width))
        assert np.max(np.abs(trace.outputs - want)) <= 1e-12
        near = np.abs(want - 0.5) <= NEAR_THRESHOLD
        assert not near.any()
        assert np.array_equal(trace.decisions, want >= 0.5)


@pytest.mark.parametrize("mode, width", [
    (mode, width) for mode in ChannelMode for width in (1, 7, 50, 200)
    if mode is not ChannelMode.XYZ or width == 200],  # an XYZ net takes 600 inputs
    ids=lambda v: getattr(v, "value", v))
def test_detect_band_matches_forward_batch_at_row_and_block_ends(mode, width, monkeypatch):
    # a row of the band holds 1 (stride > width / 4) to 51 (width 200,
    # stride 1) windows; window counts sit just below, at and just above the
    # first and second row and block ends, with blocks cut to 128 windows so
    # that every stride reaches two of them. Each session ends stride - 1
    # samples past its last window, which no window reads.
    monkeypatch.setattr(detect, "BLOCK_WINDOWS", 128)
    rng = np.random.default_rng(width)
    size = input_size(width, mode)
    lo = rng.uniform(-1.5, 0.5, size)
    hi = lo + rng.uniform(0.3, 3.0, size)
    dead = rng.random(size) < 0.1
    hi[dead] = lo[dead]
    net = replace(tiny_network(size, 4, seed=5, mode=mode),
                  norm=mlp.NormParams(lo=lo, hi=hi))
    for stride in (1, 2, 3, 49, 50, 51, 199, 200, 201, 450):
        per_row = 1 + width // (4 * stride)
        block = max(1, 128 // per_row) * per_row
        ends = {per_row, 2 * per_row, block, 2 * block}
        counts = sorted({e + d for e in ends for d in (-1, 0, 1)} - {0})
        values = rng.normal(0.3, 0.6, size=(max(counts) * stride + width, 3))
        for n in counts:
            length = (n - 1) * stride + width + stride - 1
            if length < 2:
                continue
            rec = make_recording(values[:length])
            trace = detect_session(net, rec, stride=stride)
            starts = np.arange(n) * stride
            assert np.array_equal(trace.starts, starts)
            want = mlp.forward_batch(net, cut_windows(rec, mode, starts, width))
            assert np.max(np.abs(trace.outputs - want)) <= 1e-12, (stride, n)
            far = np.abs(want - 0.5) > NEAR_THRESHOLD
            assert np.array_equal(trace.decisions[far], want[far] >= 0.5)


@pytest.mark.parametrize("mode", tuple(ChannelMode), ids=lambda m: m.value)
def test_detect_folded_layer_keeps_precision_on_offset_axes(mode):
    # every axis sits at ~1 g with a scaling span of 0.5-1 mg (|mid|/span
    # 1e3-2e3); folding the scaling into the first layer on uncentred raw
    # values would cancel terms of that size and miss the 1e-12 bound
    rng = np.random.default_rng(42)
    width = 200
    size = input_size(width, mode)
    lo = 1.0 + rng.normal(0.0, 2e-4, size)
    hi = lo + rng.uniform(0.5e-3, 1.0e-3, size)
    net = replace(tiny_network(size, mlp.DEFAULT_HIDDEN, seed=6, mode=mode),
                  norm=mlp.NormParams(lo=lo, hi=hi))
    rec = make_recording(1.0 + rng.normal(0.0, 5e-4, size=(1500, 3)))
    trace = detect_session(net, rec)
    want = mlp.forward_batch(net, cut_windows(rec, mode, trace.starts, width))
    assert np.max(np.abs(trace.outputs - want)) <= 1e-12
    assert not np.any(np.abs(want - 0.5) <= NEAR_THRESHOLD)
    assert np.array_equal(trace.decisions, want >= 0.5)


def detect_and_write(net, rec, stride, out, plot, cpus, least, monkeypatch):
    """Run `detect_session` with `_usable_cpus` reading cpus and
    PIPELINE_BLOCKS at least, writing its trace (and plot) under out;
    (outputs, whether the worker ran, the files under out). The worker ran
    iff a band block ran on another thread than this one; its outputs must
    equal those of a `detect_session` that writes nothing."""
    monkeypatch.setattr(detect, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(detect, "PIPELINE_BLOCKS", least)
    threads = set()
    band_forward = kernels.band_forward
    monkeypatch.setattr(kernels, "band_forward",
                        lambda *args: threads.add(threading.get_ident()) or band_forward(*args))
    before = threading.active_count()
    trace = detect_session(net, rec, stride, path=out / "trace.csv",
                           plot_path=out / "plot.csv" if plot else None)
    monkeypatch.setattr(kernels, "band_forward", band_forward)
    assert threading.active_count() == before
    assert trace._wait is None
    worker = bool(threads - {threading.get_ident()})
    if worker:
        assert trace.outputs.tobytes() == detect_session(net, rec, stride).outputs.tobytes()
    return trace.outputs.copy(), worker, {p.name: p.read_bytes() for p in out.iterdir()}


@pytest.fixture
def fast_switching():
    """Threads switched every 10 us; the interpreter's interval restored after."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    yield
    sys.setswitchinterval(interval)


@pytest.mark.parametrize("stride", [1, 3, 60])  # 60 > width / 4: one window per band row
@pytest.mark.parametrize("mode", [ChannelMode.X, ChannelMode.XYZ, ChannelMode.AVG],
                         ids=lambda m: m.value)
def test_pipelined_detection_writes_the_inline_bytes(mode, stride, tmp_path, monkeypatch,
                                                  fast_switching):
    # band blocks of about 128 windows and write blocks of 300 rows, so that
    # row blocks wait on band blocks at many offsets, each band block slowed
    # by 2 ms, so that the writes run ahead of the worker, and threads
    # switched every 10 us; sessions one window below and one above
    # PIPELINE_BLOCKS band blocks. Inline is one usable CPU; two run the
    # worker on the session above the minimum, and on the one below once the
    # minimum is lowered to 1
    band_forward = kernels.band_forward
    monkeypatch.setattr(kernels, "band_forward",
                        lambda *args: time.sleep(0.002) or band_forward(*args))
    monkeypatch.setattr(detect, "BLOCK_WINDOWS", 128)
    monkeypatch.setattr(fileio, "BLOCK_ROWS", 300)
    least = detect.PIPELINE_BLOCKS
    width = 200
    net = tiny_network(input_size(width, mode), 4, seed=5, mode=mode)
    per_row = 1 + width // (4 * stride)
    block = max(1, 128 // per_row) * per_row
    for n in ((least - 1) * block, (least - 1) * block + 1):
        rng = np.random.default_rng(n)
        samples = (n - 1) * stride + width + stride - 1  # past the last window, unread
        rec = make_recording(np.round(rng.normal(0.0, 0.5, (samples, 3)), 3))
        for plot in (False, True):
            runs = {key: detect_and_write(net, rec, stride, tmp_path / f"{n}-{plot}-{key}",
                                          plot, cpus, blocks, monkeypatch)
                    for key, cpus, blocks in (("inline", 1, least), ("gate", 2, least),
                                              ("forced", 2, 1))}
            assert len(runs["inline"][0]) == n
            assert sorted(runs["inline"][2]) == ["plot.csv", "trace.csv"][not plot:]
            assert [runs[k][1] for k in ("inline", "gate", "forced")] == [False, n % block == 1, True]
            for key in ("gate", "forced"):
                assert runs[key][0].tobytes() == runs["inline"][0].tobytes()
                assert runs[key][2] == runs["inline"][2]


def test_pipelined_detection_at_full_block_size(tmp_path, monkeypatch):
    # one session of PIPELINE_BLOCKS blocks of BLOCK_WINDOWS windows at stride
    # 1, with the plot: the writes' 4,096-row blocks against 4,080-window
    # band blocks
    width = 200
    per_row = 1 + width // 4
    n = (detect.PIPELINE_BLOCKS - 1) * (BLOCK_WINDOWS // per_row * per_row) + 1
    rec = make_recording(np.round(np.random.default_rng(8).normal(0.0, 0.5, (n + width - 1, 3)), 3))
    net = tiny_network(width, mlp.DEFAULT_HIDDEN, seed=2)
    least = detect.PIPELINE_BLOCKS
    inline = detect_and_write(net, rec, 1, tmp_path / "inline", True, 1, least, monkeypatch)
    pipelined = detect_and_write(net, rec, 1, tmp_path / "pipe", True, 2, least, monkeypatch)
    assert (inline[1], pipelined[1]) == (False, True)
    assert inline[0].tobytes() == pipelined[0].tobytes()
    assert inline[2] == pipelined[2]


def test_pipelined_detection_joins_its_worker_when_the_write_fails(tmp_path, monkeypatch):
    # the trace's directory is a file, so the write fails at once; the
    # worker's pending blocks (30, each slowed by 10 ms) are cancelled and
    # the worker is joined before the error leaves `detect_session`, which
    # runs no band block on this thread
    monkeypatch.setattr(detect, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(detect, "BLOCK_WINDOWS", 128)
    run = []
    band_forward = kernels.band_forward
    monkeypatch.setattr(kernels, "band_forward",
                        lambda *args: run.append(threading.get_ident()) or time.sleep(0.01)
                        or band_forward(*args))
    rec = make_recording(np.random.default_rng(3).normal(size=(30 * 102 + 199, 3)))
    net = tiny_network(200, 4, seed=5)
    (tmp_path / "file").write_text("")
    before = threading.active_count()
    with pytest.raises(NotADirectoryError):
        detect_session(net, rec, path=tmp_path / "file" / "trace.csv")
    assert threading.active_count() == before
    assert len(run) < 30
    assert threading.get_ident() not in run


def test_detect_memory_does_not_grow_with_the_session(rng):
    # an XYZ detect over 50,000 samples holds blocks of windows, never the
    # (49,801 x 600) window matrix (228 MiB) or a scaled copy of it
    rec = make_recording(rng.normal(size=(50_000, 3)))
    net = tiny_network(600, 10, seed=0, mode=ChannelMode.XYZ)
    tracemalloc.start()
    try:
        trace = detect_session(net, rec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(trace) == 49_801
    assert peak < 32 * 2**20


# --- score_trace -------------------------------------------------------------

def test_score_trace_hand_counts():
    # windows starting 0..9; truth range [3, 6); decisions fire at 3,4,8
    decisions = [False, False, False, True, True, False, False, False, True, False]
    trace = make_trace(decisions)
    report, flags = score_trace(trace, GestureRanges(ranges=((3, 6),)))
    assert flags == [True]
    # truth positives at starts 3,4,5 -> tp=2 (3,4), fn=1 (5)
    assert (report.counts.tp, report.counts.fn) == (2, 1)
    assert (report.counts.fp, report.counts.tn) == (1, 6)


def test_score_trace_no_ranges_all_negative():
    trace = make_trace([False] * 8)
    report, flags = score_trace(trace, GestureRanges(ranges=()))
    assert flags == []
    assert report.specificity == 1.0
    assert report.sensitivity is None


def test_score_trace_perfect_alignment():
    decisions = [False, True, True, False]
    trace = make_trace(decisions)
    report, flags = score_trace(trace, GestureRanges(ranges=((1, 3),)))
    assert report.counts.fp == 0 and report.counts.fn == 0
    assert report.accuracy == 1.0
    assert flags == [True]


def test_score_trace_undetected_range():
    trace = make_trace([False] * 10)
    report, flags = score_trace(trace, GestureRanges(ranges=((2, 4), (6, 9))))
    assert flags == [False, False]
    assert report.sensitivity == 0.0


def test_score_trace_respects_stride():
    # starts are 0, 5, 10, 15; the range [4, 9) contains only start 5
    trace = make_trace([False, True, False, False], stride=5)
    report, flags = score_trace(trace, GestureRanges(ranges=((4, 9),)))
    assert flags == [True]
    assert report.counts.tp == 1 and report.counts.fn == 0


def test_score_trace_lower_threshold_never_undetects(rng):
    outs = rng.uniform(0, 1, 60)
    truth = GestureRanges(ranges=((5, 20), (33, 41)))
    detected_prev = None
    for thr in (0.9, 0.6, 0.3, 0.1):
        trace = DetectionTrace(outputs=outs, stride=1, threshold=thr)
        _, flags = score_trace(trace, truth)
        if detected_prev is not None:
            assert all(not p or c for p, c in zip(detected_prev, flags))
        detected_prev = flags


def test_score_trace_rejects_empty():
    trace = DetectionTrace(outputs=[], stride=1, threshold=0.5)
    with pytest.raises(EmptyTrace):
        score_trace(trace, GestureRanges(ranges=()))


def random_ranges(rng, hi: int) -> GestureRanges:
    """Up to 5 sorted ranges inside [0, hi); some touch their neighbour."""
    points = np.unique(rng.integers(0, hi, 10)).tolist()
    pairs = []
    for s, e in zip(points[::2], points[1::2]):
        if pairs and rng.random() < 0.3:
            s = pairs[-1][1]  # touching: [a, s) then [s, e)
        pairs.append((s, e))
    return GestureRanges(ranges=tuple(pairs))


def brute_force_score(starts, outputs, thr, truth):
    """(tp, tn, fp, fn) and the detected flags, one window at a time."""
    tp = tn = fp = fn = 0
    detected = [False] * len(truth)
    for start, out in zip(starts, outputs):
        hits = [j for j, (s, e) in enumerate(truth.ranges) if s <= start < e]
        smoking = out >= thr
        if smoking and hits:
            tp += 1
        elif smoking:
            fp += 1
        elif hits:
            fn += 1
        else:
            tn += 1
        for j in hits:
            detected[j] = detected[j] or smoking
    return (tp, tn, fp, fn), detected


def test_score_trace_brute_force_recount(rng):
    # random ranges at strides 1 to 7, plus ranges whose bounds sit on
    # fileio.BLOCK_ROWS edges of a longer trace
    cases = []
    for _ in range(40):
        n, stride = int(rng.integers(1, 80)), int(rng.choice([1, 2, 3, 7]))
        cases.append((n, stride, random_ranges(rng, n * stride + 4)))
    b = BLOCK_ROWS
    cases.append((3 * b, 1, GestureRanges(ranges=((b - 1, b), (b, 2 * b), (2 * b + 1, 3 * b)))))
    cases.append((b + 2, 3, GestureRanges(ranges=((b - 3, b + 3), (2 * b, 3 * b + 1)))))
    for n, stride, truth in cases:
        outs = rng.uniform(0, 1, n)
        thr = float(rng.uniform(0.2, 0.8))
        trace = DetectionTrace(outputs=outs, stride=stride, threshold=thr)
        report, flags = score_trace(trace, truth)
        counts, detected = brute_force_score(trace.starts.tolist(), outs.tolist(),
                                             thr, truth)
        assert (report.counts.tp, report.counts.tn,
                report.counts.fp, report.counts.fn) == counts
        assert flags == detected


# --- serializations ----------------------------------------------------------

def test_plot_series_alignment(rng, tmp_path):
    rec = make_recording(rng.normal(size=(30, 3)))
    net = tiny_network(10, 2, seed=3)
    trace = detect_session(net, rec, stride=3)
    path = tmp_path / "plot.csv"
    write_plot_csv(trace, rec, path)
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    assert [int(r[0]) for r in rows] == list(range(30))
    assert [float(r[1]) for r in rows] == rec.x.tolist()
    with_output = [r for r in rows if r[4]]
    assert [int(r[0]) for r in with_output] == trace.starts.tolist()
    assert [r[4] for r in with_output] == ["%.10f" % o for o in trace.outputs.tolist()]


def test_plot_csv_format(tmp_path):
    rec = make_recording(np.array([[0.5, -1.0, 0.25], [0.1, 0.2, 0.3]]))
    trace = DetectionTrace(outputs=np.array([0.75]), stride=1, threshold=0.5)
    path = tmp_path / "plot.csv"
    write_plot_csv(trace, rec, path)
    lines = path.read_text().splitlines()
    assert lines == ["i,x,y,z,output", "0,0.5,-1.0,0.25,0.7500000000", "1,0.1,0.2,0.3,"]


def test_trace_csv_format(tmp_path):
    trace = make_trace([True, False], stride=2)
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "start,output,smoking"
    assert lines[1] == "0,0.9000000000,1"
    assert lines[2] == "2,0.1000000000,0"


def test_trace_csv_decides_from_the_exact_outputs(tmp_path):
    # both outputs print as the threshold; the smoking column comes from the
    # exact values, and the report counts both as near the threshold
    trace = DetectionTrace(outputs=np.array([0.5 + 1e-11, 0.5 - 1e-11]), stride=1,
                           threshold=0.5)
    write_trace_csv(trace, tmp_path / "trace.csv")
    lines = (tmp_path / "trace.csv").read_text().splitlines()
    assert lines == ["start,output,smoking", "0,0.5000000000,1", "1,0.5000000000,0"]
    assert trace.near_threshold_windows == 2


def test_near_threshold_means_within_1e_9():
    # 1e-10 and 5e-10 from the threshold are near, 1e-8 either side is not
    trace = DetectionTrace(outputs=np.array([0.5 + 1e-10, 0.5 - 5e-10, 0.5 + 1e-8,
                                             0.5 - 1e-8]), stride=1, threshold=0.5)
    assert trace.near_threshold_windows == 2


def test_ranges_json_roundtrip(tmp_path):
    ranges = GestureRanges(ranges=((3, 9), (20, 31)))
    path = tmp_path / "r.json"
    save_ranges(ranges, path)
    assert load_ranges(path) == ranges
