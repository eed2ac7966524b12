"""Rolling-window detection: trace construction, truth labeling, scoring
against ground-truth ranges, and the plot/trace serializations."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from conftest import make_recording, tiny_network
from oracles import forward
from smokewatch import detect, mlp
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
    InvalidSize,
    InvalidThreshold,
    MalformedRanges,
    SessionTooShort,
)
from smokewatch.fileio import BLOCK_ROWS
from smokewatch.signal import ALL_MODES, ChannelMode, window_count


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
@pytest.mark.parametrize("mode", ALL_MODES, ids=lambda m: m.value)
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
    (mode, width) for mode in ALL_MODES for width in (1, 7, 50, 200)
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


@pytest.mark.parametrize("mode", ALL_MODES, ids=lambda m: m.value)
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
    assert [float(r[4]) for r in with_output] == trace.outputs.tolist()


def test_plot_csv_format(tmp_path):
    rec = make_recording(np.array([[0.5, -1.0, 0.25], [0.1, 0.2, 0.3]]))
    trace = DetectionTrace(outputs=np.array([0.75]), stride=1, threshold=0.5)
    path = tmp_path / "plot.csv"
    write_plot_csv(trace, rec, path)
    lines = path.read_text().splitlines()
    assert lines == ["i,x,y,z,output", "0,0.5,-1.0,0.25,0.75", "1,0.1,0.2,0.3,"]


def test_trace_csv_format(tmp_path):
    trace = make_trace([True, False], stride=2)
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "start,output,smoking"
    assert lines[1] == "0,0.9,1"
    assert lines[2] == "2,0.1,0"


def test_ranges_json_roundtrip(tmp_path):
    ranges = GestureRanges(ranges=((3, 9), (20, 31)))
    path = tmp_path / "r.json"
    save_ranges(ranges, path)
    assert load_ranges(path) == ranges
