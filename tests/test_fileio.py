"""Atomic writes and the block-formatted CSV writers.

Writer oracle: the one-shot formatting of each CSV, one f-string per row
joined into a single text, written here independently of the writers' block
loop. The output formatter's oracle is the exact binary value of each output
rounded half-even by `decimal`."""

import contextlib
import os
import stat
import warnings
from decimal import ROUND_HALF_EVEN, Decimal
from pathlib import Path

import numpy as np
import pytest

from conftest import make_recording
from smokewatch import fileio
from smokewatch.detect import DetectionTrace, write_plot_csv, write_trace_csv
from smokewatch.errors import InvalidSample, InvalidSize, LengthMismatch
from smokewatch.fileio import BLOCK_ROWS, atomic_open, atomic_write_text
from smokewatch.signal import write_recording_csv


def mode_of(path) -> int:
    return stat.S_IMODE(os.stat(path).st_mode)


def test_atomic_writes_get_the_mode_of_a_plain_open(tmp_path):
    with open(tmp_path / "plain.txt", "w") as fh:
        fh.write("x")
    atomic_write_text(tmp_path / "text.txt", "x")
    with atomic_open(tmp_path / "chunks.txt") as fh:
        fh.writelines(iter(["x", "y"]))
    assert mode_of(tmp_path / "text.txt") == mode_of(tmp_path / "plain.txt")
    assert mode_of(tmp_path / "chunks.txt") == mode_of(tmp_path / "plain.txt")
    assert (tmp_path / "chunks.txt").read_text() == "xy"


def test_atomic_writes_follow_a_umask_set_after_import(tmp_path):
    # the umask in force at each write decides the mode, not the one in force
    # when fileio was imported
    old = os.umask(0o077)
    try:
        with open(tmp_path / "plain.txt", "w") as fh:
            fh.write("x")
        atomic_write_text(tmp_path / "text.txt", "x")
        with atomic_open(tmp_path / "chunks.txt") as fh:
            fh.write("x")
    finally:
        os.umask(old)
    assert mode_of(tmp_path / "plain.txt") == 0o600
    assert mode_of(tmp_path / "text.txt") == mode_of(tmp_path / "plain.txt")
    assert mode_of(tmp_path / "chunks.txt") == mode_of(tmp_path / "plain.txt")


def test_atomic_open_failure_leaves_the_target_alone(tmp_path):
    target = tmp_path / "t.csv"
    target.write_text("old\n")

    def chunks():
        yield "new\n"
        raise RuntimeError("formatting failed")

    with pytest.raises(RuntimeError), atomic_open(target) as fh:
        fh.writelines(chunks())
    assert target.read_text() == "old\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["t.csv"]


def test_atomic_writes_make_a_missing_directory_only(tmp_path, monkeypatch):
    # a write into a directory that exists calls no os.mkdir; one into a
    # missing nested directory makes every level of it
    atomic_write_text(tmp_path / "one" / "two" / "t.txt", "x")
    assert (tmp_path / "one" / "two" / "t.txt").read_text() == "x"
    made = []
    mkdir = os.mkdir
    monkeypatch.setattr(os, "mkdir", lambda *args, **kw: made.append(args[0]) or mkdir(*args, **kw))
    atomic_write_text(tmp_path / "one" / "two" / "t.txt", "y")
    with atomic_open(tmp_path / "u.txt") as fh:
        fh.write("z")
    assert made == []
    assert (tmp_path / "one" / "two" / "t.txt").read_text() == "y"
    atomic_write_text(tmp_path / "three" / "four" / "t.txt", "w")
    assert set(made) == {tmp_path / "three", tmp_path / "three" / "four"}
    assert sorted(p.name for p in tmp_path.iterdir()) == ["one", "three", "u.txt"]


# BLOCK_ROWS in the writer oracle, small enough for 6 blocks on a short session
B = 16


def assert_writers_equal_one_shot_formatting(rec, n, stride, draw, tmp_path,
                                            monkeypatch):
    """The recording, trace and plot CSVs of rec equal plain `repr` text,
    but for the output column, which equals `"%.10f" % o`.

    The session has max(n, 2) rows (a recording needs 2) and windows start
    at 0, stride, 2*stride, ... below n, with draw(k) as the outputs of k
    windows; strides of B - 1 and B put a window on the last and on the
    first row of a block, and one of B + 1 leaves blocks with no window. The
    trace and plot CSVs are written alone and together.
    """
    monkeypatch.setattr(fileio, "BLOCK_ROWS", B)
    t, x, y, z = (a.tolist() for a in (rec.t, rec.x, rec.y, rec.z))
    want_recording = "\n".join(["t,x,y,z"] + [
        f"{a!r},{b!r},{c!r},{d!r}" for a, b, c, d in zip(t, x, y, z)]) + "\n"
    write_recording_csv(rec, tmp_path / "r.csv")
    assert (tmp_path / "r.csv").read_bytes() == want_recording.encode()

    starts = list(range(0, n, stride))
    trace = DetectionTrace(outputs=draw(len(starts)), stride=stride, threshold=0.5)
    outputs = dict(zip(starts, trace.outputs.tolist()))
    want_trace = "\n".join(["start,output,smoking"] + [
        f"{i},{'%.10f' % o},{int(o >= 0.5)}" for i, o in outputs.items()]) + "\n"
    want_plot = "\n".join(["i,x,y,z,output"] + [
        f"{i},{b!r},{c!r},{d!r},{'%.10f' % outputs[i] if i in outputs else ''}"
        for i, (b, c, d) in enumerate(zip(x, y, z))]) + "\n"

    write_trace_csv(trace, tmp_path / "t.csv")
    write_plot_csv(trace, rec, tmp_path / "p.csv")
    write_trace_csv(trace, tmp_path / "t2.csv", rec, tmp_path / "p2.csv")
    for name, want in (("t", want_trace), ("p", want_plot),
                       ("t2", want_trace), ("p2", want_plot)):
        assert (tmp_path / f"{name}.csv").read_bytes() == want.encode(), name


@pytest.mark.parametrize("stride", [1, 3, B - 1, B, B + 1])
@pytest.mark.parametrize("n", [0, 1, B - 1, B, B + 1, 5 * B + 3])
def test_writers_equal_one_shot_formatting(n, stride, tmp_path, monkeypatch):
    # full-precision samples and outputs: every value is distinct
    rng = np.random.default_rng(n)
    rec = make_recording(rng.normal(size=(max(n, 2), 3)))
    assert_writers_equal_one_shot_formatting(rec, n, stride, lambda k: rng.uniform(0, 1, k),
                                             tmp_path, monkeypatch)


@pytest.mark.parametrize("stride", [1, 3, B - 1, B, B + 1])
@pytest.mark.parametrize("n", [0, 1, B - 1, B, B + 1, 5 * B + 3])
def test_writers_equal_one_shot_formatting_on_the_milli_g_grid(n, stride, tmp_path,
                                                               monkeypatch):
    # samples of a few milli-g on the 1 milli-g grid, as synth writes them:
    # a few dozen distinct values, each repeated within a block and across
    # blocks, with -0.0 (from rounding, and planted every 5 rows) next to
    # 0.0; the outputs lie on a 0.1 grid, with -0.0 and 0.0 planted too
    rng = np.random.default_rng(n)
    values = np.round(rng.normal(0.0, 0.004, size=(max(n, 2), 3)), 3)
    values[::5], values[1::5] = -0.0, 0.0
    rec = make_recording(values)

    def outputs(k: int) -> np.ndarray:
        out = np.round(rng.uniform(0, 1, k), 1)
        out[::7], out[1::7] = -0.0, 0.0
        return out

    assert_writers_equal_one_shot_formatting(rec, n, stride, outputs, tmp_path, monkeypatch)


def repr_rows(*columns: np.ndarray) -> str:
    """One row per index of the columns: each value's plain `repr`, joined
    by commas and ended by a newline."""
    return "".join(",".join(map(repr, row)) + "\n"
                   for row in zip(*(c.tolist() for c in columns)))


@pytest.mark.parametrize("values", [
    [-0.0, 0.0, 0.0, -0.0],
    [5e-324, -5e-324, 2.2250738585072014e-308, 1e-310, 1e308, -1e308, -0.0, 0.0],
    np.round(np.random.default_rng(3).normal(0.0, 0.004, 5000), 3),
    [0.1],
    [],
    # repr's switch points to and from an exponent, each with its neighbours
    [1e16, -1e16, np.nextafter(1e16, 0), np.nextafter(1e-5, 0), 1e-5,
     np.nextafter(1e-5, 1), -1e-5, np.finfo(np.float64).max, -np.finfo(np.float64).max],
], ids=["signed-zeros", "extremes", "repeats", "one", "empty", "switch-points"])
def test_repr_chars_equal_plain_repr(values):
    v = np.array(values, dtype=np.float64)
    assert fileio.csv_block(fileio.repr_chars([v])) == repr_rows(v)
    # a column of a row-major array, as the benchmark's sessions are
    column = np.stack([v, -v]).T[:, 1]
    assert fileio.csv_block(fileio.repr_chars([column])) == repr_rows(column)
    # the plot's fields share one repr per distinct value of the block
    assert fileio.csv_block(fileio.repr_chars([v, column, v[::-1]])) == repr_rows(
        v, column, v[::-1])
    # and a recording block's four, with a strictly increasing t of
    # full-precision gaps next to them, as the recording writer makes it
    t = np.cumsum(np.random.default_rng(4).uniform(0.015, 0.025, len(v)))
    assert np.all(np.diff(t) > 0)
    assert fileio.csv_block(fileio.repr_chars([t, v, column, v[::-1]])) == repr_rows(
        t, v, column, v[::-1])


def counted_reprs(monkeypatch) -> list[float]:
    """Make `fileio`'s `repr` the builtin one that records each value it is
    called on, in a list it returns."""
    calls = []
    monkeypatch.setattr(fileio, "repr", lambda v: calls.append(v) or repr(v), raising=False)
    return calls


EDGE_OF_GRID = [-0.0, 0.0, 1e-4, -1e-4, 99999999999.9999, -99999999999.9999, 0.1, 1.0]
GRID_BLOCKS = {
    # k / 10**4 for |k| below each power of ten up to 10**15: every width of
    # the whole part, and fractions of one to four decimals
    "k_over_1e4": np.concatenate(
        [np.random.default_rng(e).integers(-10**e + 1, 10**e, 40_000) / 1e4
         for e in range(16)] + [np.array([-(10**15 - 1), 10**15 - 1]) / 1e4]),
    # 50 Hz timestamps, k / 50, up to one day
    "timestamps": np.arange(0, 86_400 * 50 + 1, 17) / 50,
    # samples of a few g on the 1 milli-g grid, as synth rounds them
    "milli_g": np.round(np.random.default_rng(8).normal(0.0, 2.0, 100_000) * 1000) / 1000,
    "edges": np.array(EDGE_OF_GRID),
    "empty": np.array([]),
}


@pytest.mark.parametrize("name", list(GRID_BLOCKS))
def test_grid_blocks_equal_plain_repr_without_calling_it(name, monkeypatch):
    # the cases hold over 10**6 values together
    v = GRID_BLOCKS[name]
    calls = counted_reprs(monkeypatch)
    assert fileio.csv_block(fileio.repr_chars([v])) == repr_rows(v)
    # a recording block's four columns, the last a row-major array's column
    w = v[::4]
    cols = [w, -w, w[::-1], np.stack([w, -w]).T[:, 0]]
    assert fileio.csv_block(fileio.repr_chars(cols)) == repr_rows(*cols)
    assert calls == []


@pytest.mark.parametrize("odd", [
    np.nextafter(0.1, 1.0), np.nextafter(99999999999.9999, 0.0), 5e-5, 1e11,
    # the double nearest 876861030114.8979, whose repr has 15 digits
    8768610301148979 / 1e4,
    np.inf, -np.inf, np.nan, np.finfo(np.float64).max, -np.finfo(np.float64).max,
], ids=["nextafter", "nextafter_top", "half_step", "1e11", "16_digits", "inf", "-inf", "nan",
        "max", "-max"])
def test_one_value_off_the_grid_takes_the_block_off_it(odd, monkeypatch):
    rng = np.random.default_rng(9)
    v = np.concatenate([EDGE_OF_GRID, rng.integers(-10**8, 10**8, 2000) / 1e4])
    cols = [v, -v, v[::-1], v[::-1].copy()]
    cols[3][rng.integers(len(v))] = odd
    calls = counted_reprs(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = fileio.csv_block(fileio.repr_chars(cols))
    assert got == repr_rows(*cols)
    # one repr per distinct value of the block
    assert len(calls) == len(np.unique(np.concatenate(cols).view(np.int64)))


def printed_outputs(values: np.ndarray) -> list[str]:
    """The text `fileio.output_chars` gives each value, one line each."""
    return fileio.csv_block([fileio.output_chars(values)]).split("\n")[:-1]


def exact_outputs(values: np.ndarray) -> list[str]:
    """Each value's exact binary value rounded half-even to 10 decimals."""
    return [format(Decimal(o).quantize(Decimal("1e-10"), ROUND_HALF_EVEN), "f")
            for o in values.tolist()]


def near(values, ulps: int = 1) -> np.ndarray:
    """Each of values and its neighbours up to `ulps` floats away."""
    v = np.asarray(values, dtype=np.float64)
    out = [v]
    lo = hi = v
    for _ in range(ulps):
        lo, hi = np.nextafter(lo, -1.0), np.nextafter(hi, 2.0)
        out += [lo, hi]
    return np.concatenate(out)


def in_the_domain(values: np.ndarray) -> np.ndarray:
    return values[(values >= 0.0) & (values <= 1.0)]


@pytest.mark.parametrize("values", [
    np.random.default_rng(4).uniform(0, 1, 400_000),
    # k / 2**34 has at most 34 binary places: v * 1e10 = k * 5**10 / 2**24
    # has a fraction of .5 (a tie) for k an odd multiple of 2**23, and many
    # other short fractions; k / 2048 for odd k has 11 decimals ending in 5
    np.arange(0, 2**34 + 1, 2**34 // 200_000 + 1) / 2**34,
    np.arange(0, 2**34, 2**23) / 2**34,
    np.arange(0, 2049) / 2048,
    # v = (k + 1/2) / 1e10 rounded to a float: a hair off a tie either way
    near((np.random.default_rng(5).integers(0, 10**10, 100_000) + 0.5) / 1e10),
    np.random.default_rng(6).integers(0, 10**10 + 1, 100_000) / 1e10,
    # tiny and subnormal outputs print as 0, around 5e-11 as 0 or 1e-10
    in_the_domain(near([5e-324, 1e-310, 2.2250738585072014e-308, 1e-300, 1e-11, 5e-11], 3)),
    np.exp(-np.random.default_rng(7).uniform(0, 700, 100_000)),
    # around 0.99999999995 as 0.9999999999 or 1.0000000000
    in_the_domain(near([0.99999999995, 0.99999999985, 0.5, 0.50000000005, 1.0], 3)),
    np.array([0.0, -0.0, 1.0, np.nextafter(1.0, 0.0)]),
    np.array([]),
], ids=["uniform", "k_over_2_34", "k_over_2_34_ties", "ties", "near_ties", "ten_decimals",
        "subnormal", "log_uniform", "near_rounding_edges", "edges", "empty"])
def test_output_chars_round_the_exact_value_half_even(values):
    # the cases hold over 10**6 values together
    want = exact_outputs(values)
    assert printed_outputs(values) == want
    # a column of a row-major array, as a block of a longer trace is a view
    column = np.stack([values, -values]).T[:, 0]
    assert printed_outputs(column) == want


def test_output_chars_print_a_tie_to_even():
    # 1/2048 = 0.00048828125 and 3/2048 = 0.00146484375 exactly
    assert printed_outputs(np.array([1, 3]) / 2048) == ["0.0004882812", "0.0014648438"]
    assert printed_outputs(np.array([-0.0, 1.0])) == ["-0.0000000000", "1.0000000000"]


def test_digit_chars_equal_str_at_every_width():
    # 10**k - 1 and 10**k on either side of each width, up to 10**11: past
    # the switch from int32 to int64 digits at 10 digits
    values = np.array([0] + [v for k in range(1, 12) for v in (10**k - 1, 10**k)])
    got = fileio.csv_block([fileio.digit_chars(values), fileio.digit_chars(values[::-1])])
    assert got == "".join(f"{a},{b}\n" for a, b in zip(values.tolist(), values[::-1].tolist()))
    # each prefix's largest value sets the field's width
    for k in range(len(values)):
        assert fileio.csv_block([fileio.digit_chars(values[:k + 1])]).split() == \
            list(map(str, values[:k + 1].tolist()))
    assert fileio.digit_chars(np.arange(0)).shape == (0, 1)


def test_a_plot_past_its_last_window_keeps_every_row(tmp_path):
    # two windows on a session of several blocks: the blocks after the
    # first hold no window and print every row with an empty output
    rec = make_recording(np.zeros((3 * BLOCK_ROWS + 5, 3)))
    trace = DetectionTrace(outputs=[0.25, 0.75], stride=2, threshold=0.5)
    write_plot_csv(trace, rec, tmp_path / "p.csv")
    rows = (tmp_path / "p.csv").read_text().splitlines()[1:]
    assert rows == ["0,0.0,0.0,0.0,0.2500000000", "1,0.0,0.0,0.0,",
                    "2,0.0,0.0,0.0,0.7500000000"] + [
        f"{i},0.0,0.0,0.0," for i in range(3, len(rec))]


class FailingFile:
    """A text file whose writes fail after the first `allowed` ones."""

    def __init__(self, fh, allowed: int):
        self.fh, self.allowed = fh, allowed

    def write(self, text: str) -> None:
        if self.allowed == 0:
            raise OSError("disk full")
        self.allowed -= 1
        self.fh.write(text)


@pytest.mark.parametrize("allowed", [0, 2], ids=["header", "second_block"])
def test_a_failing_plot_write_replaces_neither_file(allowed, tmp_path, monkeypatch):
    # the plot write fails once the trace's temp file holds rows; both
    # targets keep their old text and no temp file is left
    monkeypatch.setattr(fileio, "BLOCK_ROWS", 4)
    rec = make_recording(np.arange(30.0).reshape(10, 3))
    trace = DetectionTrace(outputs=np.linspace(0, 1, 8), stride=1, threshold=0.5)
    (tmp_path / "t.csv").write_text("old trace\n")
    (tmp_path / "p.csv").write_text("old plot\n")

    @contextlib.contextmanager
    def failing_plot_open(path):
        with atomic_open(path) as fh:  # this module's binding: the original
            yield FailingFile(fh, allowed) if Path(path).name == "p.csv" else fh

    monkeypatch.setattr(fileio, "atomic_open", failing_plot_open)
    with pytest.raises(OSError, match="disk full"):
        write_trace_csv(trace, tmp_path / "t.csv", rec, tmp_path / "p.csv")
    assert (tmp_path / "t.csv").read_text() == "old trace\n"
    assert (tmp_path / "p.csv").read_text() == "old plot\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["p.csv", "t.csv"]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -5e-324, np.nextafter(1.0, 2.0)])
def test_trace_rejects_an_output_outside_0_to_1(bad):
    # the domain of fileio.output_chars; -0.0 and 1.0 lie inside it
    with pytest.raises(InvalidSample):
        DetectionTrace(outputs=[0.5, bad], stride=1, threshold=0.5)
    trace = DetectionTrace(outputs=[-0.0, 0.0, 1.0], stride=1, threshold=0.5)
    assert np.signbit(trace.outputs).tolist() == [True, False, False]


def test_trace_rejects_a_stride_below_1_and_2d_outputs():
    # window k starts at k * stride, so a stride below 1 would give repeated
    # or negative starts
    for stride in (0, -1):
        with pytest.raises(InvalidSize):
            DetectionTrace(outputs=np.zeros(3), stride=stride, threshold=0.5)
    with pytest.raises(LengthMismatch):
        DetectionTrace(outputs=np.zeros((2, 3)), stride=1, threshold=0.5)


def test_plot_rejects_windows_past_the_session(tmp_path):
    rec = make_recording(np.zeros((5, 3)))
    trace = DetectionTrace(outputs=[0.1, 0.2], stride=5, threshold=0.5)
    with pytest.raises(LengthMismatch):
        write_plot_csv(trace, rec, tmp_path / "p.csv")
    assert not (tmp_path / "p.csv").exists()
