"""Ingestion, resampling, feature extraction and windowing.

Resampling oracle: a slow pure-Python linear interpolation written
independently of np.interp.
"""

import math
import os
import re
import threading
from typing import Union

import numpy as np
import pytest

from conftest import make_recording, split_into
from smokewatch import signal
from smokewatch.errors import (
    EmptyRecording,
    InvalidSize,
    LengthMismatch,
    MalformedRow,
    NonMonotonicTime,
    SmokewatchError,
)
from smokewatch.signal import (
    CSV_HEADER,
    ChannelMode,
    GestureClass,
    SampleRateWarning,
    SensorRecording,
    extract_features,
    load_recording_csv,
    resample_uniform,
    window_count,
    write_recording_csv,
)
from smokewatch.synth import DEFAULT_PROFILES, SessionKind, generate_sessions


def interp_oracle(ts, vs, at):
    """Piecewise-linear interpolation, one query point at a time."""
    out = []
    for q in at:
        j = 0
        while j + 2 < len(ts) and ts[j + 1] < q:
            j += 1
        t0, t1 = ts[j], ts[j + 1]
        w = (q - t0) / (t1 - t0)
        w = min(max(w, 0.0), 1.0)
        out.append(vs[j] * (1 - w) + vs[j + 1] * w)
    return out


# --- CSV ingestion -----------------------------------------------------------

def load_bytes(data: bytes, tmp_path, **kwargs) -> SensorRecording:
    """load_recording_csv of a file holding data."""
    path = tmp_path / "s.csv"
    path.write_bytes(data)
    return load_recording_csv(path, **kwargs)


def csv_text(rec: SensorRecording, tmp_path) -> str:
    """The text write_recording_csv gives rec."""
    path = tmp_path / "w.csv"
    write_recording_csv(rec, path)
    return path.read_text(encoding="utf-8")


def test_load_csv_roundtrip(rng, tmp_path):
    rec = make_recording(rng.normal(size=(37, 3)), label=GestureClass.COUGH)
    path = tmp_path / "r.csv"
    write_recording_csv(rec, path)
    back = load_recording_csv(path, label=GestureClass.COUGH, device="test")
    assert np.array_equal(back.t, rec.t)
    assert np.array_equal(back.x, rec.x)
    assert np.array_equal(back.y, rec.y)
    assert np.array_equal(back.z, rec.z)
    assert back.label is GestureClass.COUGH


def test_load_csv_three_rows(tmp_path):
    text = "t,x,y,z\n0.0,1,2,3\n0.02,4,5,6\n0.04,7,8,9\n"
    rec = load_bytes(text.encode(), tmp_path)
    assert len(rec) == 3
    assert rec.x[2] == 7.0


def test_load_csv_header_only_is_empty(tmp_path):
    with pytest.raises(EmptyRecording):
        load_bytes(b"t,x,y,z\n", tmp_path)


def test_load_csv_single_row_is_empty(tmp_path):
    with pytest.raises(EmptyRecording):
        load_bytes(b"t,x,y,z\n0.0,1,2,3\n", tmp_path)


def test_load_csv_rejects_bad_header(tmp_path):
    with pytest.raises(MalformedRow):
        load_bytes(b"time,x,y,z\n0,1,2,3\n0.1,1,2,3\n", tmp_path)


def test_load_csv_rejects_non_numeric(tmp_path):
    with pytest.raises(MalformedRow):
        load_bytes(b"t,x,y,z\n0.0,a,2,3\n0.1,1,2,3\n", tmp_path)


def test_load_csv_rejects_wrong_column_count(tmp_path):
    with pytest.raises(MalformedRow):
        load_bytes(b"t,x,y,z\n0.0,1,2\n0.1,1,2\n", tmp_path)


@pytest.mark.parametrize("column", [0, 2], ids=["t", "y"])
@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_load_csv_rejects_non_finite_field(column, bad, tmp_path):
    rows = [[f"{i * 0.02!r}", "0.5", "0.25", "1.0"] for i in range(4)]
    rows[2][column] = bad
    text = "\n".join([CSV_HEADER, *(",".join(r) for r in rows[:2]), "",
                      *(",".join(r) for r in rows[2:])]) + "\n"
    with pytest.raises(MalformedRow, match="^line 5: non-finite field$"):
        load_bytes(text.encode(), tmp_path)


@pytest.mark.parametrize("bad, message", [
    ("0.04,1,2", "line 5: expected 4 columns, got 3"),
    ("0.04,1,2,3,4", "line 5: expected 4 columns, got 5"),
    ("0.04,1,x,3", "line 5: non-numeric field"),
    ("0.04,1,,3", "line 5: non-numeric field"),
])
def test_load_csv_names_the_line_after_a_blank_line(bad, message, tmp_path):
    # rows 2-3, a blank line 4, the bad row on line 5, then a row that is bad
    # the other way, so the first bad line in file order must be the one named
    later = "0.06,1,y,3" if "columns" in message else "0.06,1,2"
    text = "\n".join([CSV_HEADER, "0.0,1,2,3", "0.02,1,2,3", "", bad, later,
                      "0.08,1,2,3"]) + "\n"
    with pytest.raises(MalformedRow, match=f"^{re.escape(message)}$"):
        load_bytes(text.encode(), tmp_path)


def test_load_csv_crlf_equals_lf(rng, tmp_path):
    rec = make_recording(rng.normal(size=(30, 3)))
    lf = csv_text(rec, tmp_path).replace("\n", "\n\n", 1)  # one blank line too
    a = load_bytes(lf.encode("utf-8"), tmp_path)
    b = load_bytes(lf.replace("\n", "\r\n").encode("utf-8"), tmp_path)
    for name in ("t", "x", "y", "z"):
        assert np.array_equal(getattr(a, name), getattr(b, name))
        assert np.array_equal(getattr(a, name), getattr(rec, name))


def load_every_way(text: Union[str, bytes], tmp_path, monkeypatch) -> list:
    """load_recording_csv of a file holding the text (UTF-8 encoded if a
    str) at every read size from 1 to the whole text; each result is the
    (4, n) data or the error's message."""
    def outcome(path):
        try:
            rec = load_recording_csv(path)
        except MalformedRow as exc:
            return f"MalformedRow: {exc}"
        return np.stack([rec.t, rec.x, rec.y, rec.z])

    data = text.encode("utf-8") if isinstance(text, str) else text
    path = tmp_path / "s.csv"
    path.write_bytes(data)
    results = []
    for size in range(1, len(data) + 1):
        monkeypatch.setattr(signal, "READ_CHUNK", size)
        results.append(outcome(path))
    return results


def assert_all(results: list, want) -> None:
    for got in results:
        if isinstance(want, str):
            assert got == want
        else:
            assert np.array_equal(got, want)


@pytest.mark.parametrize("text, line", [
    ("t,x,y,z\n-0.02,0,0,1\n0,0,0,1\n0.02,0,0,1\n", 2),
    ("t,x,y,z\n\n \n-1e-9,0,0,1\n\n0,0,0,1\n", 4),
    ("t,x,y,z\n-0.04,0,0,1\n-0.02,0,0,1\n", 2),
], ids=["first-row", "after-blank-lines", "all-negative"])
def test_load_csv_names_a_negative_first_timestamp(text, line, tmp_path, monkeypatch):
    # the line of the first data row, wherever the reads cut the lines
    # before it; a negative timestamp after a non-negative one is unordered
    assert_all(load_every_way(text, tmp_path, monkeypatch),
               f"MalformedRow: line {line}: negative timestamp")


@pytest.mark.parametrize("bad, later, message", [
    ("0.06,1,2", "0.08,1,y,3", "line 6: expected 4 columns, got 3"),
    ("0.06,1,x,3", "0.08,1,2", "line 6: non-numeric field"),
    ("0.06,nan,2,3", "0.08,inf,2,3", "line 6: non-finite field"),
    # a non-numeric field anywhere is named before a non-finite one
    ("0.06,nan,2,3", "0.08,1,y,3", "line 7: non-numeric field"),
], ids=["columns", "non-numeric", "non-finite", "non-numeric-after-non-finite"])
@pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
def test_load_csv_names_the_same_line_at_every_block_cut(bad, later, message, newline,
                                                         tmp_path, monkeypatch):
    # the read sizes include the cut after the blank lines 4-5, which opens
    # the second block with the bad line 6, and the cut between them
    text = newline.join([CSV_HEADER, "0.0,1,2,3", "0.02,1,2,3", "", "", bad, later,
                         "0.1,1,2,3"]) + newline
    assert_all(load_every_way(text, tmp_path, monkeypatch), f"MalformedRow: {message}")


def test_load_csv_crlf_split_by_a_read_equals_lf(rng, tmp_path, monkeypatch):
    rec = make_recording(rng.normal(size=(5, 3)))
    crlf = csv_text(rec, tmp_path).replace("\n", "\r\n")
    assert_all(load_every_way(crlf, tmp_path, monkeypatch),
               np.stack([rec.t, rec.x, rec.y, rec.z]))


def test_load_csv_last_line_without_newline(tmp_path, monkeypatch):
    text = "t,x,y,z\n0.0,1,2,3\n0.02,4,5,6"
    assert_all(load_every_way(text, tmp_path, monkeypatch),
               np.array([[0.0, 0.02], [1, 4], [2, 5], [3, 6]]))
    assert_all(load_every_way(text + "\n0.04,7,8", tmp_path, monkeypatch),
               "MalformedRow: line 4: expected 4 columns, got 3")


def test_load_csv_decodes_characters_split_by_a_read(tmp_path, monkeypatch):
    # float() reads Arabic-Indic digits (2 bytes in UTF-8) and strips the em
    # space (3 bytes); some read sizes split each of them
    text = "t,x,y,z\n0.0,\u0661.5,2,3\u2003\n\u2003\n0.02,4,\u0665,6\n"
    assert_all(load_every_way(text, tmp_path, monkeypatch),
               np.array([[0.0, 0.02], [1.5, 4], [2, 5], [3, 6]]))


@pytest.mark.parametrize("bad", [b"\xff", b"\xe2\x80A", b"\xe2\x80"],
                         ids=["invalid-start", "invalid-continuation", "truncated"])
def test_load_csv_names_the_byte_offset_of_bytes_not_utf8(bad, tmp_path, monkeypatch):
    # the offset counts from the start of the file at every read size, so the
    # bad bytes fall in the first read and in later ones, some split by a read
    good = "t,x,y,z\n0.0,\u0661,2,3\n0.02,4,5,6\n".encode("utf-8")
    for data in (bad + good, good[:20] + bad + good[20:], good + bad):
        offset = data.index(bad)
        path = tmp_path / "s.csv"
        path.write_bytes(data)
        for size in range(1, len(data) + 1):
            monkeypatch.setattr(signal, "READ_CHUNK", size)
            with pytest.raises(MalformedRow, match=f"^byte {offset}: not UTF-8"):
                load_recording_csv(path)


@pytest.mark.parametrize("data", [
    b"t,x,y,z\n0.0,a,2,3\n0.02,1,2,3\n0.04,\xff,2,3\n0.06,1,2,3\n",
    b"time,x,y,z\n0.0,1,2,3\n0.02,1,2,3\n0.04,\xff,2,3\n",
], ids=["bad-row", "bad-header"])
def test_load_csv_names_bytes_not_utf8_after_an_earlier_fault(data, tmp_path, monkeypatch):
    # the byte comes after a malformed row or header; reads that end before
    # it must not let the earlier fault be named instead
    offset = data.index(b"\xff")
    assert_all(load_every_way(data, tmp_path, monkeypatch),
               f"MalformedRow: byte {offset}: not UTF-8 (invalid start byte)")


# --- CSV ingestion in parts ---------------------------------------------------

def outcome(path):
    """load_recording_csv(path): the (4, n) data or the error's type and
    message."""
    try:
        rec = load_recording_csv(path)
    except SmokewatchError as exc:
        return f"{type(exc).__name__}: {exc}"
    return np.stack([rec.t, rec.x, rec.y, rec.z])


def load_in_parts(data: bytes, parts: int, tmp_path, monkeypatch):
    """outcome() of data from a path, cut into `parts` runs of lines (checked)."""
    path = tmp_path / f"in{parts}.csv"
    path.write_bytes(data)
    with monkeypatch.context() as m:
        split_into(m, parts)
        assert len(signal._line_cuts(path)) == parts + 1
        return outcome(path)


def assert_parts_agree(data: bytes, tmp_path, monkeypatch, parts=(2, 3, 5)):
    """Each split load gives the one-part load's data or error; returns it."""
    want = load_in_parts(data, 1, tmp_path, monkeypatch)
    assert_all([load_in_parts(data, k, tmp_path, monkeypatch) for k in parts], want)
    return want


# 30 rows of one width, so that a fault written over a row moves no cut
ROWS = [f"{k * 0.02:8.4f},0.25,0.50,1.00".encode() for k in range(30)]


def csv_bytes(rows, newline=b"\n", header=CSV_HEADER.encode()) -> bytes:
    return newline.join([header, *rows]) + newline


@pytest.mark.parametrize("data", [
    csv_bytes(ROWS),
    csv_bytes(ROWS, b"\r\n"),
    csv_bytes([b"", *ROWS[:9], b"", b"  ", *ROWS[9:20], b"\t", *ROWS[20:], b""]),
    csv_bytes(ROWS)[:-1],
    csv_bytes(ROWS, b"\r\n")[:-2],
], ids=["lf", "crlf", "blank-lines", "lf-no-last-newline", "crlf-no-last-newline"])
def test_load_csv_in_parts_equals_one_part(data, tmp_path, monkeypatch):
    want = assert_parts_agree(data, tmp_path, monkeypatch)
    assert not isinstance(want, str) and want.shape == (4, 30)


@pytest.mark.parametrize("data, at, cut", [
    # the two-part cut is looked for at offset `at` (half the padded size):
    # on the first of two blank lines, so that each part holds one
    (csv_bytes([*ROWS[:20], b"", b"", *ROWS[20:]]), b"\n\n\n", 1),
    # between the \r and the \n of a line end
    (csv_bytes(ROWS, b"\r\n"), ROWS[20] + b"\r", len(ROWS[20]) + 1),
    # on the \r, which is no line end of its own
    (csv_bytes(ROWS, b"\r\n"), ROWS[20] + b"\r", len(ROWS[20])),
], ids=["blank-line", "between-cr-and-lf", "on-cr"])
def test_load_csv_cut_lands_after_the_next_newline(data, at, cut, tmp_path, monkeypatch):
    at = data.index(at) + cut
    data += b" " * (2 * at - len(data))  # a blank last line without newline
    path = tmp_path / "s.csv"
    path.write_bytes(data)
    split_into(monkeypatch, 2)
    assert signal._line_cuts(path) == [0, data.index(b"\n", at) + 1, None]
    assert_parts_agree(data, tmp_path, monkeypatch, parts=(2,))


@pytest.fixture(scope="module")
def milli_g_xyz():
    """(100,000, 3) samples of synthetic sessions, end to end: on the 1
    milli-g grid, about 26 bytes a row once written."""
    sessions = generate_sessions({SessionKind.SMOKING: 20, SessionKind.EATING: 20},
                                 DEFAULT_PROFILES["watch-a"], 3)
    return np.concatenate([np.stack([r.x, r.y, r.z], axis=1) for _, r, _ in sessions])[:100_000]


def test_milli_g_session_round_trips_in_any_part_count(milli_g_xyz, tmp_path, monkeypatch):
    rec = make_recording(milli_g_xyz)
    path = tmp_path / "s.csv"
    write_recording_csv(rec, path)
    for parts in (1, 2, 3):
        with monkeypatch.context() as m:
            split_into(m, parts)
            assert len(signal._line_cuts(path)) == parts + 1
            got = load_recording_csv(path)
        for name in "txyz":
            assert np.array_equal(getattr(got, name), getattr(rec, name)), (parts, name)


def test_load_part_count_follows_the_rows_at_the_real_part_rows(milli_g_xyz, rng, tmp_path,
                                                                monkeypatch):
    # on 4 CPUs at the real PART_ROWS, whatever the bytes of a row: the
    # 100,000-row milli-g session (about 26 bytes a row) loads in 4 parts,
    # and a 200-row gesture file and a 20,000-row file of full-precision
    # floats (about 64 bytes a row) in one, with no fork
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    full = rng.normal(size=(20_000, 3))
    files = {"session": milli_g_xyz, "gesture": milli_g_xyz[:200], "full": full}
    for name, xyz in files.items():
        write_recording_csv(make_recording(xyz), tmp_path / f"{name}.csv")
    assert (tmp_path / "full.csv").stat().st_size > 60 * 20_000
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(None) or fork())
    for name, xyz in files.items():
        assert np.array_equal(load_recording_csv(tmp_path / f"{name}.csv").z, xyz[:, 2])
        assert len(forks) == 3, name


def test_load_csv_reads_a_named_pipe(rng, tmp_path):
    # a pipe has no size to cut, so it is read in one part to its end
    rec = make_recording(rng.normal(size=(5000, 3)))
    text = csv_text(rec, tmp_path)
    path = tmp_path / "pipe"
    os.mkfifo(path)
    writer = threading.Thread(target=path.write_text, args=(text,), daemon=True)
    writer.start()
    try:
        got = load_recording_csv(path)
    finally:
        writer.join(timeout=10)
    assert not writer.is_alive()
    assert np.array_equal(np.stack([got.t, got.x, got.y, got.z]),
                          np.stack([rec.t, rec.x, rec.y, rec.z]))


def line_at(data: bytes, offset: int) -> int:
    return data[:offset].count(b"\n") + 1


FAULTS = {
    "columns": ("MalformedRow: line {line}: expected 4 columns, got 3",
                lambda row: row[:-5] + b" " * 5),
    "non-numeric": ("MalformedRow: line {line}: non-numeric field",
                    lambda row: row[:-4] + b"1x00"),
    "non-finite": ("MalformedRow: line {line}: non-finite field",
                   lambda row: row[:-4] + b" nan"),
    "not-utf8": ("MalformedRow: byte {byte}: not UTF-8 (invalid start byte)",
                 lambda row: row[:-1] + b"\xff"),
    "negative-first": ("MalformedRow: line {line}: negative timestamp",
                       lambda row: b"%8.4f" % -0.02 + row[8:]),
    "non-monotonic": ("NonMonotonicTime: timestamps must be strictly increasing", None),
}


@pytest.mark.parametrize("spot", ["first-part", "after-cut", "last-part"])
@pytest.mark.parametrize("fault", [*FAULTS, "not-utf8-after-a-row-fault"])
def test_load_csv_in_parts_names_the_one_part_error(fault, spot, tmp_path, monkeypatch):
    # three parts; the fault sits on line 3, on the first line of the second
    # part or on the second line of the last part
    path = tmp_path / "s.csv"
    path.write_bytes(csv_bytes(ROWS))
    with monkeypatch.context() as m:
        split_into(m, 3)
        cuts = signal._line_cuts(path)
    data = csv_bytes(ROWS)
    line = {"first-part": 3, "after-cut": line_at(data, cuts[1]),
            "last-part": line_at(data, cuts[2]) + 1}[spot]
    rows = list(ROWS)
    k = line - 2  # the index in rows of the line
    message, damage = FAULTS[fault.replace("-after-a-row-fault", "")]
    if fault == "non-monotonic":
        rows[k] = rows[k - 1]
    else:
        rows[k] = damage(rows[k])
    if fault == "negative-first":
        rows[:k] = [b" " * len(row) for row in rows[:k]]
    if fault.endswith("after-a-row-fault"):
        rows[k - 1] = FAULTS["non-numeric"][1](rows[k - 1])
    data = csv_bytes(rows)
    assert len(data) == path.stat().st_size
    want = message.format(line=line, byte=data.find(b"\xff"))
    assert assert_parts_agree(data, tmp_path, monkeypatch, parts=(3,)) == want
    whole = tmp_path / "whole.csv"
    whole.write_bytes(data)
    assert outcome(whole) == want


@pytest.mark.parametrize("data, want", [
    (csv_bytes(ROWS, header=b"t,x,y,q"),
     f"MalformedRow: first line must be the header {CSV_HEADER!r}"),
    (csv_bytes(ROWS, header=b"t,x,y,q")[:-1] + b"\xff",
     "MalformedRow: byte 727: not UTF-8 (invalid start byte)"),
    (csv_bytes(ROWS[:1] + [b" " * 8] * 50), "EmptyRecording: need at least 2 data rows, got 1"),
], ids=["bad-header", "bad-header-then-not-utf8", "one-row"])
def test_load_csv_in_parts_names_file_faults(data, want, tmp_path, monkeypatch):
    assert assert_parts_agree(data, tmp_path, monkeypatch) == want


def test_load_csv_rejects_non_monotonic_time(tmp_path):
    text = "t,x,y,z\n0.0,1,2,3\n0.02,1,2,3\n0.02,1,2,3\n"
    with pytest.raises(NonMonotonicTime):
        load_bytes(text.encode(), tmp_path)


def test_load_csv_warns_on_rate_deviation(tmp_path):
    rows = "\n".join(f"{i*0.05},0,0,1" for i in range(10))
    with pytest.warns(SampleRateWarning):
        load_bytes(f"{CSV_HEADER}\n{rows}\n".encode(), tmp_path)


def test_write_csv_uses_roundtrip_floats(tmp_path):
    rec = make_recording(np.array([[0.1, 0.2, 0.3], [1 / 3, 2 / 3, 0.9]]))
    path = tmp_path / "r.csv"
    write_recording_csv(rec, path)
    text = path.read_text()
    assert text.startswith("t,x,y,z\n")
    assert repr(1 / 3) in text
    back = load_recording_csv(path)
    assert np.array_equal(back.x, rec.x)


def test_recording_validation():
    t = np.arange(5) / 50
    ones = np.ones(5)
    with pytest.raises(NonMonotonicTime):
        SensorRecording(t=t[::-1].copy(), x=ones, y=ones, z=ones)
    with pytest.raises(EmptyRecording):
        SensorRecording(t=t[:1], x=ones[:1], y=ones[:1], z=ones[:1])
    with pytest.raises(ValueError):
        SensorRecording(t=t, x=ones * np.nan, y=ones, z=ones)


_T5 = np.arange(5) / 50


@pytest.mark.parametrize("t, y, error, message", [
    (np.r_[np.nan, _T5[1:]], np.ones(5), ValueError,
     "timestamps must be finite and non-negative"),
    (np.r_[-0.02, _T5[1:]], np.ones(5), ValueError,
     "timestamps must be finite and non-negative"),
    (np.r_[_T5[:3], _T5[2:4]], np.ones(5), NonMonotonicTime,
     "timestamps must be strictly increasing"),
    (_T5, np.r_[1.0, 1.0, np.nan, 1.0, 1.0], ValueError, "y values must be finite"),
    (_T5, np.ones(4), LengthMismatch, "t, x, y, z must have identical lengths"),
    (_T5[:1], np.ones(1), EmptyRecording, "a recording needs at least 2 samples"),
], ids=["nan-first-t", "negative-first-t", "repeated-t", "nan-y", "lengths", "one-sample"])
def test_recording_validation_names_each_fault(t, y, error, message):
    # the class and message each fault raised before the checks became
    # ndarray methods
    with pytest.raises(error) as info:
        SensorRecording(t=t, x=np.ones(len(t)), y=y, z=np.ones(len(t)))
    assert type(info.value) is error
    assert str(info.value) == message


# --- resampling --------------------------------------------------------------

def test_resample_constant_signal():
    rec = make_recording(np.full((17, 3), 0.5))
    series = resample_uniform(rec, 200)
    assert series[0].shape == (200,)
    assert np.all(series[0] == 0.5)
    assert np.all(series[2] == 0.5)


def test_resample_two_point_midpoint():
    rec = SensorRecording(t=np.array([0.0, 1.0]), x=np.array([0.0, 1.0]),
                          y=np.array([1.0, 0.0]), z=np.array([0.0, 0.0]))
    series = resample_uniform(rec, 3)
    assert series[0].tolist() == [0.0, 0.5, 1.0]
    assert series[1].tolist() == [1.0, 0.5, 0.0]


def test_resample_identity_on_uniform_input(rng):
    rec = make_recording(rng.normal(size=(200, 3)))
    series = resample_uniform(rec, 200)
    assert np.allclose(series[0], rec.x, rtol=1e-12, atol=0)
    assert np.allclose(series[1], rec.y, rtol=1e-12, atol=0)


def test_resample_preserves_endpoints(rng):
    # non-uniform timestamps, strictly increasing
    t = np.sort(rng.uniform(0, 4, 47))
    t[0], t[-1] = 0.0, 4.0
    t = np.unique(t)
    vals = rng.normal(size=(len(t), 3))
    rec = SensorRecording(t=t, x=vals[:, 0], y=vals[:, 1], z=vals[:, 2])
    series = resample_uniform(rec, 123)
    for got, axis in zip(series, "xyz"):
        ref = getattr(rec, axis)
        assert got[0] == pytest.approx(ref[0], rel=1e-12)
        assert got[-1] == pytest.approx(ref[-1], rel=1e-12)


def test_resample_matches_slow_oracle(rng):
    for _ in range(20):
        m = int(rng.integers(2, 40))
        t = np.cumsum(rng.uniform(0.01, 0.1, m))
        vals = rng.normal(size=(m, 3))
        rec = SensorRecording(t=t, x=vals[:, 0], y=vals[:, 1], z=vals[:, 2])
        n = int(rng.integers(2, 50))
        series = resample_uniform(rec, n)
        at = np.linspace(t[0], t[-1], n)
        expect = interp_oracle(t.tolist(), vals[:, 0].tolist(), at)
        assert np.allclose(series[0], expect, rtol=1e-10, atol=1e-12)


def test_resample_validates_sizes():
    rec = make_recording(np.zeros((5, 3)))
    with pytest.raises(InvalidSize):
        resample_uniform(rec, 1)


# --- feature extraction ------------------------------------------------------

def _series(x, y, z):
    return (np.asarray(x, float), np.asarray(y, float), np.asarray(z, float))


def test_extract_single_axes(rng):
    vals = rng.normal(size=(200, 3))
    s = _series(vals[:, 0], vals[:, 1], vals[:, 2])
    assert np.array_equal(extract_features(s, ChannelMode.X), vals[:, 0])
    assert np.array_equal(extract_features(s, ChannelMode.Y), vals[:, 1])
    assert np.array_equal(extract_features(s, ChannelMode.Z), vals[:, 2])


def test_extract_xyz_concatenation_order(rng):
    vals = rng.normal(size=(200, 3))
    s = _series(vals[:, 0], vals[:, 1], vals[:, 2])
    v = extract_features(s, ChannelMode.XYZ)
    assert v.shape == (600,)
    assert np.array_equal(v[0:200], vals[:, 0])
    assert np.array_equal(v[200:400], vals[:, 1])
    assert np.array_equal(v[400:600], vals[:, 2])


def test_extract_avg_constant():
    s = _series(np.ones(200), np.full(200, 2.0), np.full(200, 3.0))
    v = extract_features(s, ChannelMode.AVG)
    assert np.all(v == 2.0)


def test_extract_avg_elementwise(rng):
    vals = rng.normal(size=(64, 3))
    s = _series(vals[:, 0], vals[:, 1], vals[:, 2])
    v = extract_features(s, ChannelMode.AVG)
    expect = (vals[:, 0] + vals[:, 1] + vals[:, 2]) / 3
    assert np.max(np.abs(v - expect)) <= 1e-15


def test_mode_feature_length(rng):
    for n in (200, 128):
        s = _series(*rng.normal(size=(3, n)))
        lengths = {m: len(extract_features(s, m)) for m in ChannelMode}
        assert lengths == {m: 3 * n if m is ChannelMode.XYZ else n for m in ChannelMode}
        # detect and eval size their inputs by signal_count
        assert all(lengths[m] == m.signal_count * n for m in ChannelMode)


def test_mode_and_class_parsing():
    assert ChannelMode.parse("xyz") is ChannelMode.XYZ
    assert GestureClass.parse("Nose_Scratch") is GestureClass.NOSE_SCRATCH
    with pytest.raises(ValueError):
        ChannelMode.parse("XZ")
    with pytest.raises(ValueError):
        GestureClass.parse("sneeze")


# --- windowing ---------------------------------------------------------------

def brute_window_count(length, width, stride):
    count = 0
    start = 0
    while start + width <= length:
        count += 1
        start += stride
    return count


def test_window_count_examples():
    assert window_count(200, 200, 1) == 1
    assert window_count(1000, 200, 1) == 801
    assert window_count(1000, 200, 10) == 81
    assert window_count(199, 200, 1) == 0


def test_window_count_matches_brute_force(rng):
    for _ in range(300):
        length = int(rng.integers(0, 500))
        width = int(rng.integers(2, 60))
        stride = int(rng.integers(1, 9))
        assert window_count(length, width, stride) == \
            brute_window_count(length, width, stride)

