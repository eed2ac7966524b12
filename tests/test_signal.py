"""Ingestion, resampling, feature extraction and windowing.

Resampling oracle: a slow pure-Python linear interpolation written
independently of np.interp.
"""

import io
import math
import re
import warnings
from typing import Union

import numpy as np
import pytest

from conftest import make_recording, malformed_session, through_a_pipe
from oracles import reference_load
from smokewatch import signal
from smokewatch.errors import (
    EmptyRecording,
    InvalidSample,
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
    # before it
    assert_all(load_every_way(text, tmp_path, monkeypatch),
               f"MalformedRow: line {line}: negative timestamp")


@pytest.mark.parametrize("bad, later, message", [
    ("0.06,1,2", "0.08,1,y,3", "line 6: expected 4 columns, got 3"),
    ("0.06,1,x,3", "0.08,1,2", "line 6: non-numeric field"),
    ("0.06,nan,2,3", "0.08,inf,2,3", "line 6: non-finite field"),
    # the first malformed line is named, whatever the fault of a later one
    ("0.06,nan,2,3", "0.08,1,y,3", "line 6: non-finite field"),
    # a negative timestamp after a good row is malformed, not unordered
    ("-0.06,1,2,3", "0.08,1,y,3", "line 6: negative timestamp"),
], ids=["columns", "non-numeric", "non-finite", "non-finite-before-non-numeric",
        "negative-after-a-row"])
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


def odd_csv(odd: str, newline: str = "\n", tail: str = "0.06,1,2,3") -> str:
    """A CSV whose third line is `odd`, then a good row and `tail`, the
    last line: a bad tail shows, by its line number, how the lines before it
    were counted."""
    return newline.join([CSV_HEADER, "0.0,1,2,3", odd, "0.04,7,8,9", tail]) + newline


# The line ends of str.splitlines() other than \n, \r and \r\n
SPLITLINES_ENDS = {"vt": "\x0b", "ff": "\x0c", "fs": "\x1c", "gs": "\x1d", "rs": "\x1e",
                   "nel": "\x85", "ls": "\u2028", "ps": "\u2029"}

# Inputs that float() and numpy's reader, or str.splitlines() and numpy's
# line ends, may read two ways
ODD_LINES = {
    **{f"{name}-{where}": row
       for name, ch in SPLITLINES_ENDS.items()
       for where, row in [("inside", f"0.02,4,5{ch},6"), ("at-end", f"0.02,4,5,6{ch}")]},
    "nul": "0.02,4,5,6\x00",
    "underscore": "0.02,1_0,5,6",
    "hash": "0.02,4,5,6#",
    "hash-field": "0.02,4,#,6",
    "quoted": '0.02,"4",5,6',
    "trailing-comma": "0.02,4,5,6,",
    "whitespace-only": "   ",
    "tab-only": "\t",
    "1e400": "0.02,1e400,5,6",
    "negative-zero": "0.02,-0.0,-0.0,6",
    "dot5": "0.02,.5,5.,6",
    "infinity": "0.02,Infinity,5,6",
    "hex": "0.02,0x10,5,6",
    "padded": "0.02, 1.5 ,\t5\t,6 ",
    "unit-separator-inside": "0.02,\x1f4,5,6",
    "unit-separator-at-end": "0.02,4,5,6\x1f",
}


def plain_outcome(text: str, tmp_path, monkeypatch):
    """load_every_way's result for the whole text in one read, with every
    block parsed by _plain_rows, the reference parse."""
    with monkeypatch.context() as m:
        m.setattr(signal, "_fast_rows", lambda text: None)
        return load_every_way(text, tmp_path, m)[-1]


def assert_same_outcome(got, want) -> None:
    """The same message, or the same arrays bit for bit (-0.0 is not 0.0)."""
    if isinstance(want, str) or isinstance(got, str):
        assert isinstance(got, str) and got == want, (got, want)
    else:
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.filterwarnings("ignore::smokewatch.signal.SampleRateWarning")
@pytest.mark.parametrize("tail", ["0.06,1,2,3", "0.06,1,2"], ids=["good-tail", "bad-tail"])
@pytest.mark.parametrize("text", [
    *(odd_csv(row) for row in ODD_LINES.values()),
    odd_csv("0.02,4,5,6", "\r"),
    odd_csv("0.02,4,5,6", "\r\n"),
    odd_csv("", "\r\n"),
    odd_csv("0.02,4,5,6\r", "\r\n"),
], ids=[*ODD_LINES, "cr", "crlf", "crlf-blank-line", "cr-crlf"])
def test_load_csv_reader_equals_the_plain_parse(text, tail, tmp_path, monkeypatch):
    # every block goes to numpy's reader unless it is refused, at every read
    # size, and must give what the float() parse of every block gives
    text = text.replace("0.06,1,2,3", tail)
    want = plain_outcome(text, tmp_path, monkeypatch)
    for got in load_every_way(text, tmp_path, monkeypatch):
        assert_same_outcome(got, want)


@pytest.mark.filterwarnings("ignore::smokewatch.signal.SampleRateWarning")
@pytest.mark.parametrize("text", [
    odd_csv("0.02,4,5,6"),
    odd_csv("0.02,4,5,6", "\r\n"),
    odd_csv("0.02,4,5,6", "\r"),
    odd_csv(ODD_LINES["negative-zero"]),
    odd_csv(ODD_LINES["dot5"]),
    odd_csv(ODD_LINES["padded"]),
    "t,x,y,z\n\n\n\n0,1,2,3\n0.02,1,2,3\n",
    odd_csv(ODD_LINES["whitespace-only"]),
    "t,x,y,z\r\n \t\r\n0,1,2,3\r\n\t\r\n0.02,1,2,3\r\n  ",
], ids=["lf", "crlf", "cr", "negative-zero", "dot5", "padded", "blank-lines",
        "whitespace-only", "whitespace-lines-crlf"])
def test_load_csv_reads_ascii_rows_with_numpy(text, tmp_path, monkeypatch):
    # no block of these needs the plain parse but a blank one
    def plain_rows(lines, first):
        assert not "".join(lines).strip(), lines
        return np.empty((0, 4))

    want = plain_outcome(text, tmp_path, monkeypatch)
    monkeypatch.setattr(signal, "_plain_rows", plain_rows)
    for got in load_every_way(text, tmp_path, monkeypatch):
        assert_same_outcome(got, want)


def outcome(path):
    """load_recording_csv(path): the (4, n) data or the error's type and
    message."""
    try:
        rec = load_recording_csv(path)
    except SmokewatchError as exc:
        return f"{type(exc).__name__}: {exc}"
    return np.stack([rec.t, rec.x, rec.y, rec.z])


def load_file(text: str, path) -> Union[tuple, str]:
    """outcome() of a file holding the header line and text, with the data
    as its shape and bytes."""
    path.write_bytes(f"{CSV_HEADER}\n{text}".encode())
    got = outcome(path)
    return got if isinstance(got, str) else (got.shape, got.tobytes())


@pytest.mark.filterwarnings("ignore::smokewatch.signal.SampleRateWarning")
@pytest.mark.parametrize("row", [
    "{c}1,1,2,3", "1{c},1,2,3", "1,1{c}5,2,3", "1,1,2,3{c}", "1, {c}1,2,3", "1,{c}.5,2,3",
    "1,1e{c}5,2,3", "1,1,2,{c}", "{c}", "{c}{c}",
])
@pytest.mark.parametrize("newline, end", [("\n", "\n"), ("\r\n", "\r\n"), ("\r", "\r"),
                                          ("\n", "")],
                         ids=["lf", "crlf", "cr", "no-last-newline"])
def test_load_csv_equals_the_plain_parse_for_every_ascii_character(row, newline, end,
                                                                   tmp_path, monkeypatch):
    # a file of the header, a blank line, a good line, the row with one ASCII
    # character set into it and a good line, alone and then with a bad last
    # line: its arrays, or its error (so, by the line it names, its line
    # count), are those of the plain parse, whether numpy reads it or not.
    # The row's timestamp (1 to 91) lies between those of the good lines, so
    # every row that parses gives a recording and its arrays are compared
    texts = [newline.join(["", "0,1,2,3", row.format(c=chr(code)), "100,5,6,7", *tail]) + end
             for code in range(128) for tail in ([], ["8,9"])]
    assert any(signal._fast_rows(text.splitlines()) is not None for text in texts)
    path = tmp_path / "s.csv"
    got = [load_file(text, path) for text in texts]
    assert any(not isinstance(outcome, str) for outcome in got)
    assert any(isinstance(outcome, str) and outcome.startswith("MalformedRow: line 6:")
               for outcome in got)
    monkeypatch.setattr(signal, "_fast_rows", lambda text: None)
    for text, outcome in zip(texts, got):
        assert outcome == load_file(text, path), repr(text)


# Text that splitlines(), float() or numpy's reader may read otherwise, a
# digit that may unorder the timestamps, and bytes that are not UTF-8: a
# fuzzed file gets one to three of them, each inserted or written over one
# byte
FUZZ_PIECES = [b"x", b",", b"\xff", b"\r", b"\r\n", b" ", b"\t", b"nan", b"-1", b"9", b"\x1f",
               "\u00e9".encode(), b"\n", "\u2028".encode(), b"1_0", "\ufeff".encode()]


def fuzzed_csv(rng: np.random.Generator, rows: int = 100) -> bytes:
    t = (np.arange(rows) * 0.02).tolist()
    xyz = rng.normal(size=(rows, 3)).round(3).tolist()
    text = "".join(f"{a!r},{x!r},{y!r},{z!r}\n" for a, (x, y, z) in zip(t, xyz))
    data = bytearray(f"{CSV_HEADER}\n{text}".encode())
    for _ in range(rng.integers(1, 4)):
        piece = FUZZ_PIECES[rng.integers(len(FUZZ_PIECES))]
        at = int(rng.integers(len(data)))
        data[at:at + int(rng.integers(2))] = piece
    return bytes(data)


@pytest.mark.filterwarnings("ignore::smokewatch.signal.SampleRateWarning")
def test_load_csv_equals_the_whole_file_oracle_on_fuzzed_files(tmp_path, monkeypatch):
    # 400 seeded files, each read in blocks of 7 and 64 bytes and in one
    # read: the same arrays bit for bit, or the same error and message, as
    # the oracle's decode and float() parse of the whole file
    rng = np.random.default_rng(34)
    path = tmp_path / "s.csv"
    whole = signal.READ_CHUNK
    kinds = set()
    for _ in range(400):
        data = fuzzed_csv(rng)
        try:
            rec = reference_load(data)
            want = np.stack([rec.t, rec.x, rec.y, rec.z])
        except SmokewatchError as exc:
            want = f"{type(exc).__name__}: {exc}"
        path.write_bytes(data)
        for size in (7, 64, whole):
            monkeypatch.setattr(signal, "READ_CHUNK", size)
            assert_same_outcome(outcome(path), want)
        kinds.add(want.split(":")[1].split()[0] if isinstance(want, str) else "loads")
    # loads, bytes that are not UTF-8, bad headers, bad lines and unordered
    # timestamps are each among them
    assert kinds >= {"loads", "byte", "first", "line", "timestamps"}, kinds


def test_load_csv_gives_numpy_no_blank_block(tmp_path, monkeypatch):
    # numpy's reader warns on input with no data; a block of blank lines,
    # which some read sizes cut, never reaches it
    text = "t,x,y,z\n\n\n\n0,1,2,3\n0.02,1,2,3\n"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert_all(load_every_way(text, tmp_path, monkeypatch),
                   np.array([[0.0, 0.02], [1, 1], [2, 2], [3, 3]]))


# --- CSV ingestion in blocks -------------------------------------------------

# 30 rows of one width, so that a fault written over a row moves no block cut
ROWS = [f"{k * 0.02:8.4f},0.25,0.50,1.00".encode() for k in range(30)]
ROWS_DATA = np.array([list(map(float, row.split(b","))) for row in ROWS]).T


def csv_bytes(rows, newline=b"\n", header=CSV_HEADER.encode()) -> bytes:
    return newline.join([header, *rows]) + newline


# The offset of line 12 of csv_bytes(ROWS): reads of this size cut the file
# into blocks of lines 1-11, 12-21 and 22-31
BLOCK_CUT = len(csv_bytes(ROWS[:10]))


def assert_loads_as(data: bytes, want, tmp_path, monkeypatch) -> None:
    """outcome() of data from a path is want, read whole and in reads of
    BLOCK_CUT bytes."""
    whole = tmp_path / "whole.csv"
    whole.write_bytes(data)
    assert outcome(whole) == want
    with monkeypatch.context() as m:
        m.setattr(signal, "READ_CHUNK", BLOCK_CUT)
        assert outcome(whole) == want


# Each line end of str.splitlines() but \n, ending the header line of a
# file of two data rows and of the file with a bad fourth line
HEADER_ENDS = {"cr": "\r", "crlf": "\r\n", **SPLITLINES_ENDS}
TWO_ROWS = "0.0,1,2,3\n0.02,4,5,6\n"


@pytest.mark.parametrize("data, want", [
    *((data, ROWS_DATA) for data in [
        csv_bytes(ROWS),
        csv_bytes(ROWS, b"\r\n"),
        csv_bytes(ROWS, b"\r"),
        csv_bytes([b"", *ROWS[:9], b"", b"  ", *ROWS[9:20], b"\t", *ROWS[20:], b""]),
        csv_bytes(ROWS)[:-1],
        csv_bytes(ROWS, b"\r\n")[:-2],
        # a pair of blank lines, then a whitespace-only last line without newline
        csv_bytes([*ROWS[:20], b"", b"", *ROWS[20:]]) + b" " * 246,
        csv_bytes(ROWS, b"\r\n") + b" " * 24,
    ]),
    *((f"{CSV_HEADER}{end}{TWO_ROWS}", np.array([[0.0, 0.02], [1, 4], [2, 5], [3, 6]]))
      for end in HEADER_ENDS.values()),
    *((f"{CSV_HEADER}{end}{TWO_ROWS}0.04,7,8\n",
       "MalformedRow: line 4: expected 4 columns, got 3") for end in HEADER_ENDS.values()),
], ids=["lf", "crlf", "cr", "blank-lines", "lf-no-last-newline", "crlf-no-last-newline",
        "blank-line-pair", "crlf-blank-last-line", *(f"header-{name}" for name in HEADER_ENDS),
        *(f"header-{name}-bad-line-4" for name in HEADER_ENDS)])
def test_load_csv_rows_at_every_read_size(data, want, tmp_path, monkeypatch):
    # some read sizes end a read between a \r and its \n, or on a blank line,
    # or inside the line end of the header
    assert_all(load_every_way(data, tmp_path, monkeypatch), want)


@pytest.fixture(scope="module")
def milli_g_xyz():
    """(100,000, 3) samples of synthetic sessions, end to end: on the 1
    milli-g grid, about 26 bytes a row once written."""
    sessions = generate_sessions({SessionKind.SMOKING: 20, SessionKind.EATING: 20},
                                 DEFAULT_PROFILES["watch-a"], 3)
    return np.concatenate([np.stack([r.x, r.y, r.z], axis=1) for _, r, _ in sessions])[:100_000]


def test_milli_g_session_round_trips_bit_for_bit(milli_g_xyz, tmp_path):
    # the written session loads back bit for bit
    rec = make_recording(milli_g_xyz)
    path = tmp_path / "s.csv"
    write_recording_csv(rec, path)
    got = load_recording_csv(path)
    for name in "txyz":
        assert np.array_equal(getattr(got, name), getattr(rec, name)), name


def test_load_csv_cuts_cr_only_lines_into_read_sized_blocks(milli_g_xyz, tmp_path):
    # a file with \r line ends only is cut after a \r, so no block holds more
    # than one read and the line it ends in, and it loads as its \n copy
    lf = tmp_path / "lf.csv"
    write_recording_csv(make_recording(milli_g_xyz), lf)
    cr = tmp_path / "cr.csv"
    cr.write_bytes(lf.read_bytes().replace(b"\n", b"\r"))
    assert b"\n" not in cr.read_bytes() and cr.stat().st_size > 5 * signal.READ_CHUNK
    line = max(map(len, cr.read_bytes().split(b"\r"))) + 1
    with open(cr, "rb") as fh:
        sizes = [len(text) for text in signal._line_blocks(fh)]
    assert len(sizes) > 5 and max(sizes) <= signal.READ_CHUNK + line
    a, b = load_recording_csv(lf), load_recording_csv(cr)
    for name in "txyz":
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name


def test_load_csv_reads_a_named_pipe(rng, tmp_path):
    # a pipe, which cannot seek, is read in blocks to its end
    rec = make_recording(rng.normal(size=(5000, 3)))
    text = csv_text(rec, tmp_path)
    got = through_a_pipe(tmp_path / "pipe", text.encode(), load_recording_csv)
    assert np.array_equal(np.stack([got.t, got.x, got.y, got.z]),
                          np.stack([rec.t, rec.x, rec.y, rec.z]))


@pytest.mark.parametrize("later_bad_byte", [False, True], ids=["bad-line", "then-not-utf8"])
def test_load_csv_names_a_fault_in_a_named_pipe_and_drains_it(later_bad_byte, tmp_path):
    # the fault on line 3 is found in the first read; the rest of the pipe,
    # over 1 MiB, is still read, so the writer ends and a later byte that is
    # not UTF-8 is the fault named
    data = malformed_session(later_bad_byte)
    offset = data.find(b"\xff")
    want = (f"^byte {offset}: not UTF-8 \\(invalid start byte\\)$"
            if later_bad_byte else "^line 3: non-numeric field$")
    with pytest.raises(MalformedRow, match=want):
        through_a_pipe(tmp_path / "pipe", data, load_recording_csv)


FAULTS = {
    "columns": ("MalformedRow: line {line}: expected 4 columns, got 3",
                lambda row: row[:-5] + b" " * 5),
    "non-numeric": ("MalformedRow: line {line}: non-numeric field",
                    lambda row: row[:-4] + b"1x00"),
    "non-finite": ("MalformedRow: line {line}: non-finite field",
                   lambda row: row[:-4] + b" nan"),
    "not-utf8": ("MalformedRow: byte {byte}: not UTF-8 (invalid start byte)",
                 lambda row: row[:-1] + b"\xff"),
    "negative": ("MalformedRow: line {line}: negative timestamp",
                 lambda row: b"%8.4f" % -0.02 + row[8:]),
    "negative-first": ("MalformedRow: line {line}: negative timestamp",
                       lambda row: b"%8.4f" % -0.02 + row[8:]),
    "non-monotonic": ("NonMonotonicTime: timestamps must be strictly increasing", None),
}


@pytest.mark.parametrize("spot", ["first-block", "block-start", "last-block"])
@pytest.mark.parametrize("fault", [*FAULTS, "not-utf8-after-a-row-fault"])
def test_load_csv_names_each_fault_in_any_block(fault, spot, tmp_path, monkeypatch):
    # in reads of BLOCK_CUT bytes the fault sits on line 3, in the first
    # block, on line 12, the first of the second block, or on line 23, the
    # second of the last block
    with monkeypatch.context() as m:
        m.setattr(signal, "READ_CHUNK", BLOCK_CUT)
        blocks = list(signal._line_blocks(io.BytesIO(csv_bytes(ROWS))))
    assert [len(text.splitlines()) for text in blocks] == [11, 10, 10]
    line = {"first-block": 3, "block-start": 12, "last-block": 23}[spot]
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
    assert len(data) == len(csv_bytes(ROWS))
    want = message.format(line=line, byte=data.find(b"\xff"))
    assert_loads_as(data, want, tmp_path, monkeypatch)


@pytest.mark.parametrize("first", ["non-numeric", "not-utf8"])
@pytest.mark.parametrize("last", ["columns", "not-utf8"])
def test_load_csv_names_the_fault_in_the_first_block(first, last, tmp_path, monkeypatch):
    # one fault on line 3, in the first of three blocks, and another on line
    # 23, in the last: the first is named, unless only the last is bytes that
    # are not UTF-8, which are named wherever they sit
    rows = list(ROWS)
    rows[1] = FAULTS[first][1](rows[1])
    rows[21] = FAULTS[last][1](rows[21])
    data = csv_bytes(rows)
    message = FAULTS["not-utf8" if "not-utf8" in (first, last) else first][0]
    want = message.format(line=3, byte=data.find(b"\xff"))
    assert_loads_as(data, want, tmp_path, monkeypatch)


@pytest.mark.parametrize("data, want", [
    (csv_bytes(ROWS, header=b"t,x,y,q"),
     f"MalformedRow: first line must be the header {CSV_HEADER!r}, got 't,x,y,q'"),
    # a byte-order mark, as some spreadsheet exports write, is not accepted
    (csv_bytes(ROWS, header="\ufefft,x,y,z".encode()),
     f"MalformedRow: first line must be the header {CSV_HEADER!r}, got '\\ufefft,x,y,z'"),
    (csv_bytes(ROWS, header=b"t,x,y,q")[:-1] + b"\xff",
     "MalformedRow: byte 727: not UTF-8 (invalid start byte)"),
    (csv_bytes(ROWS[:1] + [b" " * 8] * 50), "EmptyRecording: need at least 2 data rows, got 1"),
    # a malformed row is named before the rows are counted
    (csv_bytes([b" " * 8] * 50 + [ROWS[0][:-4] + b" nan"]),
     "MalformedRow: line 52: non-finite field"),
], ids=["bad-header", "byte-order-mark", "bad-header-then-not-utf8", "one-row",
        "one-non-finite-row"])
def test_load_csv_names_file_faults_in_any_block(data, want, tmp_path, monkeypatch):
    assert_loads_as(data, want, tmp_path, monkeypatch)


def test_load_csv_rejects_non_monotonic_time(tmp_path):
    text = "t,x,y,z\n0.0,1,2,3\n0.02,1,2,3\n0.02,1,2,3\n"
    with pytest.raises(NonMonotonicTime):
        load_bytes(text.encode(), tmp_path)


def test_load_csv_warns_on_rate_deviation(tmp_path):
    rows = "\n".join(f"{i*0.05},0,0,1" for i in range(10))
    with pytest.warns(SampleRateWarning):
        load_bytes(f"{CSV_HEADER}\n{rows}\n".encode(), tmp_path)


@pytest.mark.parametrize("gaps, warns", [
    ([0.02] * 9, False),
    ([0.02] * 5 + [0.001, 0.5, 0.03, 0.011], False),  # extremes out, median in
    ([0.016] * 5 + [0.024] * 4, False),  # every gap at the band's ends
    ([0.0159] * 5 + [0.03] * 4, True),  # median just below the band
    ([0.001] * 5 + [0.02] * 4, True),
    ([0.02] * 4 + [0.5] * 5, True),
    ([0.02] * 4 + [0.001, 0.5] * 2, False),  # even count: the middle pair's mean
    ([0.001] * 4 + [0.5] * 4, True),
], ids=["on-grid", "extremes-out", "band-ends", "just-below", "slow-half",
        "fast-half", "middle-pair", "split"])
def test_load_csv_warns_when_the_median_gap_leaves_the_band(gaps, warns, tmp_path):
    # the warning comes exactly when the median gap is more than 20% away
    # from 20 ms, however far out the other gaps lie
    t = np.concatenate([[0.0], np.cumsum(gaps)])
    rows = "".join(f"{v!r},0,0,1\n" for v in t.tolist())
    median = float(np.median(np.diff(t)))
    assert (abs(median - 0.02) > 0.2 * 0.02) == warns
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        load_bytes(f"{CSV_HEADER}\n{rows}".encode(), tmp_path)
    assert [w.category for w in caught] == ([SampleRateWarning] if warns else [])


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
    with pytest.raises(InvalidSample):
        SensorRecording(t=t, x=ones * np.nan, y=ones, z=ones)
    assert issubclass(InvalidSample, SmokewatchError) and issubclass(InvalidSample, ValueError)


_T5 = np.arange(5) / 50


@pytest.mark.parametrize("t, y, error, message", [
    (np.r_[np.nan, _T5[1:]], np.ones(5), InvalidSample,
     "timestamps must be finite and non-negative"),
    (np.r_[-0.02, _T5[1:]], np.ones(5), InvalidSample,
     "timestamps must be finite and non-negative"),
    (np.r_[_T5[:3], _T5[2:4]], np.ones(5), NonMonotonicTime,
     "timestamps must be strictly increasing"),
    (_T5, np.r_[1.0, 1.0, np.nan, 1.0, 1.0], InvalidSample, "y values must be finite"),
    (_T5, np.ones(4), LengthMismatch, "t, x, y, z must have identical lengths"),
    (_T5[:1], np.ones(1), EmptyRecording, "a recording needs at least 2 samples"),
], ids=["nan-first-t", "negative-first-t", "repeated-t", "nan-y", "lengths", "one-sample"])
def test_recording_validation_names_each_fault(t, y, error, message):
    # the message each fault raised before the checks became ndarray
    # methods; InvalidSample is still the ValueError it was
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

