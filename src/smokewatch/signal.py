"""Accelerometer signal handling.

Covers ingestion of 3-axis recordings from CSV, fixed-length resampling of
isolated gestures to plain (x, y, z) arrays, channel-mode feature extraction
into one 1-d network input and rolling-window counting for continuous
sessions. Recordings are immutable after construction and every operation is
a pure function of its inputs. A CSV file, named by its path, is read as
bytes and decoded in blocks cut at line ends, and a long file is parsed in
runs of lines at once (`fileio.run_parts`). Each block is parsed by numpy's
C reader (`np.loadtxt`) when it is plain ASCII text of 4 finite columns,
and otherwise by a per-line `float()` parse, which is the reference
behaviour and names the first bad line; the writer formats one block of
rows at a time, each float column through `fileio.float_reprs`, for
`fileio.write_csv`, which owns the block loop and its split into parts. So
memory for a session holds its arrays, not its text.
"""

from __future__ import annotations

import io
import os
import warnings
from dataclasses import dataclass
from enum import Enum
from functools import partial
from pathlib import Path
from typing import IO, Iterator, NamedTuple, Optional, Union

import numpy as np

from . import fileio

from .errors import (
    EmptyRecording,
    InvalidSize,
    LengthMismatch,
    MalformedRow,
    NonMonotonicTime,
)

# Both source devices sample at 50 Hz; isolated gestures are stretched to a
# fixed 200-point grid before they reach a network.
NOMINAL_RATE_HZ = 50.0
FEATURE_POINTS = 200

CSV_HEADER = "t,x,y,z"


class SampleRateWarning(UserWarning):
    """Median inter-sample gap deviates noticeably from the 50 Hz nominal."""


class GestureClass(Enum):
    SMOKING = "smoking"
    DRINKING = "drinking"
    NOSE_SCRATCH = "nose_scratch"
    YAWN = "yawn"
    COUGH = "cough"
    HAIR_BRUSH = "hair_brush"
    STOMACH_RUB = "stomach_rub"
    EATING = "eating"
    CHAPSTICK = "chapstick"
    UNKNOWN = "unknown"

    @property
    def is_smoking(self) -> bool:
        return self is GestureClass.SMOKING

    @classmethod
    def parse(cls, name: str) -> "GestureClass":
        try:
            return cls(name.strip().lower())
        except ValueError:
            raise ValueError(f"unknown gesture class {name!r}") from None


# The six isolated non-smoking gestures used alongside smoking in corpora.
CONFOUNDER_CLASSES = (
    GestureClass.DRINKING,
    GestureClass.NOSE_SCRATCH,
    GestureClass.YAWN,
    GestureClass.COUGH,
    GestureClass.HAIR_BRUSH,
    GestureClass.STOMACH_RUB,
)


class ChannelMode(Enum):
    """Which accelerometer data feeds a network."""

    X = "X"
    Y = "Y"
    Z = "Z"
    XYZ = "XYZ"
    AVG = "AVG"

    @classmethod
    def parse(cls, name: str) -> "ChannelMode":
        try:
            return cls(name.strip().upper())
        except ValueError:
            raise ValueError(f"unknown channel mode {name!r}") from None

    @property
    def signal_count(self) -> int:
        """How many signals the mode's network inputs are made of."""
        return 3 if self is ChannelMode.XYZ else 1

    def signals(self, x: np.ndarray, y: np.ndarray,
                z: np.ndarray) -> tuple[np.ndarray, ...]:
        """The mode's signals from the three axes: one axis verbatim, all
        three (XYZ) or their per-sample mean (AVG)."""
        if self is ChannelMode.XYZ:
            return (x, y, z)
        if self is ChannelMode.AVG:
            return ((x + y + z) / 3.0,)
        return ({"X": x, "Y": y, "Z": z}[self.value],)


ALL_MODES = (ChannelMode.X, ChannelMode.Y, ChannelMode.Z, ChannelMode.XYZ, ChannelMode.AVG)


@dataclass(frozen=True, eq=False)
class SensorRecording:
    """A timestamped 3-axis recording with label and device provenance.

    Timestamps are seconds, strictly increasing; axis values are in g.
    """

    t: np.ndarray
    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    label: GestureClass = GestureClass.UNKNOWN
    device: str = ""

    def __post_init__(self):
        for name in ("t", "x", "y", "z"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            object.__setattr__(self, name, arr)
        n = self.t.shape[0]
        if self.x.shape != (n,) or self.y.shape != (n,) or self.z.shape != (n,):
            raise LengthMismatch("t, x, y, z must have identical lengths")
        if n < 2:
            raise EmptyRecording("a recording needs at least 2 samples")
        if not (np.isfinite(self.t).all() and self.t[0] >= 0.0):
            raise ValueError("timestamps must be finite and non-negative")
        if (self.t[1:] <= self.t[:-1]).any():
            raise NonMonotonicTime("timestamps must be strictly increasing")
        for name in ("x", "y", "z"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"{name} values must be finite")

    def __len__(self) -> int:
        return self.t.shape[0]


# Bytes per read of a CSV file.
READ_CHUNK = 1 << 18


def _line_blocks(fh: IO[bytes], start: int, end: Optional[int]) -> Iterator[str]:
    """The text of fh, from offset `start` where it stands up to offset `end`
    (None: its end), in blocks cut after the last b"\\n" of each read, so that
    the blocks' splitlines() are, in order, the splitlines() of the whole text;
    a cut after b"\\n" never splits a character. Bytes that are not UTF-8 raise
    MalformedRow naming their offset in fh."""
    decoded = start  # offset of the bytes not yet decoded
    tail = b""
    while True:
        size = READ_CHUNK if end is None else min(READ_CHUNK, end - decoded - len(tail))
        chunk = fh.read(size)
        data = tail + chunk
        cut = data.rfind(b"\n") + 1 if chunk else len(data)  # an empty read ends fh
        try:
            text = data[:cut].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise MalformedRow(f"byte {decoded + exc.start}: not UTF-8 "
                               f"({exc.reason})") from None
        if text:
            yield text
        if not chunk:
            return
        decoded += cut
        tail = data[cut:]


class _Part(NamedTuple):
    """One run of whole lines of a CSV, parsed: its data blocks, its line
    count and, as line indices within the run, its first data row, its first
    row with a non-finite field and its first malformed row with the reason
    (a None index marks a bad header)."""

    data: list[np.ndarray]
    lines: int
    first: Optional[int]
    nonfinite: Optional[int]
    fault: Optional[tuple[Optional[int], str]]


class _BadRow(Exception):
    """A malformed data line: args are its index among a block's lines and
    why."""


# ASCII characters that numpy's reader takes otherwise than splitlines() or
# float(): \x0b, \x0c and \x1c-\x1e end a line for splitlines() but not
# for numpy, which reads "0,1,2\x0c,3" as one row, and numpy strips \x1f
# from around a field, which float() rejects.
_NOT_NUMPY_SAFE = "\x0b\x0c\x1c\x1d\x1e\x1f"


def _line_breaks(text: str) -> int:
    """The line breaks of ASCII text free of _NOT_NUMPY_SAFE, as
    splitlines() counts them: \\n, \\r and \\r\\n."""
    breaks = text.count("\n")
    return breaks + text.count("\r") - text.count("\r\n") if "\r" in text else breaks


def _fast_rows(text: str) -> Optional[np.ndarray]:
    """The (rows, 4) fields of a block's data lines by numpy's C reader, or
    None unless the block is ASCII, free of _NOT_NUMPY_SAFE and not blank
    and numpy reads it as 4 finite columns. Its line breaks, with each \\r
    read as \\n (a \\r\\n then adds an empty line, which both parses skip),
    are then those of splitlines(), and numpy strips the same whitespace
    from a field as float() and calls the same string-to-double, so the
    rows are those of _plain_rows."""
    if (not text or text.isspace() or not text.isascii()
            or any(c in text for c in _NOT_NUMPY_SAFE)):
        return None
    try:  # numpy ends a line at \n and \r\n but not at a lone \r
        data = np.loadtxt(io.StringIO(text.replace("\r", "\n")), delimiter=",",
                          comments=None, dtype=np.float64, ndmin=2)
    except ValueError:
        return None
    return data if data.shape[1] == 4 and np.isfinite(data).all() else None


def _plain_rows(lines: list[str]) -> tuple[np.ndarray, list[int]]:
    """The (rows, 4) fields of the data lines of `lines` (the lines that are
    not blank) by float(), and the data lines' indices: the reference parse
    of a block, run on each block that _fast_rows refuses. Raises _BadRow
    for the first data line with a bad column count or a field that float()
    rejects."""
    rows, indices = [], []
    for index, line in enumerate(lines):
        if not line.strip():
            continue
        fields = line.split(",")
        if len(fields) != 4:
            raise _BadRow(index, f"expected 4 columns, got {len(fields)}")
        try:
            rows.append(list(map(float, fields)))
        except ValueError:
            raise _BadRow(index, "non-numeric field") from None
        indices.append(index)
    return np.array(rows, dtype=np.float64).reshape(-1, 4), indices


def _parse_part(blocks: Iterator[str], header: bool) -> _Part:
    """Parse the lines of `blocks`, the first of which must be CSV_HEADER if
    `header`: each block by _fast_rows, or by _plain_rows if it refuses.
    Bytes that are not UTF-8 raise MalformedRow; a malformed row or header
    ends the parse, and the rest of blocks is decoded before it is returned,
    so that such bytes anywhere are named first."""
    lineno = 0  # the index in the run of the block's first line
    arrays = []
    nonfinite = None  # the index of the first non-finite field's line
    first = None  # the index of the first data row
    for text in blocks:
        if header:  # the first line ends at or before the first "\n"
            head = text[:text.find("\n") + 1 or None].splitlines(keepends=True)[0]
            if head.strip() != CSV_HEADER:
                return _fault(blocks, None, f"first line must be the header {CSV_HEADER!r}")
            header, text, lineno = False, text[len(head):], 1
        data = _fast_rows(text)
        if data is not None:
            if first is None:  # the line breaks in the whitespace before a field
                first = lineno + _line_breaks(text[:len(text) - len(text.lstrip())])
            lineno += _line_breaks(text) + (not text.endswith(("\n", "\r")))
        else:
            lines = text.splitlines()
            try:
                data, indices = _plain_rows(lines)
            except _BadRow as bad:
                index, reason = bad.args
                return _fault(blocks, lineno + index, reason)
            if first is None and indices:
                first = lineno + indices[0]
            finite = np.isfinite(data).all(axis=1)
            if nonfinite is None and not finite.all():
                nonfinite = lineno + indices[np.flatnonzero(~finite)[0]]
            lineno += len(lines)
        arrays.append(data)
    return _Part(arrays, lineno, first, nonfinite, None)


def _fault(blocks: Iterator[str], index: Optional[int], reason: str) -> _Part:
    """The _Part of a run whose first malformed line is at `index`."""
    for _ in blocks:  # decode the rest: a byte that is not UTF-8 wins
        pass
    return _Part([], 0, None, None, (index, reason))


def _line_cuts(path: Union[str, Path]) -> list[Optional[int]]:
    """Offsets that cut the file at path into `fileio.part_count` runs of
    whole lines of about equal size: 0, each later cut just after a b"\\n",
    then None for the end of the file. The file's rows are counted as its
    size times the lines per byte of its first READ_CHUNK, which is read
    only if the file has bytes enough for a split at one byte a line. A pipe
    has no size, so it is one run."""
    size = os.stat(path).st_size
    cuts = [0]
    if fileio.part_count(size) > 1:
        with open(path, "rb") as fh:
            head = fh.read(READ_CHUNK)
            parts = fileio.part_count(size * head.count(b"\n") // max(len(head), 1))
            for k in range(1, parts):
                at = max(size * k // parts, cuts[-1])
                fh.seek(at)
                while chunk := fh.read(READ_CHUNK):
                    newline = chunk.find(b"\n")
                    if newline >= 0:
                        at += newline + 1
                        break
                    at += len(chunk)
                if at < size:
                    cuts.append(at)
    return cuts + [None]


def _parse_range(path: Union[str, Path], lo: int, hi: Optional[int], files=()) -> _Part:
    """_parse_part of the bytes lo..hi-1 (hi None: to the end) of the file
    at path."""
    with open(path, "rb") as fh:
        if lo:
            fh.seek(lo)
        return _parse_part(_line_blocks(fh, lo, hi), header=lo == 0)


def load_recording_csv(path: Union[str, Path], label: GestureClass = GestureClass.UNKNOWN,
                       device: str = "") -> SensorRecording:
    """Parse a `t,x,y,z` CSV into a SensorRecording.

    Raises EmptyRecording for fewer than 2 data rows, MalformedRow for a bad
    header, column count or non-numeric or non-finite field, for a negative
    first timestamp or for bytes that are not UTF-8, and NonMonotonicTime
    for unordered timestamps.
    Warns (SampleRateWarning) when the median sample gap is more than 20%
    away from the 20 ms nominal.
    The file's bytes are read READ_CHUNK at a time and parsed in blocks cut
    at line ends, never held whole; a long file is parsed in runs of whole
    lines at once (`fileio.run_parts`), and a named pipe in one run to its
    end. A block is parsed by numpy's C reader if it is ASCII, holds a data
    line and none of the characters numpy takes otherwise than
    `str.splitlines` or `float()`, and numpy reads it as 4 finite columns;
    any other block (Unicode digits or spaces, `1_0`, whitespace-only
    lines, a bad or non-finite field) is parsed line by line by `float()`,
    which gives the same values and names the first bad line.
    The runs' rows, line counts and first faults are merged in file order,
    so every error is the one a parse of the whole text would raise, and
    bytes that are not UTF-8 are named first.
    """
    parts = fileio.run_parts(partial(_parse_range, path), _line_cuts(path))
    lineno = 1  # the line number of the part's first line
    first = nonfinite = None  # the lines of the first data row and non-finite field
    for part in parts:
        if part.fault is not None:
            index, reason = part.fault
            raise MalformedRow(reason if index is None else f"line {lineno + index}: {reason}")
        if first is None and part.first is not None:
            first = lineno + part.first
        if nonfinite is None and part.nonfinite is not None:
            nonfinite = lineno + part.nonfinite
        lineno += part.lines
    arrays = [data for part in parts for data in part.data]
    rows = sum(map(len, arrays))
    if rows < 2:
        raise EmptyRecording(f"need at least 2 data rows, got {rows}")
    if nonfinite is not None:
        raise MalformedRow(f"line {nonfinite}: non-finite field")
    data = np.concatenate(arrays)
    t = data[:, 0]
    if t[0] < 0.0:
        raise MalformedRow(f"line {first}: negative timestamp")
    recording = SensorRecording(t=t, x=data[:, 1], y=data[:, 2], z=data[:, 3],
                                label=label, device=device)
    median_gap = float(np.median(np.diff(t)))
    nominal = 1.0 / NOMINAL_RATE_HZ
    if abs(median_gap - nominal) > 0.2 * nominal:
        warnings.warn(
            f"median sample gap {median_gap * 1e3:.2f} ms deviates >20% from "
            f"{nominal * 1e3:.0f} ms nominal",
            SampleRateWarning,
            stacklevel=2,
        )
    return recording


def write_recording_csv(recording: SensorRecording, path: Union[str, Path]) -> None:
    """Write the bit-exact CSV form (header `t,x,y,z`, repr floats, \\n)
    through `fileio.write_csv`. Each block's t, x, y and z columns are
    formatted by `fileio.float_reprs`, which calls `repr` once per distinct
    value: samples on a sensor's grid repeat within a block."""
    cols = (recording.t, recording.x, recording.y, recording.z)

    def format_block(lo: int, hi: int) -> list[str]:
        rows = zip(*(fileio.float_reprs(c[lo:hi]) for c in cols))
        return ["".join([f"{t},{x},{y},{z}\n" for t, x, y, z in rows])]

    n = len(recording)
    fileio.write_csv([(path, CSV_HEADER)], n, n, format_block)


def resample_uniform(recording: SensorRecording,
                     n: int = FEATURE_POINTS) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Piecewise-linear resampling onto n uniform times over [t_first, t_last]:
    the (x, y, z) arrays of n values each.

    The first and last output values equal the recording's first and last
    sample values exactly.
    """
    if n < 2:
        raise InvalidSize("n must be >= 2")
    grid = np.linspace(recording.t[0], recording.t[-1], n)
    return tuple(np.interp(grid, recording.t, a)
                 for a in (recording.x, recording.y, recording.z))


def extract_features(series: tuple[np.ndarray, np.ndarray, np.ndarray],
                     mode: ChannelMode) -> np.ndarray:
    """The network input for a channel mode from resampled (x, y, z): the
    mode's signals (`ChannelMode.signals`) concatenated, so XYZ is x then y
    then z; 3n values for XYZ, n otherwise.
    """
    return np.concatenate(mode.signals(*series))


def window_count(length: int, width: int, stride: int) -> int:
    """Number of full rolling windows: floor((L - width)/stride) + 1, or 0."""
    if length < width:
        return 0
    return (length - width) // stride + 1

