"""Accelerometer signal handling.

Covers ingestion of 3-axis recordings from CSV, fixed-length resampling of
isolated gestures to plain (x, y, z) arrays, channel-mode feature extraction
into one 1-d network input and rolling-window counting for continuous
sessions. Recordings are immutable after construction and every operation is
a pure function of its inputs. A CSV file, named by its path, is read as
bytes and decoded in blocks cut at line ends, all in the calling process.
One rule holds for every data line: it is malformed if it has a column
count other than 4, a field that `float()` rejects, a non-finite field or a
negative timestamp, and the first malformed line in file order is the
error. Each block is parsed by numpy's C reader (`np.loadtxt`) when it is
plain ASCII text with no malformed line, and otherwise by a per-line
`float()` parse, which is the reference behaviour and names the first
malformed line; the writer formats one block of rows at a time, each float
column through `fileio.float_reprs`, for `fileio.write_csv`, which owns the
block loop and its split into parts. So memory for a session holds its
arrays, not its text.
"""

from __future__ import annotations

import io
import math
import re
import warnings
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import IO, Iterator, Optional, Union

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


def _line_blocks(fh: IO[bytes]) -> Iterator[str]:
    """The text of fh in blocks cut after the last line end of each read: a
    b"\\n", or a b"\\r" that is not the read's last byte, so that a \\r\\n
    is never split. The blocks' splitlines() are then, in order, the
    splitlines() of the whole text, and a cut never splits a character.
    Bytes that are not UTF-8 raise MalformedRow naming their offset."""
    decoded = 0  # offset of the bytes not yet decoded
    tail = b""
    while True:
        chunk = fh.read(READ_CHUNK)
        data = tail + chunk
        if chunk:  # a \r is looked for only after the last \n
            cut = data.rfind(b"\n") + 1
            cut = max(cut, data.rfind(b"\r", cut, -1) + 1)
        else:  # an empty read ends fh
            cut = len(data)
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


class _BadRow(Exception):
    """A malformed line: args are its index among a block's lines (None for
    the header) and why."""


# ASCII characters that numpy's reader takes otherwise than splitlines() or
# float(): \x0b, \x0c and \x1c-\x1e end a line for splitlines() but not
# for numpy, which reads "0,1,2\x0c,3" as one row, and numpy strips \x1f
# from around a field, which float() rejects.
_NOT_NUMPY_SAFE = "\x0b\x0c\x1c\x1d\x1e\x1f"

# A whitespace-only line of ASCII text free of _NOT_NUMPY_SAFE, once each
# \r is read as \n.
_BLANK_LINE = re.compile(r"^[ \t]+$", re.MULTILINE)


def _line_breaks(text: str) -> int:
    """The line breaks of ASCII text free of _NOT_NUMPY_SAFE, as
    splitlines() counts them: \\n, \\r and \\r\\n."""
    breaks = text.count("\n")
    return breaks + text.count("\r") - text.count("\r\n") if "\r" in text else breaks


def _fast_rows(text: str) -> Optional[np.ndarray]:
    """The (rows, 4) fields of a block's data lines by numpy's C reader, or
    None unless the block is ASCII, free of _NOT_NUMPY_SAFE and not blank
    and numpy reads it as 4 finite columns with no negative timestamp. Its
    line breaks, with each \\r read as \\n (a \\r\\n then adds an empty line,
    which both parses skip), are then those of splitlines(), numpy gets each
    whitespace-only line blanked, and numpy strips the same whitespace from
    a field as float() and calls the same string-to-double, so the rows are
    those of _plain_rows."""
    if (not text or text.isspace() or not text.isascii()
            or any(c in text for c in _NOT_NUMPY_SAFE)):
        return None
    # numpy ends a line at \n and \r\n but not at a lone \r
    text = text.replace("\r", "\n")
    if " " in text or "\t" in text:  # numpy rejects a whitespace-only line
        text = _BLANK_LINE.sub("", text)
    try:
        data = np.loadtxt(io.StringIO(text), delimiter=",", comments=None,
                          dtype=np.float64, ndmin=2)
    except ValueError:
        return None
    if data.shape[1] == 4 and np.isfinite(data).all() and data[:, 0].min() >= 0.0:
        return data
    return None


def _plain_rows(lines: list[str]) -> np.ndarray:
    """The (rows, 4) fields of the data lines of `lines` (the lines that are
    not blank) by float(): the reference parse of a block, run on each block
    that _fast_rows refuses. Raises _BadRow for the first data line with a
    bad column count, a field that float() rejects, a non-finite field or a
    negative timestamp."""
    rows = []
    for index, line in enumerate(lines):
        if not line.strip():
            continue
        fields = line.split(",")
        if len(fields) != 4:
            raise _BadRow(index, f"expected 4 columns, got {len(fields)}")
        try:
            row = list(map(float, fields))
        except ValueError:
            raise _BadRow(index, "non-numeric field") from None
        if not all(map(math.isfinite, row)):
            raise _BadRow(index, "non-finite field")
        if row[0] < 0.0:
            raise _BadRow(index, "negative timestamp")
        rows.append(row)
    return np.array(rows, dtype=np.float64).reshape(-1, 4)


def _parse_blocks(path: Union[str, Path]) -> list[np.ndarray]:
    """The data blocks of the file at path, whose first line must be
    CSV_HEADER: each block by _fast_rows, or by _plain_rows if it refuses.
    Bytes that are not UTF-8 raise MalformedRow. So does a malformed header or
    data line, naming its line, once the rest of the file is decoded, so
    that such bytes anywhere are named first."""
    with open(path, "rb") as fh:
        blocks = _line_blocks(fh)
        lineno = 0  # the index in the file of the block's first line
        arrays = []
        try:
            for text in blocks:
                if not lineno:  # the first line ends at or before the first "\n"
                    head = text[:text.find("\n") + 1 or None].splitlines(keepends=True)[0]
                    if head.strip() != CSV_HEADER:
                        raise _BadRow(None, f"first line must be the header {CSV_HEADER!r}")
                    text, lineno = text[len(head):], 1
                data = _fast_rows(text)
                if data is None:
                    lines = text.splitlines()
                    data = _plain_rows(lines)
                    lineno += len(lines)
                else:
                    lineno += _line_breaks(text) + (not text.endswith(("\n", "\r")))
                arrays.append(data)
            return arrays
        except _BadRow as bad:
            index, reason = bad.args
        for _ in blocks:  # decode the rest of the file: a byte that is not UTF-8 wins
            pass
    if index is None:
        raise MalformedRow(reason)
    raise MalformedRow(f"line {lineno + index + 1}: {reason}")


def load_recording_csv(path: Union[str, Path], label: GestureClass = GestureClass.UNKNOWN,
                       device: str = "") -> SensorRecording:
    """Parse a `t,x,y,z` CSV into a SensorRecording.

    Raises MalformedRow for bytes that are not UTF-8, naming the first, and
    otherwise for a bad header or for the first malformed data line: one
    with a column count other than 4, a field that `float()` rejects, a
    non-finite field or a negative timestamp. Then raises EmptyRecording
    for fewer than 2 data rows and NonMonotonicTime for unordered
    timestamps.
    Warns (SampleRateWarning) when the median sample gap is more than 20%
    away from the 20 ms nominal.
    The file's bytes, or a named pipe's, are read READ_CHUNK at a time and
    parsed in blocks cut at line ends, never held whole. A block is parsed
    by numpy's C reader if it is ASCII, holds a data line and none of the
    characters numpy takes otherwise than `str.splitlines` or `float()`, and
    numpy reads it, with whitespace-only lines blanked, as 4 finite columns
    and no negative timestamp; any other block (Unicode digits or spaces,
    `1_0`, a malformed line) is parsed line by line by `float()`, which
    gives the same values and names the first malformed line, so every error
    is the one a parse of the whole text would raise.
    """
    arrays = _parse_blocks(path)
    rows = sum(map(len, arrays))
    if rows < 2:
        raise EmptyRecording(f"need at least 2 data rows, got {rows}")
    data = np.concatenate(arrays)
    t = data[:, 0]
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

