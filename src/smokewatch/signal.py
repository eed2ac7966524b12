"""Accelerometer signal handling.

Covers ingestion of 3-axis recordings from CSV, fixed-length resampling of
isolated gestures to plain (x, y, z) arrays, channel-mode feature extraction
into one 1-d network input and rolling-window counting for continuous
sessions. Recordings are immutable after construction and every operation is
a pure function of its inputs. A CSV file, named by its path, is read as
bytes and decoded in blocks cut at line ends, in one loop in the calling
process, and each block is split into lines once, by `str.splitlines()`.
One rule holds for every data line: it is malformed if it has a column
count other than 4, a field that `float()` rejects, a non-finite field or a
negative timestamp, and the first malformed line in file order is the
error. A block's lines go to numpy's C reader (`np.loadtxt`) when they are
plain ASCII with no malformed line, and otherwise to a per-line `float()`
parse, the reference behaviour, which raises MalformedRow at that line. The
writer hands `fileio.write_csv`, which owns the block loop and the text,
one block of rows at a time as the character fields of
`fileio.repr_chars`. So memory for a session holds its arrays, not its
text.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import IO, Iterator, Optional, Union

import numpy as np

from . import fileio

from .errors import (
    EmptyRecording,
    InvalidSample,
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
        if self is ChannelMode.AVG:  # an inf mean fails the network's output check
            with np.errstate(over="ignore", invalid="ignore"):
                return ((x + y + z) / 3.0,)
        return ({"X": x, "Y": y, "Z": z}[self.value],)


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
            raise InvalidSample("timestamps must be finite and non-negative")
        if (self.t[1:] <= self.t[:-1]).any():
            raise NonMonotonicTime("timestamps must be strictly increasing")
        for name in ("x", "y", "z"):
            if not np.isfinite(getattr(self, name)).all():
                raise InvalidSample(f"{name} values must be finite")

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


# The one ASCII character that numpy's reader takes otherwise than float()
# once splitlines() has cut the lines: numpy strips \x1f from around a field,
# which float() rejects.
_NOT_NUMPY_SAFE = "\x1f"


def _fast_rows(lines: list[str]) -> Optional[np.ndarray]:
    """The (rows, 4) fields of a block's data lines by numpy's C reader, or
    None unless the lines are ASCII, free of _NOT_NUMPY_SAFE and not all
    blank and numpy reads them as 4 finite columns with no negative
    timestamp. numpy gets the lines as splitlines() cut them, less the
    whitespace-only ones (it skips the empty ones itself), strips the same
    whitespace from a field as float() and calls the same string-to-double,
    so the rows are those of _plain_rows."""
    text = "".join(lines)
    if not text or text.isspace() or not text.isascii() or _NOT_NUMPY_SAFE in text:
        return None
    if " " in text or "\t" in text:  # numpy rejects a whitespace-only line
        lines = [line for line in lines if not line.isspace()]
    try:
        data = np.loadtxt(lines, delimiter=",", comments=None, dtype=np.float64, ndmin=2)
    except ValueError:
        return None
    if data.shape[1] == 4 and np.isfinite(data).all() and data[:, 0].min() >= 0.0:
        return data
    return None


def _plain_rows(lines: list[str], first: int) -> np.ndarray:
    """The (rows, 4) fields of the data lines of `lines` (the lines that are
    not blank) by float(): the reference parse of a block, run on each block
    that _fast_rows refuses. `first` is the file's line number of lines[0].
    Raises MalformedRow, naming its line, for the first data line with a bad
    column count, a field that float() rejects, a non-finite field or a
    negative timestamp."""
    rows = []
    for lineno, line in enumerate(lines, first):
        if not line.strip():
            continue
        fields = line.split(",")
        if len(fields) != 4:
            raise MalformedRow(f"line {lineno}: expected 4 columns, got {len(fields)}")
        try:
            row = list(map(float, fields))
        except ValueError:
            raise MalformedRow(f"line {lineno}: non-numeric field") from None
        if not all(map(math.isfinite, row)):
            raise MalformedRow(f"line {lineno}: non-finite field")
        if row[0] < 0.0:
            raise MalformedRow(f"line {lineno}: negative timestamp")
        rows.append(row)
    return np.array(rows, dtype=np.float64).reshape(-1, 4)


def load_recording_csv(path: Union[str, Path], label: GestureClass = GestureClass.UNKNOWN,
                       device: str = "") -> SensorRecording:
    """Parse a `t,x,y,z` CSV into a SensorRecording.

    The file's bytes, or a named pipe's, are read READ_CHUNK at a time and
    parsed in one loop over blocks cut at line ends, never held whole: each
    block's data lines by _fast_rows, or by _plain_rows if it refuses them.
    Raises MalformedRow for bytes that are not UTF-8, naming the first, and
    otherwise for a bad header or for the first malformed data line (see
    _plain_rows), each where it is found once the rest of the file is
    decoded, so that such bytes anywhere are named first. Then raises
    EmptyRecording for fewer than 2 data rows and NonMonotonicTime for
    unordered timestamps.
    Warns (SampleRateWarning) when the median sample gap is more than 20%
    away from the 20 ms nominal.
    """
    arrays = []
    with open(path, "rb") as fh:
        blocks = _line_blocks(fh)
        first = 0  # the line number of the block's first line; 0 before the header
        try:
            for text in blocks:
                lines = text.splitlines()
                if not first:  # a block holds at least one line
                    if lines[0].strip() != CSV_HEADER:
                        raise MalformedRow(f"first line must be the header {CSV_HEADER!r}, "
                                           f"got {lines[0][:40]!r}")
                    del lines[0]
                    first = 2
                data = _fast_rows(lines)
                if data is None:
                    data = _plain_rows(lines, first)
                first += len(lines)
                arrays.append(data)
        except MalformedRow:
            for _ in blocks:  # decode the rest of the file: a byte that is not UTF-8 wins
                pass
            raise
    rows = sum(map(len, arrays))
    if rows < 2:
        raise EmptyRecording(f"need at least 2 data rows, got {rows}")
    data = np.concatenate(arrays)
    t = data[:, 0]
    recording = SensorRecording(t=t, x=data[:, 1], y=data[:, 2], z=data[:, 3],
                                label=label, device=device)
    gaps = np.diff(t)
    nominal = 1.0 / NOMINAL_RATE_HZ
    # the median lies between the extreme gaps, and so inside the band when
    # both of them do: it is taken only when one is outside
    if abs(gaps.min() - nominal) > 0.2 * nominal or abs(gaps.max() - nominal) > 0.2 * nominal:
        median_gap = float(np.median(gaps))
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
    through `fileio.write_csv`. Each block's t, x, y and z columns go to
    one `fileio.repr_chars` call, which prints a block on the 10^-4 grid,
    as synthetic timestamps and samples are, by integer arithmetic, and
    calls `repr` once per distinct value of the four otherwise."""
    cols = (recording.t, recording.x, recording.y, recording.z)

    def block_fields(lo: int, hi: int) -> list[list[np.ndarray]]:
        return [fileio.repr_chars([c[lo:hi] for c in cols])]

    fileio.write_csv([(path, CSV_HEADER)], len(recording), block_fields)


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

