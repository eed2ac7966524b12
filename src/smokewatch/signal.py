"""Accelerometer signal handling.

Covers ingestion of 3-axis recordings from CSV, fixed-length resampling of
isolated gestures to plain (x, y, z) arrays, channel-mode feature extraction
into one 1-d network input and rolling-window counting for continuous
sessions. Recordings are immutable after construction and every operation is
a pure function of its inputs. CSV text is read and written in blocks, so
memory for a session holds its arrays, not its text.
"""

from __future__ import annotations

import codecs
import io
import warnings
from contextlib import nullcontext
from dataclasses import dataclass
from enum import Enum
from itertools import chain
from pathlib import Path
from typing import IO, Iterator, Union

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

    @property
    def target(self) -> float:
        """Network training target: 1 for the positive class, else 0."""
        return 1.0 if self.is_smoking else 0.0

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


Source = Union[str, Path, bytes, IO[bytes], IO[str]]

# Characters (bytes for a binary source) per read of a CSV source.
READ_CHUNK = 1 << 18


def _line_blocks(fh: Union[IO[bytes], IO[str]]) -> Iterator[str]:
    """The text of fh in blocks cut after the last "\\n" of each read, so that
    the blocks' splitlines() are, in order, the splitlines() of the whole text.
    Bytes are decoded incrementally, so a character split by a read decodes;
    bytes that are not UTF-8 raise MalformedRow naming their offset in fh."""
    decoder = codecs.getincrementaldecoder("utf-8")()
    read = 0  # bytes read so far

    def decode(chunk: bytes, final: bool = False) -> str:
        try:
            return decoder.decode(chunk, final)
        except UnicodeDecodeError as exc:  # exc.object: held-back bytes + chunk
            offset = read - len(exc.object) + exc.start
            raise MalformedRow(f"byte {offset}: not UTF-8 ({exc.reason})") from None

    tail = ""
    while chunk := fh.read(READ_CHUNK):
        if not isinstance(chunk, str):
            read += len(chunk)
            chunk = decode(chunk)
        text = tail + chunk
        cut = text.rfind("\n") + 1
        if cut:
            yield text[:cut]
        tail = text[cut:]
    tail += decode(b"", final=True)
    if tail:
        yield tail


def load_recording_csv(source: Source, label: GestureClass = GestureClass.UNKNOWN,
                       device: str = "") -> SensorRecording:
    """Parse a `t,x,y,z` CSV into a SensorRecording.

    Raises EmptyRecording for fewer than 2 data rows, MalformedRow for a bad
    header, column count or non-numeric or non-finite field, for a negative
    first timestamp or for bytes that are not UTF-8, and NonMonotonicTime
    for unordered timestamps.
    Warns (SampleRateWarning) when the median sample gap is more than 20%
    away from the 20 ms nominal.
    The text is parsed in blocks of about READ_CHUNK characters and never held
    whole. A non-finite field is raised only after the last block, so every
    error is the one a parse of the whole text would raise.
    """
    if isinstance(source, (str, Path)):
        opened = open(source, "rb")
    else:
        opened = nullcontext(io.BytesIO(source) if isinstance(source, bytes) else source)
    with opened as fh:
        blocks = _line_blocks(fh)
        head = next(blocks, "").splitlines()
        if not head or head[0].strip() != CSV_HEADER:
            raise MalformedRow(f"first line must be the header {CSV_HEADER!r}")
        parts = []
        lineno = 2  # the line number of lines[0]
        nonfinite = None  # the line of the first non-finite field
        first = None  # the line of the first data row
        for lines in chain([head[1:]], map(str.splitlines, blocks)):
            body = list(filter(str.strip, lines))  # blank lines are skipped
            if any(line.count(",") != 3 for line in body):
                _raise_first_bad_row(lines, lineno)
            fields = ",".join(body).split(",") if body else []
            try:
                data = np.fromiter(map(float, fields), dtype=np.float64, count=len(fields))
            except ValueError:
                _raise_first_bad_row(lines, lineno)
                raise
            data = data.reshape(len(body), 4)
            if first is None and body:
                first = next(n for n, line in enumerate(lines, start=lineno) if line.strip())
            finite = np.isfinite(data).all(axis=1)
            if nonfinite is None and not finite.all():
                linenos = [n for n, line in enumerate(lines, start=lineno) if line.strip()]
                nonfinite = linenos[np.flatnonzero(~finite)[0]]
            parts.append(data)
            lineno += len(lines)
    rows = sum(map(len, parts))
    if rows < 2:
        raise EmptyRecording(f"need at least 2 data rows, got {rows}")
    if nonfinite is not None:
        raise MalformedRow(f"line {nonfinite}: non-finite field")
    data = np.concatenate(parts)
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


def _raise_first_bad_row(lines: list[str], first_lineno: int) -> None:
    """Raise MalformedRow for the first data line with a bad column count or a
    field that float() rejects; the slow path behind load_recording_csv."""
    for lineno, line in enumerate(lines, start=first_lineno):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 4:
            raise MalformedRow(f"line {lineno}: expected 4 columns, got {len(parts)}")
        try:
            list(map(float, parts))
        except ValueError:
            raise MalformedRow(f"line {lineno}: non-numeric field") from None


def write_recording_csv(recording: SensorRecording, dest: Union[str, Path, IO[str]]) -> None:
    """Write the bit-exact CSV form (header `t,x,y,z`, repr floats, \\n),
    formatted in blocks of `fileio.BLOCK_ROWS` rows."""
    cols = (recording.t, recording.x, recording.y, recording.z)
    opened = fileio.atomic_open(dest) if isinstance(dest, (str, Path)) else nullcontext(dest)
    with opened as fh:
        fh.write(CSV_HEADER + "\n")
        for lo in range(0, len(recording), fileio.BLOCK_ROWS):
            rows = zip(*(c[lo:lo + fileio.BLOCK_ROWS].tolist() for c in cols))
            fh.write("".join(f"{t!r},{x!r},{y!r},{z!r}\n" for t, x, y, z in rows))


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

