"""Accelerometer signal handling.

Covers ingestion of 3-axis recordings from CSV, fixed-length resampling of
isolated gestures, channel-mode feature extraction and rolling-window
counting for continuous sessions. All types are immutable after
construction and every operation is a pure function of its inputs. CSV text
is read and written in blocks, so memory for a session holds its arrays,
not its text.
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

from .fileio import atomic_write_chunks, csv_blocks

from .errors import (
    EmptyRecording,
    InvalidSize,
    LengthMismatch,
    MalformedRow,
    NonMonotonicTime,
    TooFewSamples,
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
        if not (np.all(np.isfinite(self.t)) and self.t[0] >= 0.0):
            raise ValueError("timestamps must be finite and non-negative")
        if np.any(np.diff(self.t) <= 0.0):
            raise NonMonotonicTime("timestamps must be strictly increasing")
        for name in ("x", "y", "z"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} values must be finite")

    def __len__(self) -> int:
        return self.t.shape[0]

    @property
    def duration(self) -> float:
        return float(self.t[-1] - self.t[0])


@dataclass(frozen=True, eq=False)
class FeatureSeries:
    """Per-axis values on a uniform time grid."""

    x: np.ndarray
    y: np.ndarray
    z: np.ndarray

    def __post_init__(self):
        for name in ("x", "y", "z"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=np.float64))
        if not (self.x.shape == self.y.shape == self.z.shape) or self.x.ndim != 1:
            raise LengthMismatch("x, y, z must be 1-d and of identical length")

    @property
    def n(self) -> int:
        return self.x.shape[0]


@dataclass(frozen=True, eq=False)
class FeatureVector:
    """Fixed-length network input; 3n values for XYZ, n otherwise."""

    mode: ChannelMode
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=np.float64))
        if self.values.ndim != 1:
            raise LengthMismatch("feature values must be 1-d")
        if self.mode is ChannelMode.XYZ and self.values.shape[0] % 3 != 0:
            raise LengthMismatch("XYZ feature length must be a multiple of 3")

    def __len__(self) -> int:
        return self.values.shape[0]


Source = Union[str, Path, bytes, IO[bytes], IO[str]]

# Characters (bytes for a binary source) per read of a CSV source.
READ_CHUNK = 1 << 18


def _line_blocks(fh: Union[IO[bytes], IO[str]]) -> Iterator[str]:
    """The text of fh in blocks cut after the last "\\n" of each read, so that
    the blocks' splitlines() are, in order, the splitlines() of the whole text.
    Bytes are decoded incrementally, so a character split by a read decodes."""
    decode = codecs.getincrementaldecoder("utf-8")().decode
    tail = ""
    while chunk := fh.read(READ_CHUNK):
        text = tail + (chunk if isinstance(chunk, str) else decode(chunk))
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
    header, column count or non-numeric or non-finite field, and
    NonMonotonicTime for unordered timestamps.
    Warns (SampleRateWarning) when the median sample gap is more than 20%
    away from the 20 ms nominal.
    The text is parsed in blocks of about READ_CHUNK characters and never held
    whole. A non-finite field is raised only after the last block, so every
    error is the one a parse of the whole text would raise.
    """
    if isinstance(source, (str, Path)):
        opened = open(source, encoding="utf-8")
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
    if np.any(np.diff(t) <= 0.0):
        raise NonMonotonicTime("timestamps must be strictly increasing")
    median_gap = float(np.median(np.diff(t)))
    nominal = 1.0 / NOMINAL_RATE_HZ
    if abs(median_gap - nominal) > 0.2 * nominal:
        warnings.warn(
            f"median sample gap {median_gap * 1e3:.2f} ms deviates >20% from "
            f"{nominal * 1e3:.0f} ms nominal",
            SampleRateWarning,
            stacklevel=2,
        )
    return SensorRecording(t=t, x=data[:, 1], y=data[:, 2], z=data[:, 3],
                           label=label, device=device)


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

    def rows(lo: int, hi: int) -> Iterator[str]:
        block = zip(*(c[lo:hi].tolist() for c in cols))
        return (f"{t!r},{x!r},{y!r},{z!r}" for t, x, y, z in block)

    chunks = csv_blocks(CSV_HEADER, len(recording), rows)
    if isinstance(dest, (str, Path)):
        atomic_write_chunks(dest, chunks)
    else:
        dest.writelines(chunks)


def resample_uniform(recording: SensorRecording, n: int = FEATURE_POINTS) -> FeatureSeries:
    """Piecewise-linear resampling onto n uniform times over [t_first, t_last].

    The first and last output values equal the recording's first and last
    sample values exactly.
    """
    if n < 2:
        raise InvalidSize("n must be >= 2")
    if len(recording) < 2:
        raise TooFewSamples("resampling needs at least 2 samples")
    grid = np.linspace(recording.t[0], recording.t[-1], n)
    return FeatureSeries(
        x=np.interp(grid, recording.t, recording.x),
        y=np.interp(grid, recording.t, recording.y),
        z=np.interp(grid, recording.t, recording.z),
    )


def extract_features(series: FeatureSeries, mode: ChannelMode) -> FeatureVector:
    """Select the network input for a channel mode.

    X/Y/Z pass the axis through verbatim, XYZ concatenates x then y then z,
    AVG takes the per-timestep mean of the three axes.
    """
    if mode is ChannelMode.X:
        values = series.x.copy()
    elif mode is ChannelMode.Y:
        values = series.y.copy()
    elif mode is ChannelMode.Z:
        values = series.z.copy()
    elif mode is ChannelMode.XYZ:
        values = np.concatenate([series.x, series.y, series.z])
    else:
        values = (series.x + series.y + series.z) / 3.0
    return FeatureVector(mode=mode, values=values)


def window_count(length: int, width: int, stride: int) -> int:
    """Number of full rolling windows: floor((L - width)/stride) + 1, or 0."""
    if length < width:
        return 0
    return (length - width) // stride + 1

