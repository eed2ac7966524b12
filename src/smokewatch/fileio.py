"""Atomic file writes, the CSV block writer and the JSON format.

`atomic_open` yields a temp file that replaces its target only on a clean
exit, so several files can be written in lockstep and an error leaves every
target as it was; `atomic_write_text` writes one string through it. A
written file gets the mode `open(path, "w")` would give it under the umask
in force at the write. Models, reports, ranges and manifests are JSON with
a one-space indent and a final newline, written by `write_json` and read by
`read_json`.

Every CSV file is written by `write_csv`, which owns the block loop: it
opens the targets through `atomic_open`, takes from its caller the fields
of `BLOCK_ROWS` rows at a time and joins them into text by `csv_block`, so
no writer holds a session as text and every number a CSV file holds is
turned into text here. A field is a `uint8` character matrix with one row
per CSV row, each row the field's text padded with NUL bytes:
`digit_chars` gives the integers, `output_chars` the detector outputs at
exactly the text of `"%.10f"`, and `repr_chars` the samples at exactly the
text of `repr`: by integer arithmetic for a block of values on the 10^-4
grid, as every recording this package writes is, and otherwise with `repr`
called once per distinct value of a block's columns together.
"""

from __future__ import annotations

import json
import os
from contextlib import ExitStack, contextmanager
from pathlib import Path
from typing import Callable, Iterator, Sequence, TextIO, Union

import numpy as np

# Rows per formatted CSV block: a block of plot rows is about 0.4 MiB of text.
BLOCK_ROWS = 4096


@contextmanager
def atomic_open(path: Union[str, Path]) -> Iterator[TextIO]:
    """A UTF-8 text file open for writing in place of `path`: a temp file in
    the same directory, renamed over `path` when the block exits cleanly. On
    any error the temp file is removed and the target left untouched. A
    missing directory, with its missing parents, is made when the temp
    file cannot be opened for the lack of it."""
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    # as open(path, "w") does, the kernel takes the umask in force now off 0o666
    flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL
    try:
        fd = os.open(tmp, flags, 0o666)
    except FileNotFoundError:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(tmp, flags, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: Union[str, Path], text: str) -> None:
    """Write text through `atomic_open`."""
    with atomic_open(path) as fh:
        fh.write(text)


def write_json(path: Union[str, Path], doc) -> None:
    """Write `doc` as an artifact: one-space indent, final newline, atomic."""
    atomic_write_text(path, json.dumps(doc, indent=1) + "\n")


def read_json(path: Union[str, Path]):
    """Decode a UTF-8 JSON file; ValueError for invalid JSON or UTF-8."""
    return json.loads(Path(path).read_text(encoding="utf-8"))


def repr_chars(columns: Sequence[np.ndarray]) -> list[np.ndarray]:
    """`repr(v)` of each value of each of a block's columns, 1-d float64
    arrays of one length, as one field of `csv_block` per column.

    A block whose every value lies on the 10^-4 grid is printed by integer
    arithmetic (`_grid_chars`), the samples and timestamps of every recording
    this package writes among them. Any other block calls `repr` once per
    distinct value of the block, values told apart by their bits, so -0.0
    and 0.0 keep their own texts."""
    values = np.concatenate(columns)
    # v * 1e4 overflows to inf for |v| near the largest double, off the grid
    with np.errstate(over="ignore"):
        n = np.rint(values * 1e4)
        on_grid = bool(np.all((n / 1e4 == values) & (np.abs(n) < 1e15)))
    if on_grid:
        chars = _grid_chars(values, n)
    else:
        keys, inverse = np.unique(values.view(np.int64), return_inverse=True)
        texts = list(map(repr, keys.view(np.float64).tolist()))
        table = np.array(texts, dtype=bytes)  # NUL-padded to the longest text
        chars = table[inverse].view(np.uint8).reshape(len(inverse), table.itemsize)
    return np.split(chars, len(columns))


def _grid_chars(values: np.ndarray, n: np.ndarray) -> np.ndarray:
    """`repr(v)` of each value of a 1-d float64 array as a field of
    `csv_block`, for values on the 10^-4 grid: n, the values times 1e4 as
    integral floats with |n| < 10^15, where each n / 1e4 == v.

    The division of two exact doubles is correctly rounded, so that equality
    says v is the double nearest n * 10^-4, a decimal of at most 15
    significant digits. It is then the only decimal of at most 15 digits
    that rounds to v (DBL_DIG is 15), which makes it the shortest text that
    reads back as v: `repr`'s digits. For n != 0, 1e-4 <= |v| < 1e11, and
    `repr` prints such a v without an exponent, as the sign (from the sign
    bit, so -0.0 keeps its "-"), the whole part, a point and the four
    decimals with their trailing zeros dropped after the first; a finer
    grid would reach values `repr` prints with an exponent."""
    scaled = np.abs(n).astype(np.int64)
    whole = scaled // 10_000
    frac = (scaled - whole * 10_000).astype(np.int32)
    whole_chars = digit_chars(whole)
    width = whole_chars.shape[1]
    chars = np.empty((width + 6, len(n)), dtype=np.uint8).T  # each column contiguous
    chars[:, 0] = np.signbit(values) * ord("-")  # or a padding NUL
    chars[:, 1:width + 1] = whole_chars
    chars[:, width + 1] = ord(".")
    _put_digits(frac, chars[:, width + 2:])
    # a decimal past the first with only zeros from it on is a padding NUL
    for col, unit in zip(range(width + 3, width + 6), (1000, 100, 10)):
        chars[:, col] *= frac // unit * unit != frac
    return chars


def _put_digits(rest: np.ndarray, chars: np.ndarray) -> np.ndarray:
    """Write the last `chars.shape[1]` decimal digits of each integer of
    `rest`, zero-padded, into the columns `chars`; return what is left of
    each integer above them. On 100,000 values `//` and a multiply took
    0.7 ms on int32 against 3.9 ms on int64, and `np.divmod` 1.9 ms on
    int32."""
    for col in range(chars.shape[1] - 1, -1, -1):
        above = rest // 10
        chars[:, col] = rest - above * 10 + ord("0")
        rest = above
    return rest


def digit_chars(values: np.ndarray) -> np.ndarray:
    """`str(v)` of each integer of a 1-d array of integers >= 0 as a field
    of `csv_block`."""
    values = np.asarray(values)
    width = len(str(int(values.max()))) if len(values) else 1
    values = values.astype(np.int32 if width < 10 else np.int64)
    chars = np.empty((width, len(values)), dtype=np.uint8).T  # each column contiguous
    _put_digits(values, chars)
    # a digit left of the first one v has is a padding NUL
    for col in range(width - 1):
        chars[:, col] *= values >= 10 ** (width - 1 - col)
    return chars


# Veltkamp's splitter for float64, 2**27 + 1: v * SPLITTER - (v * SPLITTER -
# v) keeps the top 26 bits of v's significand
SPLITTER = 134217729.0


def output_chars(values: np.ndarray) -> np.ndarray:
    """`"%.10f" % v` of each value of a 1-d float64 array as a field of
    `csv_block`, for values in [0, 1] (-0.0 prints its sign): v * 1e10
    rounded half-even to an integer, the rounding made on the exact product.

    Dekker's product splits v * 1e10 exactly into p + err, p the float
    product: 1e10 has 24 significant bits, so its products with the two
    26-bit halves of v (Veltkamp's split) are exact. The fraction
    p - floor(p) is exact, and so is it less 1/2 once p >= 1/4; that
    difference is then a multiple of ulp(p), so when it is not 0 it
    outweighs |err| <= ulp(p) / 2 (below p = 1/4 it lies near -1/2). The
    float sum of the two thus has the sign of the exact fraction less 1/2:
    above 0 rounds up, and 0 is a tie, which goes to the even integer.
    Rounding `v * 1e10` alone would round some values twice."""
    values = np.asarray(values, dtype=np.float64)
    p = values * 1e10
    big = values * SPLITTER
    high = big - (big - values)
    err = (high * 1e10 - p) + (values - high) * 1e10
    whole = np.floor(p)
    past_half = (p - whole - 0.5) + err
    n = whole.astype(np.int64)
    n += (past_half > 0) | ((past_half == 0) & ((n & 1) == 1))
    chars = np.empty((len(n), 13), dtype=np.uint8)
    chars[:, 0] = np.signbit(values) * ord("-")  # or a padding NUL
    chars[:, 2] = ord(".")
    upper, lower = np.divmod(n, 100_000)
    _put_digits(lower.astype(np.int32), chars[:, 8:])
    chars[:, 1] = _put_digits(upper.astype(np.int32), chars[:, 3:8]) + ord("0")
    return chars


def csv_block(fields: Sequence[np.ndarray]) -> str:
    """The CSV rows of `fields`, uint8 character matrices with one row per
    CSV row, each row a field's ASCII text padded with NUL bytes anywhere:
    the fields of a row joined by "," and ended by a newline, the NULs
    dropped."""
    widths = [field.shape[1] for field in fields]
    block = np.empty((len(fields[0]), sum(widths) + len(fields)), dtype=np.uint8)
    col = 0
    for field, width in zip(fields, widths):
        block[:, col:col + width] = field
        block[:, col + width] = ord(",")
        col += width + 1
    block[:, -1] = ord("\n")
    return block.tobytes().translate(None, b"\0").decode("ascii")


def write_csv(targets: Sequence[tuple[Union[str, Path], str]], n: int,
              block_fields: Callable[[int, int], Sequence[Sequence[np.ndarray]]]) -> None:
    """Write CSV files in lockstep: each `(path, header)` of targets through
    `atomic_open`, its header line, then for each block lo..hi-1 of
    BLOCK_ROWS of range(n) the rows `csv_block` makes of the fields
    `block_fields(lo, hi)` gives, one list of fields per target in order
    (from `digit_chars`, `output_chars` and `repr_chars`). An error replaces
    no target."""
    with ExitStack() as stack:
        outs = []
        for path, header in targets:
            outs.append(stack.enter_context(atomic_open(path)))
            outs[-1].write(header + "\n")
        for lo in range(0, n, BLOCK_ROWS):
            for fh, fields in zip(outs, block_fields(lo, min(lo + BLOCK_ROWS, n))):
                fh.write(csv_block(fields))
