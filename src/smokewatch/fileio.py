"""Small file helpers shared by model/report/trace writers.

Files are written atomically (temp file, then rename). CSV writers format
`BLOCK_ROWS` rows at a time and stream the blocks into the temp file, so no
writer holds a whole session as text.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path
from typing import Callable, Iterable, Iterator, Union

# Rows per formatted CSV block: a block of plot rows is about 0.4 MiB of text.
BLOCK_ROWS = 4096


# mkstemp creates its file with mode 0600; a renamed file gets the mode that
# open(path, "w") would give a new one. The umask can only be read by setting
# it, so it is read once, here.
_UMASK = os.umask(0)
os.umask(_UMASK)


def atomic_write_chunks(path: Union[str, Path], chunks: Iterable[str]) -> None:
    """Write the chunks in order via a temp file in the same directory, then
    rename; on any error the temp file is removed and the target untouched."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(chunks)
        os.chmod(tmp, 0o666 & ~_UMASK)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: Union[str, Path], text: str) -> None:
    """Write via a temp file in the same directory, then rename."""
    atomic_write_chunks(path, (text,))


def csv_blocks(header: str, n_rows: int,
               rows: Callable[[int, int], Iterable[str]]) -> Iterator[str]:
    """The header line, then rows 0..n_rows-1 formatted by `rows(lo, hi)`
    BLOCK_ROWS at a time, one string per block; every line ends in "\\n"."""
    yield header + "\n"
    for lo in range(0, n_rows, BLOCK_ROWS):
        yield "\n".join(rows(lo, min(lo + BLOCK_ROWS, n_rows))) + "\n"
