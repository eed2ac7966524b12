"""Atomic file writes shared by the model, report, trace and CSV writers.

`atomic_open` yields a temp file that replaces its target only on a clean
exit, so several files can be written in lockstep and an error leaves every
target as it was; `atomic_write_text` writes one string through it. CSV
writers format `BLOCK_ROWS` rows at a time into the temp file, so no writer
holds a session as text.
"""

from __future__ import annotations

import os
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, TextIO, Union

# Rows per formatted CSV block: a block of plot rows is about 0.4 MiB of text.
BLOCK_ROWS = 4096


# mkstemp creates its file with mode 0600; a renamed file gets the mode that
# open(path, "w") would give a new one. The umask can only be read by setting
# it, so it is read once, here.
_UMASK = os.umask(0)
os.umask(_UMASK)


@contextmanager
def atomic_open(path: Union[str, Path]) -> Iterator[TextIO]:
    """A UTF-8 text file open for writing in place of `path`: a temp file in
    the same directory, renamed over `path` when the block exits cleanly. On
    any error the temp file is removed and the target left untouched."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            yield fh
        os.chmod(tmp, 0o666 & ~_UMASK)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: Union[str, Path], text: str) -> None:
    """Write text through `atomic_open`."""
    with atomic_open(path) as fh:
        fh.write(text)
