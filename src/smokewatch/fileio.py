"""Atomic file writes and the JSON artifact format.

`atomic_open` yields a temp file that replaces its target only on a clean
exit, so several files can be written in lockstep and an error leaves every
target as it was; `atomic_write_text` writes one string through it. A
written file gets the mode `open(path, "w")` would give it under the umask
in force at the write. CSV writers format `BLOCK_ROWS` rows at a time into
the temp file, so no writer holds a session as text. Models, reports, ranges
and manifests are JSON with a one-space indent and a final newline, written
by `write_json` and read by `read_json`.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, TextIO, Union

# Rows per formatted CSV block: a block of plot rows is about 0.4 MiB of text.
BLOCK_ROWS = 4096


@contextmanager
def atomic_open(path: Union[str, Path]) -> Iterator[TextIO]:
    """A UTF-8 text file open for writing in place of `path`: a temp file in
    the same directory, renamed over `path` when the block exits cleanly. On
    any error the temp file is removed and the target left untouched."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    # as open(path, "w") does, the kernel takes the umask in force now off 0o666
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
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
