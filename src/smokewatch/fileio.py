"""Atomic file writes, the CSV block writer and its parts, and the JSON format.

`atomic_open` yields a temp file that replaces its target only on a clean
exit, so several files can be written in lockstep and an error leaves every
target as it was; `atomic_write_text` writes one string through it. A
written file gets the mode `open(path, "w")` would give it under the umask
in force at the write. Models, reports, ranges and manifests are JSON with
a one-space indent and a final newline, written by `write_json` and read by
`read_json`.

Every CSV file is written by `write_csv`, which owns the block loop: it
opens the targets through `atomic_open` and has its caller format
`BLOCK_ROWS` rows at a time, so no writer holds a session as text. Every
float a CSV writer prints is turned into text here: detector outputs by
`output_texts`, at 10 decimals, and samples by `float_reprs`, which calls
`repr` once per distinct value of a block's column, since samples on a
sensor's grid repeat. A long CSV write runs in parts: contiguous ranges
of blocks, the first written by the caller and each later one by a forked
child into unnamed temp files, which the caller copies back in order. A
part whose child did not exit 0 the caller writes itself. `part_count`
sets how many parts, from the row count and the CPUs this process may run
on; nothing configures it.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import threading
from contextlib import ExitStack, contextmanager
from pathlib import Path
from signal import SIGKILL
from typing import Callable, Iterator, Sequence, TextIO, Union

import numpy as np

# Rows per formatted CSV block: a block of plot rows is about 0.4 MiB of text.
BLOCK_ROWS = 4096
# Fewest rows per part of a split CSV write: 16,384 plot rows take about 25
# ms of CPU to format on 1 milli-g samples (80 ms at full precision; 2-vCPU
# VM), against about 3 ms to fork a child and read its part back.
PART_ROWS = 16384


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


def float_reprs(values: np.ndarray) -> list[str]:
    """[repr(v) for v in values.tolist()] for a 1-d float64 array, with
    `repr` called once per distinct value. Values are told apart by their
    bits, so -0.0 and 0.0 keep their own texts."""
    keys, inverse = np.unique(values.view(np.int64), return_inverse=True)
    texts = np.array(list(map(repr, keys.view(np.float64).tolist())), dtype=object)
    return texts[inverse].tolist()


def output_texts(values: np.ndarray) -> list[str]:
    """["%.10f" % v for v in values.tolist()] for a 1-d float64 array, from
    one `%`-format of the block: outputs seldom repeat, so `float_reprs`
    would share little. Printing moves an output by at most 5e-11."""
    return (("%.10f\n" * len(values)) % tuple(values.tolist())).split("\n")[:-1]


def part_count(rows: int) -> int:
    """How many parts a CSV write of `rows` rows runs in: one per CPU
    this process may run on, each of at least PART_ROWS rows. 1 without
    `os.fork` or `os.sched_getaffinity`, and while another thread runs,
    since a forked child holds only the forking thread and would find any
    lock another thread held locked for good."""
    if (not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity")
            or threading.active_count() > 1):
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), rows // PART_ROWS))


def write_csv(targets: Sequence[tuple[Union[str, Path], str]], n: int, rows: int,
              format_block: Callable[[int, int], Sequence[str]]) -> None:
    """Write CSV files in lockstep: each `(path, header)` of targets through
    `atomic_open`, its header line, then for each block lo..hi-1 of
    BLOCK_ROWS of range(n) the texts `format_block(lo, hi)`, one per target
    in order. An error replaces no target.

    The blocks run in `part_count(rows)` parts of whole blocks (fewer if
    there are fewer blocks). Part 0 runs here. Each later part runs in a
    forked child that writes one unnamed temp file per target and ends by
    `os._exit`, 0 once its files are flushed and 1 on any error, so it never
    unwinds into the caller's frames. The caller then takes the parts in
    order: it copies a child's files onto the targets if the child exited 0
    and otherwise writes that part itself, so a fault that recurs is raised
    here. On any error every child still running is killed and reaped, and
    the temp files go with their last descriptor.
    """
    blocks = -(-n // BLOCK_ROWS)
    parts = max(1, min(part_count(rows), blocks))
    bounds = [min(n, blocks * k // parts * BLOCK_ROWS) for k in range(parts + 1)]

    def write_blocks(first: int, end: int, files: Sequence[TextIO]) -> None:
        for lo in range(first, end, BLOCK_ROWS):
            for fh, text in zip(files, format_block(lo, min(lo + BLOCK_ROWS, end))):
                fh.write(text)

    children = []  # [pid or None once reaped, part files]
    with ExitStack() as stack:
        outs = []
        for path, header in targets:
            outs.append(stack.enter_context(atomic_open(path)))
            outs[-1].write(header + "\n")
        try:
            for lo, hi in zip(bounds[1:-1], bounds[2:]):
                files = [tempfile.TemporaryFile("w+", encoding="utf-8", newline="")
                         for _ in outs]
                children.append([None, files])
                pid = os.fork()
                if pid == 0:
                    code = 1
                    try:
                        write_blocks(lo, hi, files)
                        for fh in files:
                            fh.flush()
                        code = 0
                    finally:
                        os._exit(code)
                children[-1][0] = pid
            write_blocks(bounds[0], bounds[1], outs)
            for child, lo, hi in zip(children, bounds[1:-1], bounds[2:]):
                status = os.waitpid(child[0], 0)[1]
                child[0] = None
                if os.waitstatus_to_exitcode(status) == 0:
                    for src, dst in zip(child[1], outs):
                        src.seek(0)
                        shutil.copyfileobj(src, dst)
                else:  # killed, out of temp space, or a fault that recurs here
                    write_blocks(lo, hi, outs)
        finally:
            for pid, files in children:
                if pid is not None:
                    os.kill(pid, SIGKILL)
                    os.waitpid(pid, 0)
                for fh in files:
                    fh.close()
