"""Atomic writes and the block-formatted CSV writers.

Writer oracle: the one-shot formatting of each CSV, one f-string per row
joined into a single text, written here independently of the writers' block
loops."""

import contextlib
import io
import os
import stat
from pathlib import Path

import numpy as np
import pytest

from conftest import make_recording
from smokewatch import detect, fileio
from smokewatch.detect import DetectionTrace, write_plot_csv, write_trace_csv
from smokewatch.errors import LengthMismatch, UnorderedStarts
from smokewatch.fileio import BLOCK_ROWS, atomic_open, atomic_write_text
from smokewatch.signal import write_recording_csv


def mode_of(path) -> int:
    return stat.S_IMODE(os.stat(path).st_mode)


def test_atomic_writes_get_the_mode_of_a_plain_open(tmp_path):
    with open(tmp_path / "plain.txt", "w") as fh:
        fh.write("x")
    atomic_write_text(tmp_path / "text.txt", "x")
    with atomic_open(tmp_path / "chunks.txt") as fh:
        fh.writelines(iter(["x", "y"]))
    assert mode_of(tmp_path / "text.txt") == mode_of(tmp_path / "plain.txt")
    assert mode_of(tmp_path / "chunks.txt") == mode_of(tmp_path / "plain.txt")
    assert (tmp_path / "chunks.txt").read_text() == "xy"


def test_atomic_writes_follow_a_umask_set_after_import(tmp_path):
    # the umask in force at each write decides the mode, not the one in force
    # when fileio was imported
    old = os.umask(0o077)
    try:
        with open(tmp_path / "plain.txt", "w") as fh:
            fh.write("x")
        atomic_write_text(tmp_path / "text.txt", "x")
        with atomic_open(tmp_path / "chunks.txt") as fh:
            fh.write("x")
    finally:
        os.umask(old)
    assert mode_of(tmp_path / "plain.txt") == 0o600
    assert mode_of(tmp_path / "text.txt") == mode_of(tmp_path / "plain.txt")
    assert mode_of(tmp_path / "chunks.txt") == mode_of(tmp_path / "plain.txt")


def test_atomic_open_failure_leaves_the_target_alone(tmp_path):
    target = tmp_path / "t.csv"
    target.write_text("old\n")

    def chunks():
        yield "new\n"
        raise RuntimeError("formatting failed")

    with pytest.raises(RuntimeError), atomic_open(target) as fh:
        fh.writelines(chunks())
    assert target.read_text() == "old\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["t.csv"]


@pytest.mark.parametrize("n", [0, 1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1])
def test_writers_equal_one_shot_formatting(n, tmp_path):
    # a session of max(n, 2) rows (a recording needs 2) and windows starting
    # at 0, stride, 2*stride, ... below n; a stride of BLOCK_ROWS + 1 leaves
    # blocks with no window. The trace and plot CSVs are written alone and
    # together.
    rng = np.random.default_rng(n)
    rec = make_recording(rng.normal(size=(max(n, 2), 3)))
    t, x, y, z = (a.tolist() for a in (rec.t, rec.x, rec.y, rec.z))
    want_recording = "\n".join(["t,x,y,z"] + [
        f"{a!r},{b!r},{c!r},{d!r}" for a, b, c, d in zip(t, x, y, z)]) + "\n"
    write_recording_csv(rec, tmp_path / "r.csv")
    buf = io.StringIO()
    write_recording_csv(rec, buf)
    assert (tmp_path / "r.csv").read_bytes() == want_recording.encode()
    assert buf.getvalue() == want_recording

    for stride in (1, 3, BLOCK_ROWS + 1):
        starts = list(range(0, n, stride))
        trace = DetectionTrace(starts=starts, outputs=rng.uniform(0, 1, len(starts)),
                               threshold=0.5)
        outputs = dict(zip(starts, trace.outputs.tolist()))
        want_trace = "\n".join(["start,output,smoking"] + [
            f"{i},{o!r},{int(o >= 0.5)}" for i, o in outputs.items()]) + "\n"
        want_plot = "\n".join(["i,x,y,z,output"] + [
            f"{i},{b!r},{c!r},{d!r},{repr(outputs[i]) if i in outputs else ''}"
            for i, (b, c, d) in enumerate(zip(x, y, z))]) + "\n"

        write_trace_csv(trace, tmp_path / "t.csv")
        write_plot_csv(trace, rec, tmp_path / "p.csv")
        write_trace_csv(trace, tmp_path / "t2.csv", rec, tmp_path / "p2.csv")
        for name, want in (("t", want_trace), ("p", want_plot),
                           ("t2", want_trace), ("p2", want_plot)):
            assert (tmp_path / f"{name}.csv").read_bytes() == want.encode(), (stride, name)


class FailingFile:
    """A text file whose writes fail after the first `allowed` ones."""

    def __init__(self, fh, allowed: int):
        self.fh, self.allowed = fh, allowed

    def write(self, text: str) -> None:
        if self.allowed == 0:
            raise OSError("disk full")
        self.allowed -= 1
        self.fh.write(text)


@pytest.mark.parametrize("allowed", [0, 2], ids=["header", "second_block"])
def test_a_failing_plot_write_replaces_neither_file(allowed, tmp_path, monkeypatch):
    # the plot write fails once the trace's temp file holds rows; both
    # targets keep their old text and no temp file is left
    monkeypatch.setattr(fileio, "BLOCK_ROWS", 4)
    rec = make_recording(np.arange(30.0).reshape(10, 3))
    trace = DetectionTrace(starts=np.arange(8), outputs=np.linspace(0, 1, 8),
                           threshold=0.5)
    (tmp_path / "t.csv").write_text("old trace\n")
    (tmp_path / "p.csv").write_text("old plot\n")

    @contextlib.contextmanager
    def failing_plot_open(path):
        with fileio.atomic_open(path) as fh:
            yield FailingFile(fh, allowed) if Path(path).name == "p.csv" else fh

    monkeypatch.setattr(detect, "atomic_open", failing_plot_open)
    with pytest.raises(OSError, match="disk full"):
        write_trace_csv(trace, tmp_path / "t.csv", rec, tmp_path / "p.csv")
    assert (tmp_path / "t.csv").read_text() == "old trace\n"
    assert (tmp_path / "p.csv").read_text() == "old plot\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["p.csv", "t.csv"]


def test_trace_rejects_unordered_starts():
    # the writers pair each block of samples with the windows starting in it
    # in one pass, so a trace holds its starts in strictly increasing order
    for starts in ([7, 2, 9], [0, 2, 2, 5], [-1, 3]):  # unsorted, repeated, negative
        with pytest.raises(UnorderedStarts):
            DetectionTrace(starts=np.array(starts), outputs=np.zeros(len(starts)),
                           threshold=0.5)


def test_plot_rejects_windows_past_the_session(tmp_path):
    rec = make_recording(np.zeros((5, 3)))
    trace = DetectionTrace(starts=[0, 5], outputs=[0.1, 0.2], threshold=0.5)
    with pytest.raises(LengthMismatch):
        write_plot_csv(trace, rec, tmp_path / "p.csv")
    assert not (tmp_path / "p.csv").exists()
