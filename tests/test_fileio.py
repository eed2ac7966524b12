"""Atomic writes and the block-formatted CSV writers.

Writer oracle: the one-shot formatting of each CSV, one f-string per row
joined into a single text, written here independently of `csv_blocks`."""

import io
import os
import stat

import numpy as np
import pytest

from conftest import make_recording
from smokewatch import fileio
from smokewatch.detect import DetectionTrace, write_plot_csv, write_trace_csv
from smokewatch.fileio import BLOCK_ROWS, atomic_write_chunks, atomic_write_text
from smokewatch.signal import write_recording_csv


def mode_of(path) -> int:
    return stat.S_IMODE(os.stat(path).st_mode)


def test_atomic_writes_get_the_mode_of_a_plain_open(tmp_path):
    with open(tmp_path / "plain.txt", "w") as fh:
        fh.write("x")
    atomic_write_text(tmp_path / "text.txt", "x")
    atomic_write_chunks(tmp_path / "chunks.txt", iter(["x", "y"]))
    assert mode_of(tmp_path / "text.txt") == mode_of(tmp_path / "plain.txt")
    assert mode_of(tmp_path / "chunks.txt") == mode_of(tmp_path / "plain.txt")
    assert (tmp_path / "chunks.txt").read_text() == "xy"


def test_atomic_write_chunks_failure_leaves_the_target_alone(tmp_path):
    target = tmp_path / "t.csv"
    target.write_text("old\n")

    def chunks():
        yield "new\n"
        raise RuntimeError("formatting failed")

    with pytest.raises(RuntimeError):
        atomic_write_chunks(target, chunks())
    assert target.read_text() == "old\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["t.csv"]


@pytest.mark.parametrize("n", [0, 1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1])
def test_writers_equal_one_shot_formatting(n, tmp_path):
    # n trace windows at stride 1 over a session of max(n, 2) samples (a
    # recording needs 2); the plot and recording CSVs have max(n, 2) rows
    rng = np.random.default_rng(n)
    rec = make_recording(rng.normal(size=(max(n, 2), 3)))
    trace = DetectionTrace(starts=np.arange(n), outputs=rng.uniform(0, 1, n),
                           width=2, stride=1, threshold=0.5)
    t, x, y, z = (a.tolist() for a in (rec.t, rec.x, rec.y, rec.z))
    outputs = trace.outputs.tolist() + [None] * (len(rec) - n)

    want_recording = "\n".join(["t,x,y,z"] + [
        f"{a!r},{b!r},{c!r},{d!r}" for a, b, c, d in zip(t, x, y, z)]) + "\n"
    want_trace = "\n".join(["start,output,smoking"] + [
        f"{i},{o!r},{int(o >= 0.5)}" for i, o in enumerate(outputs[:n])]) + "\n"
    want_plot = "\n".join(["i,x,y,z,output"] + [
        f"{i},{b!r},{c!r},{d!r},{'' if o is None else repr(o)}"
        for i, (b, c, d, o) in enumerate(zip(x, y, z, outputs))]) + "\n"

    write_recording_csv(rec, tmp_path / "r.csv")
    buf = io.StringIO()
    write_recording_csv(rec, buf)
    write_trace_csv(trace, tmp_path / "t.csv")
    write_plot_csv(trace, rec, tmp_path / "p.csv")
    assert (tmp_path / "r.csv").read_bytes() == want_recording.encode()
    assert buf.getvalue() == want_recording
    assert (tmp_path / "t.csv").read_bytes() == want_trace.encode()
    assert (tmp_path / "p.csv").read_bytes() == want_plot.encode()


def test_plot_takes_outputs_at_any_window_order(tmp_path, monkeypatch):
    # starts need not be sorted; where two windows share a start the later
    # one's output is written, as a per-sample assignment in trace order
    # gives; the 10 rows span three blocks
    monkeypatch.setattr(fileio, "BLOCK_ROWS", 4)
    rec = make_recording(np.arange(30.0).reshape(10, 3))
    starts = np.array([7, 2, 9, 2, 0])
    trace = DetectionTrace(starts=starts, outputs=np.array([0.7, 0.2, 0.9, 0.25, 0.0]),
                           width=1, stride=1, threshold=0.5)
    write_plot_csv(trace, rec, tmp_path / "p.csv")
    rows = (tmp_path / "p.csv").read_text().splitlines()[1:]
    tails = [r.split(",")[4] for r in rows]
    assert tails == ["0.0", "", "0.25", "", "", "", "", "0.7", "", "0.9"]
