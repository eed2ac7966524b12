"""LM training rows of the pipeline benchmark, written to BENCH_pipeline.json.

Records, for the Table-1 corpus of seed 7 (the README seed) unless said
otherwise:

- best-of-50 wall time of `synth.generate_table1`, and a SHA-256 over every
  recording's t/x/y/z bytes and every session's ranges, so two runs on
  different source trees show whether they synthesize the same corpus;
- best-of-10 wall time of `train_best_of` (at most 10 restarts) per channel
  mode, the number of restarts it ran (`restarts_run`) and whether its
  network equals the one the brute-force loop selects, which trains all 10
  restarts and keeps the highest training accuracy, ties going to the lowest
  index (`equals_full_loop`);
- one LM step at Table-1 scale for the X and XYZ modes, best of 200: the
  oracle step (`kernels.batch_jacobian` on `mlp.scaled_inputs`, then
  `train.solve_damped` on that J) and the Gram step (`kernels.batch_gram`
  plus `train.damped_step`, stored under the key `gram_step`), with their
  max relative difference, and
  `train.damped_step` alone on the prebuilt Gram matrix (`damped_step`);
- the primal shape of the smokebench `big_corpus` workload (2,170 training
  rows of seed 7's 3,100-gesture X corpus against 2,021 weights):
  `train.damped_step` on the prebuilt J'J, best of 10, and its step against
  the SVD closed form for mu = 1e-12 ... 1e12, with the bound k^2 * eps of
  `tests/test_train.py::test_primal_step_matches_the_svd_oracle`;
- `import smokewatch.cli` in a fresh interpreter: best-of-5 wall time of the
  process, its peak resident set and whether it loaded scipy;
- CSV text on two 100,000-row sessions (smokebench's `long_session` size):
  seed 7's full-precision N(0, 0.5) noise (`csv`), and smokebench's
  `long_session` at seed 7 as this tree's `synth.generate_sessions` makes
  it (`csv_long_session`; a tree that synthesizes other samples writes
  other text). For each, best of 5: `write_trace_csv` of a stride-1 trace
  with its plot and `write_recording_csv`, then `load_recording_csv` of
  the recording file (for `csv_long_session` also of its CRLF and CR-only
  copies, `load_crlf` and `load_cr`), and the size of that file; the
  recording, trace and plot files must equal the text this script builds with plain `repr` for samples and
  the fixed-decimal `"%.10f" % o` for outputs (`text_oracle_equal`), and
  every load must be `array_equal` to the recording;
- a Table-1-sized trace write (`trace_table1`), on that `long_session`
  recording's first 3,499 samples: `write_trace_csv` of a stride-1 trace
  of 3,300 seeded uniform outputs, a Table-1 session's windows, without a
  plot, best of 20 (`write_trace`), with `text_oracle_equal` as for the
  CSV rows above;
- CSV writes and loads of many short files (`csv_table1_corpus`): seed
  7's Table-1 corpus (training and test gestures and the 10 sessions), each
  recording written by `write_recording_csv` as `smokewatch synth` writes
  it, best of 5, and whether every file equals the plain-`repr` text of
  `text_oracle` (`text_oracle_equal`); then every file loaded one by one by
  `load_recording_csv`, best of 5, and whether every load is `array_equal`
  to its recording (`load_equal`);
- samples on the 10^-4 grid (`repr_grid_oracle`): 10,120,003 values, every
  50 Hz timestamp k / 50 up to one day, k / 10^4 for |k| below each power
  of ten up to 10^15 and seeded samples of a few g on the 1 milli-g grid,
  padded with zeros to recording blocks of BLOCK_ROWS rows of four columns. Each block's `fileio.repr_chars` text must
  equal its plain `repr` text (`mismatched_blocks` 0); `chars_s` and
  `repr_s` are the wall times of the two, one pass;
- detection on that `long_session` recording (`detect`): `detect_session`
  for the X and XYZ networks `train_best_of` selects, at strides 1 and 3,
  best of 10, against `tests/oracles.py`'s `window_outputs`, which cuts
  every window and runs `kernels.batch_forward` on it: the largest
  |difference| of the outputs (`max_abs_diff`, at most MAX_DETECT_DIFF)
  and whether the decisions agree on every window farther than
  `detect.NEAR_THRESHOLD` from the threshold (`decisions_equal`);
- detection with its writes on that recording (`detect_write`), as
  `smokewatch detect --plot` runs them, for the same networks and strides,
  20 alternating runs each of the band blocks inline and on the worker
  thread, the path forced by `detect.PIPELINE_BLOCKS`, and whether both
  paths wrote the same trace and plot bytes (`files_equal`; null on a tree
  that has no pipeline);
- the environment: Python and numpy versions, nproc, the CPUs this process
  may use and the BLAS thread variables.

Every best-of figure also records the CPU time of each repeat
(`cpu_min_s`, `cpu_median_s`): user plus system time of this process and of
its reaped children. CPU time does not remove a shared host's drift in
speed: on a 2-vCPU VM one CSV figure read from 0.30 to 0.57 s of CPU across
ten runs of one tree, so two trees compare by medians over several
alternating runs.

Each run is stored under its `--label` in the output file, keeping the other
labels, so one file holds the numbers from before and after a change:

    PYTHONPATH=src python3 benchmarks/bench_pipeline.py --label after

The script exits 1 when the Gram step and the oracle step differ by more
than MAX_REL_DIFF, when the primal step leaves the SVD oracle's bound, when
a mode's `train_best_of` network differs from the full loop's, when a
CSV write differs from its plain-`repr` and fixed-decimal text, when a CSV load differs from
the recording it was written from, when a grid block's text differs from
plain `repr` (`repr_grid_oracle`), when a detection differs from the
per-window oracle, or when the pipelined detection writes other bytes than
the inline one, so a run of it is an equivalence check. The
smokewatch sources are the ones the script imports, so
`PYTHONPATH=<other checkout>/src` measures another tree.

BLAS/OpenMP threads default to 1, as in smokebench, unless already set.
"""

from __future__ import annotations

import argparse
import hashlib
import inspect
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from dataclasses import replace
from functools import partial
from pathlib import Path
from time import perf_counter

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402  (after the thread variables)

import smokewatch  # noqa: E402
from smokewatch import detect, fileio, kernels, mlp, signal, synth, train  # noqa: E402
from smokewatch.signal import ChannelMode  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "smokebench"))
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from oracles import window_outputs  # noqa: E402
from workloads import long_session  # noqa: E402

MODES = tuple(ChannelMode)
RESTARTS = 10
REPEATS = 10
SYNTH_REPEATS = 50
IMPORT_REPEATS = 5
SEED = 7
MAX_REL_DIFF = 1e-12
# big_corpus: 3,100 gestures (smokebench's `class_counts`), 70% of them train
BIG_SMOKING = 448
BIG_CONFOUNDERS = 6 * 442
MUS = [10.0 ** k for k in range(-12, 13)]
CSV_ROWS = 100_000
CSV_REPEATS = 5
LINE_ENDS = {"crlf": b"\r\n", "cr": b"\r"}
DETECT_STRIDES = (1, 3)
# windows of a stride-1 trace on a Table-1 session (2,998-4,392 samples at seed 7)
TABLE1_WINDOWS = 3300
TRACE_REPEATS = 20
DETECT_WRITE_REPEATS = 20
MAX_DETECT_DIFF = 1e-12


def cpu_time() -> float:
    """User plus system CPU seconds of this process and its reaped children,
    so a tree whose CSV writes fork (as trees before `one-path-after` did)
    is measured whole. `getrusage` reports microseconds, where `os.times()`
    ticks in 10 ms on Linux."""
    return sum(r.ru_utime + r.ru_stime
               for r in map(resource.getrusage, (resource.RUSAGE_SELF,
                                                 resource.RUSAGE_CHILDREN)))


def best_of(fn, repeats: int) -> dict:
    return alternating({"": fn}, repeats)[""]


def alternating(fns: dict, repeats: int) -> dict:
    """`best_of`'s figures for each function of fns, the functions run in
    turn, `repeats` times over."""
    times = {key: ([], []) for key in fns}
    for _ in range(repeats):
        for key, fn in fns.items():
            c0, t0 = cpu_time(), perf_counter()
            fn()
            times[key][0].append(perf_counter() - t0)
            times[key][1].append(cpu_time() - c0)
    return {key: {"min_s": min(wall), "median_s": statistics.median(wall),
                  "cpu_min_s": min(cpu), "cpu_median_s": statistics.median(cpu),
                  "n": repeats}
            for key, (wall, cpu) in times.items()}


def synth_row() -> dict:
    """generate_table1 timing and a digest of everything it returns."""
    train_c, test_c, sessions = synth.generate_table1(master_seed=SEED)
    digest = hashlib.sha256()
    for rec in list(train_c) + list(test_c) + [rec for _, rec, _ in sessions]:
        for arr in (rec.t, rec.x, rec.y, rec.z):
            digest.update(np.ascontiguousarray(arr, dtype=np.float64).tobytes())
    for _, _, ranges in sessions:
        digest.update(np.array(ranges.ranges, dtype=np.int64).reshape(-1, 2).tobytes())
    return {"generate_table1": best_of(lambda: synth.generate_table1(master_seed=SEED),
                                       SYNTH_REPEATS),
            "sha256": digest.hexdigest()}


def full_loop_weights(dataset: train.LabeledDataset) -> np.ndarray:
    """The weights the brute-force restart loop selects: all RESTARTS
    restarts trained on the `partition` split, then the highest training
    accuracy at 0.5, ties going to the lowest index."""
    tr, va, _ = train.partition(dataset, SEED)
    best_w, best_acc = None, -1.0
    for r in range(RESTARTS):
        net, _ = train.train(tr, va, SEED ^ r)
        acc = np.mean((mlp.forward_batch(net, tr.features) >= 0.5) == tr.smoking)
        if acc > best_acc:
            best_w, best_acc = net.to_weight_vector(), acc
    return best_w


def restart_row(dataset: train.LabeledDataset) -> dict:
    """train_best_of timing, the restarts it ran and the full-loop check."""
    def run():
        return train.train_best_of(dataset, restarts=RESTARTS, master_seed=SEED)

    net, _, restarts, _ = run()
    return {**best_of(run, REPEATS), "restarts_run": len(restarts),
            "equals_full_loop": bool(np.array_equal(net.to_weight_vector(),
                                                    full_loop_weights(dataset)))}


def fresh_restart(dataset: train.LabeledDataset):
    """The 70% training split and an untrained network scaled to it, as a
    restart of `train.train` starts."""
    tr, _, _ = train.partition(dataset, SEED)
    return tr, replace(mlp.init_network(tr.input_size, mlp.DEFAULT_HIDDEN,
                                        np.random.default_rng(SEED), mode=tr.mode),
                       norm=mlp.NormParams.from_features(tr.features))


def step_rows(dataset: train.LabeledDataset) -> dict:
    """One LM step from a fresh restart on the 70% training split, at MU0."""
    tr, net = fresh_restart(dataset)
    mu = train.MU0

    def oracle():
        jac, y = kernels.batch_jacobian(net.w1, net.b1, net.w2, net.b2,
                                        mlp.scaled_inputs(net, tr.features))
        return train.solve_damped(jac, tr.targets - y, mu)

    xn = mlp.scaled_inputs(net, tr.features)
    k1 = xn @ xn.T + 1.0

    def gram():
        g, y, parts = kernels.batch_gram(net.w1, net.b1, net.w2, net.b2, xn, k1)
        return train.damped_step(g, tr.targets - y, mu,
                                 partial(kernels.gram_step_map, xn, parts))

    g, y, parts = kernels.batch_gram(net.w1, net.b1, net.w2, net.b2, xn, k1)
    err, back = tr.targets - y, partial(kernels.gram_step_map, xn, parts)
    want = oracle()
    return {"rows": len(tr), "n_weights": net.n_weights,
            "oracle_step": best_of(oracle, 20 * REPEATS),
            "gram_step": best_of(gram, 20 * REPEATS),
            "damped_step": best_of(lambda: train.damped_step(g, err, mu, back), 20 * REPEATS),
            "max_rel_diff": float(np.max(np.abs(gram() - want)) / np.max(np.abs(want)))}


def primal_rows() -> dict:
    """damped_step at the big_corpus shape, timed and checked against the SVD.

    A fresh X restart on the 70% split; J'J and J'e are built once, as an
    epoch of `train.train` builds them. The SVD oracle's step at mu is
    V diag(s / (s^2 + mu)) U'e from the thin SVD J = U S V'.
    """
    recordings = synth.generate_corpus(synth.mixed_counts(BIG_CONFOUNDERS, BIG_SMOKING),
                                       master_seed=SEED)
    tr, net = fresh_restart(train.build_dataset(recordings, ChannelMode.X))
    jac, y = kernels.batch_jacobian(net.w1, net.b1, net.w2, net.b2,
                                    mlp.scaled_inputs(net, tr.features))
    err = tr.targets - y
    a, rhs = jac.T @ jac, jac.T @ err
    timing = best_of(lambda: train.damped_step(a, rhs, train.MU0), REPEATS)
    u, s, vt = np.linalg.svd(jac, full_matrices=False)
    ue = u.T @ err
    worst = 0.0
    for mu in MUS:
        want = vt.T @ (s / (s * s + mu) * ue)
        got = train.damped_step(a, rhs, mu)
        worst = max(worst, float(np.linalg.norm(got - want) / np.linalg.norm(want)))
    return {"rows": len(tr), "n_weights": net.n_weights, "damped_step": timing,
            "svd_oracle": {"mus": [MUS[0], MUS[-1]], "max_rel_err": worst,
                           "bound": float((s[0] / s[-1]) ** 2 * np.finfo(float).eps)}}


def import_row() -> dict:
    """`import smokewatch.cli` in fresh interpreters: process wall time and
    peak RSS, from the sources this script imported.

    The child reads its peak from VmHWM in /proc/self/status, not from
    `ru_maxrss`: Linux carries a process's `ru_maxrss` across fork and exec,
    so a child of this script would report this script's own resident set.
    Started from a shell, the two agree to within 0.2 MiB.
    """
    code = ("import sys, smokewatch.cli; "
            "hwm = open('/proc/self/status').read().split('VmHWM:')[1].split()[0]; "
            "print(hwm, any(k.startswith('scipy') for k in sys.modules))")
    src = str(Path(smokewatch.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    times, rss = [], []
    for _ in range(IMPORT_REPEATS):
        t0 = perf_counter()
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout.split()
        times.append(perf_counter() - t0)
        rss.append(int(out[0]) / 1024.0)
    return {"min_s": min(times), "median_s": statistics.median(times),
            "n": IMPORT_REPEATS, "peak_rss_mib": statistics.median(rss),
            "scipy_loaded": out[1] == "True"}


def recording_text(rec: signal.SensorRecording) -> str:
    """The recording CSV of rec, built row by row with plain `repr`."""
    return "t,x,y,z\n" + "".join(f"{a!r},{b!r},{c!r},{d!r}\n" for a, b, c, d in zip(
        *(a.tolist() for a in (rec.t, rec.x, rec.y, rec.z))))


def text_oracle(rec: signal.SensorRecording, outputs: np.ndarray) -> dict:
    """The recording CSV of rec, and the trace and plot CSVs of a stride-1
    trace of outputs at threshold 0.5, built row by row: samples with plain
    `repr`, outputs at the fixed 10 decimals of `"%.10f" % o`."""
    x, y, z = (a.tolist() for a in (rec.x, rec.y, rec.z))
    out = outputs.tolist()
    tails = ["%.10f" % o for o in out] + [""] * (len(x) - len(out))
    return {
        "recording.csv": recording_text(rec),
        "trace.csv": "start,output,smoking\n" + "".join(
            f"{i},{e},{int(o >= 0.5)}\n" for i, (o, e) in enumerate(zip(out, tails))),
        "plot.csv": "i,x,y,z,output\n" + "".join(
            f"{i},{b!r},{c!r},{d!r},{e}\n" for i, (b, c, d, e) in enumerate(zip(x, y, z, tails))),
    }


def csv_rows(xyz: np.ndarray, line_ends: tuple[str, ...] = ()) -> dict:
    """CSV writes of the (CSV_ROWS, 3) session xyz, then its load, and the
    load of a copy of the recording file for each of `line_ends` (keys of
    LINE_ENDS) with that line end in place of each \n.

    The session lies on the 50 Hz grid, and the trace is one seeded uniform
    output per stride-1 window of 200 samples.
    """
    rec = signal.SensorRecording(t=np.arange(CSV_ROWS) / signal.NOMINAL_RATE_HZ,
                                 x=xyz[:, 0], y=xyz[:, 1], z=xyz[:, 2])
    outputs = np.random.default_rng(SEED).uniform(size=CSV_ROWS - 199)
    trace = detect.DetectionTrace(outputs=outputs, stride=1, threshold=0.5)
    row = {"rows": CSV_ROWS}
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        row["write_trace_plot"] = best_of(lambda: detect.write_trace_csv(
            trace, out / "trace.csv", rec, out / "plot.csv"), CSV_REPEATS)
        row["write_recording"] = best_of(lambda: signal.write_recording_csv(
            rec, out / "recording.csv"), CSV_REPEATS)
        row["text_oracle_equal"] = all(
            (out / name).read_bytes() == text.encode()
            for name, text in text_oracle(rec, outputs).items())
        src = out / "recording.csv"
        loaded = []
        row["load"] = best_of(lambda: loaded.append(signal.load_recording_csv(src)),
                              CSV_REPEATS)
        for name in line_ends:
            copy = out / f"recording-{name}.csv"
            copy.write_bytes(src.read_bytes().replace(b"\n", LINE_ENDS[name]))
            row[f"load_{name}"] = best_of(
                lambda: loaded.append(signal.load_recording_csv(copy)), CSV_REPEATS)
        row["load_equal"] = all(np.array_equal(getattr(got, a), getattr(rec, a))
                                for got in loaded for a in "txyz")
        row["file_bytes"] = src.stat().st_size
    return row


def trace_table1_row(xyz: np.ndarray) -> dict:
    """`write_trace_csv` of a stride-1 trace alone on the first
    TABLE1_WINDOWS + 199 samples of the (CSV_ROWS, 3) session xyz, a Table-1
    session's size; the file must equal the text `text_oracle` builds."""
    samples = TABLE1_WINDOWS + 199
    rec = signal.SensorRecording(t=np.arange(samples) / signal.NOMINAL_RATE_HZ,
                                 x=xyz[:samples, 0], y=xyz[:samples, 1], z=xyz[:samples, 2])
    outputs = np.random.default_rng(SEED).uniform(size=TABLE1_WINDOWS)
    trace = detect.DetectionTrace(outputs=outputs, stride=1, threshold=0.5)
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "trace.csv"
        row = {"rows": TABLE1_WINDOWS,
               "write_trace": best_of(lambda: detect.write_trace_csv(trace, out),
                                      TRACE_REPEATS)}
        row["text_oracle_equal"] = (out.read_bytes()
                                    == text_oracle(rec, outputs)["trace.csv"].encode())
    return row


def corpus_row() -> dict:
    """Every recording of seed 7's Table-1 corpus written to its own CSV,
    each file checked against `text_oracle`'s text, then all the files
    loaded one by one."""
    train_c, test_c, sessions = synth.generate_table1(master_seed=SEED)
    recordings = [*train_c, *test_c, *(rec for _, rec, _ in sessions)]
    with tempfile.TemporaryDirectory() as tmp:
        paths = [Path(tmp) / f"{k}.csv" for k in range(len(recordings))]

        def write():
            for rec, path in zip(recordings, paths):
                signal.write_recording_csv(rec, path)

        row = {"files": len(paths), "rows": sum(map(len, recordings)),
               "write": best_of(write, CSV_REPEATS)}
        row["text_oracle_equal"] = all(path.read_bytes() == recording_text(rec).encode()
                                       for rec, path in zip(recordings, paths))
        loaded = []
        row["file_bytes"] = sum(path.stat().st_size for path in paths)
        row["load"] = best_of(lambda: loaded.append(
            [signal.load_recording_csv(path) for path in paths]), CSV_REPEATS)
    row["load_equal"] = all(np.array_equal(getattr(got, a), getattr(rec, a))
                            for run in loaded for got, rec in zip(run, recordings)
                            for a in "txyz")
    return row


def grid_oracle_row() -> dict:
    """`fileio.repr_chars` against plain `repr` on values of the 10^-4 grid,
    a recording block of four columns at a time."""
    rng = np.random.default_rng(SEED)
    values = np.concatenate(
        [np.arange(86_400 * 50 + 1) / 50]
        + [rng.integers(-10**e + 1, 10**e, 300_000) / 1e4 for e in range(16)]
        + [np.array([-(10**15 - 1), 10**15 - 1]) / 1e4,
           np.round(rng.normal(0.0, 2.0, 1_000_000) * 1000) / 1000])
    block = 4 * fileio.BLOCK_ROWS
    values = np.concatenate([values, np.zeros(-len(values) % block)])
    row = {"values": len(values), "blocks": len(values) // block, "mismatched_blocks": 0,
           "chars_s": 0.0, "repr_s": 0.0}
    for lo in range(0, len(values), block):
        cols = values[lo:lo + block].reshape(4, -1)
        t0 = perf_counter()
        got = fileio.csv_block(fileio.repr_chars(list(cols)))
        t1 = perf_counter()
        want = "".join(f"{a!r},{b!r},{c!r},{d!r}\n" for a, b, c, d in zip(*cols.tolist()))
        row["chars_s"] += t1 - t0
        row["repr_s"] += perf_counter() - t1
        row["mismatched_blocks"] += got != want
    return row


def detect_rows(nets: dict, session: signal.SensorRecording) -> dict:
    """detect_session on the session for the X and XYZ networks, each
    stride's outputs against the per-window oracle's."""
    rows = {}
    for mode, net in nets.items():
        for stride in DETECT_STRIDES:
            run = partial(detect.detect_session, net, session, stride=stride)
            trace, want = run(), window_outputs(net, session, stride)
            far = np.abs(want - trace.threshold) > detect.NEAR_THRESHOLD
            rows[f"{mode.value}_stride{stride}"] = {
                "windows": len(trace),
                "detect_session": best_of(run, REPEATS),
                "max_abs_diff": float(np.max(np.abs(trace.outputs - want))),
                "decisions_equal": bool(np.array_equal(trace.decisions[far],
                                                       want[far] >= trace.threshold)),
                "near_threshold_windows": int(np.count_nonzero(~far)),
            }
    return rows


def detect_write_rows(nets: dict, session: signal.SensorRecording) -> dict:
    """`smokewatch detect --plot`'s detection and writes on the session for
    the X and XYZ networks at each stride, in-process: `detect_session` with
    a path and a plot_path, which makes the `write_trace_csv` call, with
    PIPELINE_BLOCKS set so that the band blocks run inline and so that they
    run on the worker (which also needs two usable CPUs), in alternating
    runs; whether the two paths wrote the same trace and plot bytes. A tree
    whose `detect_session` takes no plot_path runs it then
    `write_trace_csv`, inline only, and compares nothing (`files_equal`
    null)."""
    pipelines = "plot_path" in inspect.signature(detect.detect_session).parameters
    least = getattr(detect, "PIPELINE_BLOCKS", None)
    paths = {"inline": sys.maxsize, "pipelined": 1} if pipelines else {"inline": None}
    rows = {}
    with tempfile.TemporaryDirectory() as tmp:
        for mode, net in nets.items():
            for stride in DETECT_STRIDES:
                outs = {path: Path(tmp, f"{mode.value}{stride}-{path}") for path in paths}

                def run(path, out):
                    if not pipelines:
                        detect.write_trace_csv(detect.detect_session(net, session, stride),
                                               out / "trace.csv", session, out / "plot.csv")
                        return
                    detect.PIPELINE_BLOCKS = paths[path]
                    try:
                        detect.detect_session(net, session, stride, path=out / "trace.csv",
                                              plot_path=out / "plot.csv")
                    finally:
                        detect.PIPELINE_BLOCKS = least

                row = alternating({path: partial(run, path, out) for path, out in outs.items()},
                                  DETECT_WRITE_REPEATS)
                files = [{name: (out / name).read_bytes() for name in ("trace.csv", "plot.csv")}
                         for out in outs.values()]
                row["files_equal"] = all(f == files[0] for f in files) if pipelines else None
                rows[f"{mode.value}_stride{stride}"] = row
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True, help="key to store this run under")
    ap.add_argument("--out", default="BENCH_pipeline.json")
    args = ap.parse_args(argv)

    recordings, _, _ = synth.generate_table1(master_seed=SEED)
    datasets = {mode: train.build_dataset(recordings, mode) for mode in MODES}
    session = long_session(SEED, CSV_ROWS)
    nets = {mode: train.train_best_of(datasets[mode], restarts=RESTARTS, master_seed=SEED)[0]
            for mode in (ChannelMode.X, ChannelMode.XYZ)}
    run = {
        "env": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)),
            "threads": {v: os.environ[v] for v in THREAD_VARS},
        },
        "seed": SEED,
        "synth": synth_row(),
        "train_best_of": {mode.value: restart_row(ds) for mode, ds in datasets.items()},
        "lm_step": {mode.value: step_rows(datasets[mode])
                    for mode in (ChannelMode.X, ChannelMode.XYZ)},
        "primal_step": primal_rows(),
        "import_cli": import_row(),
        "csv": csv_rows(np.random.default_rng(SEED).normal(0.0, 0.5, size=(CSV_ROWS, 3))),
        "csv_long_session": csv_rows(session[2], tuple(LINE_ENDS)),
        "csv_table1_corpus": corpus_row(),
        "trace_table1": trace_table1_row(session[2]),
        "repr_grid_oracle": grid_oracle_row(),
        "detect": detect_rows(nets, session[0]),
        "detect_write": detect_write_rows(nets, session[0]),
    }
    path = Path(args.out)
    doc = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    doc[args.label] = run
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    json.dump(run, sys.stdout, indent=1)
    print()
    code = 0
    worst = max(row["max_rel_diff"] for row in run["lm_step"].values())
    if worst > MAX_REL_DIFF:
        print(f"gram step differs from the oracle step by {worst:.3g} "
              f"(> {MAX_REL_DIFF:g})", file=sys.stderr)
        code = 1
    for mode, row in run["train_best_of"].items():
        if not row["equals_full_loop"]:
            print(f"{mode}: train_best_of differs from the full restart loop",
                  file=sys.stderr)
            code = 1
    for key in ("csv", "csv_long_session"):
        csv = run[key]
        if not csv["load_equal"]:
            print(f"{key}: a CSV load differs from its recording", file=sys.stderr)
            code = 1
        if not csv["text_oracle_equal"]:
            print(f"{key}: a CSV write differs from its plain-repr and fixed-decimal "
                  "text", file=sys.stderr)
            code = 1
    if not run["trace_table1"]["text_oracle_equal"]:
        print("trace_table1: a write differs from its fixed-decimal text", file=sys.stderr)
        code = 1
    if not run["csv_table1_corpus"]["load_equal"]:
        print("csv_table1_corpus: a CSV load differs from its recording", file=sys.stderr)
        code = 1
    if not run["csv_table1_corpus"]["text_oracle_equal"]:
        print("csv_table1_corpus: a CSV write differs from its plain-repr text",
              file=sys.stderr)
        code = 1
    if run["repr_grid_oracle"]["mismatched_blocks"]:
        print(f"repr_grid_oracle: {run['repr_grid_oracle']['mismatched_blocks']} grid blocks "
              "differ from their plain-repr text", file=sys.stderr)
        code = 1
    for key, row in run["detect"].items():
        if row["max_abs_diff"] > MAX_DETECT_DIFF or not row["decisions_equal"]:
            print(f"detect {key}: outputs differ from the per-window oracle by "
                  f"{row['max_abs_diff']:.3g} (> {MAX_DETECT_DIFF:g}) or decide "
                  f"otherwise", file=sys.stderr)
            code = 1
    for key, row in run["detect_write"].items():
        if row["files_equal"] is False:
            print(f"detect_write {key}: the pipelined run wrote other trace or plot bytes "
                  "than the inline run", file=sys.stderr)
            code = 1
    svd = run["primal_step"]["svd_oracle"]
    if svd["max_rel_err"] > svd["bound"]:
        print(f"primal step differs from the SVD oracle by {svd['max_rel_err']:.3g} "
              f"(> k^2 * eps = {svd['bound']:.3g})", file=sys.stderr)
        code = 1
    return code


if __name__ == "__main__":
    sys.exit(main())
