"""LM training rows of the pipeline benchmark, written to BENCH_pipeline.json.

Records, for the Table-1 corpus of seed 7 (the README seed):

- best-of-50 wall time of `synth.generate_table1`, and a SHA-256 over every
  recording's t/x/y/z bytes and every session's ranges, so two runs on
  different source trees show whether they synthesize the same corpus;
- best-of-10 wall time of `train_best_of` (10 restarts) per channel mode;
- one LM step at Table-1 scale for the X and XYZ modes, best of 200: the
  oracle step (`mlp.outputs_and_jacobian` plus `train.solve_damped`) and the
  Gram step (`kernels.batch_gram` plus `train.damped_step`, stored under the
  key `gram_step`), with their max relative difference;
- the environment: Python, numpy and scipy versions, nproc and the BLAS
  thread variables.

Each run is stored under its `--label` in the output file, keeping the other
labels, so one file holds the numbers from before and after a change:

    PYTHONPATH=src python3 benchmarks/bench_pipeline.py --label after

The script exits 1 when the Gram step and the oracle step differ by more
than MAX_REL_DIFF, so a run of it is an equivalence check.

BLAS/OpenMP threads default to 1, as in smokebench, unless already set.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import sys
from dataclasses import replace
from functools import partial
from pathlib import Path
from time import perf_counter

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402  (after the thread variables)
import scipy  # noqa: E402

from smokewatch import kernels, mlp, synth, train  # noqa: E402
from smokewatch.signal import ChannelMode  # noqa: E402

MODES = (ChannelMode.X, ChannelMode.Y, ChannelMode.Z, ChannelMode.XYZ, ChannelMode.AVG)
RESTARTS = 10
REPEATS = 10
SYNTH_REPEATS = 50
SEED = 7
MAX_REL_DIFF = 1e-12


def best_of(fn, repeats: int) -> dict:
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return {"min_s": min(times), "median_s": statistics.median(times), "n": repeats}


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


def step_rows(dataset: train.LabeledDataset) -> dict:
    """One LM step from a fresh restart on the 70% training split, at MU0."""
    tr, _, _ = train.partition(dataset, SEED)
    net = replace(mlp.init_network(tr.input_size, mlp.DEFAULT_HIDDEN,
                                   np.random.default_rng(SEED), mode=tr.mode),
                  norm=mlp.NormParams.from_features(tr.features))
    mu = train.MU0

    def oracle():
        y, jac = mlp.outputs_and_jacobian(net, tr.features)
        return train.solve_damped(jac, tr.targets - y, mu)

    xn = mlp.scaled_inputs(net, tr.features)
    k1 = xn @ xn.T + 1.0

    def gram():
        g, y, parts = kernels.batch_gram(net.w1, net.b1, net.w2, net.b2, xn, k1)
        return train.damped_step(g, tr.targets - y, mu,
                                 partial(kernels.gram_step_map, xn, parts))

    want = oracle()
    return {"rows": len(tr), "n_weights": net.n_weights,
            "oracle_step": best_of(oracle, 20 * REPEATS),
            "gram_step": best_of(gram, 20 * REPEATS),
            "max_rel_diff": float(np.max(np.abs(gram() - want)) / np.max(np.abs(want)))}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True, help="key to store this run under")
    ap.add_argument("--out", default="BENCH_pipeline.json")
    args = ap.parse_args(argv)

    recordings, _, _ = synth.generate_table1(master_seed=SEED)
    datasets = {mode: train.build_dataset(recordings, mode) for mode in MODES}
    run = {
        "env": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "machine": platform.machine(),
            "nproc": os.cpu_count(),
            "threads": {v: os.environ[v] for v in THREAD_VARS},
        },
        "seed": SEED,
        "synth": synth_row(),
        "train_best_of": {
            mode.value: best_of(lambda ds=ds: train.train_best_of(
                ds, restarts=RESTARTS, master_seed=SEED), REPEATS)
            for mode, ds in datasets.items()},
        "lm_step": {mode.value: step_rows(datasets[mode])
                    for mode in (ChannelMode.X, ChannelMode.XYZ)},
    }
    path = Path(args.out)
    doc = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    doc[args.label] = run
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    json.dump(run, sys.stdout, indent=1)
    print()
    worst = max(row["max_rel_diff"] for row in run["lm_step"].values())
    if worst > MAX_REL_DIFF:
        print(f"gram step differs from the oracle step by {worst:.3g} "
              f"(> {MAX_REL_DIFF:g})", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
