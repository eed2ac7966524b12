#!/usr/bin/env python3
"""Benchmark of the smokewatch CLI, run in-process through `smokewatch.cli.main`.

    python3 smokebench/run.py --workload table1 --seed 1 --seconds 50 --trace 0
    python3 smokebench/run.py --workload all --seed 1 --seconds 50 --trace 1

Run from the root of a checkout; the package is imported from its `src/`.
Each workload runs as one process with one BLAS/OpenMP thread (see
`cap_threads`). Scratch files go to `.smokebench/` and are removed at
the end. The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics` (end-to-end metrics with `--trace 0`,
per-layer metrics with `--trace 1`); the exit code is 0 only when every
operation and output check passed. `--workload all` runs each workload in a
child process, one after another, and prefixes its metric names.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("table1", "long_session", "big_corpus")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def cap_threads() -> dict[str, str]:
    """Set every BLAS/OpenMP thread variable to 1; call before numpy loads.

    One thread is well within any nproc. On a 2-vCPU shared host one thread
    was as fast as two in back-to-back long_session runs, where two used
    about 10% more CPU time than wall time; one busy core leaves the other to
    the rest of the machine.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"
    return {var: os.environ[var] for var in THREAD_VARS}


def git_commit() -> str:
    """HEAD of the checkout, read from .git without starting git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(nproc: int, threads: dict[str, str]) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba": "present" if importlib.util.find_spec("numba") else "absent",
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": nproc,
        "threads": threads,
        "commit": git_commit(),
    }


def run_all(args) -> int:
    """Each workload in its own child process; a combined result line last."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
        combined["correct"] &= proc.returncode == 0 and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the window of iterations after set-up")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "smokewatch" / "__init__.py").is_file():
        print(f"error: no smokewatch sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    nproc = len(os.sched_getaffinity(0))
    threads = cap_threads()
    sys.path.insert(0, str(SRC))
    import bench  # imports numpy, so only after the thread cap

    print("env " + json.dumps(environment(nproc, threads)), flush=True)
    result = bench.run_workload(args.workload, args.seed, args.seconds,
                                bool(args.trace), ROOT / ".smokebench" / args.workload)
    print("\n".join(result.lines))
    print(result.to_json(), flush=True)
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
