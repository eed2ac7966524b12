#!/usr/bin/env python3
"""Paired A/B runs of smokebench: two source trees, alternated in one checkout path.

    python3 benchmarks/ab_smokebench.py --a ../parent --b . --workload long_session \\
        --seed 1 --seconds 20 --pairs 10

Each of `--a` and `--b` is a directory holding a checkout (its `src/` and
`smokebench/`) or a git revision of the repository this script sits in,
exported by `git archive`. Before every run the chosen tree is copied into
the same checkout path, in a fresh temp directory, since `peak_rss_mb`
moves by 1-3 MiB with the checkout's directory. Then
`smokebench/run.py --trace 0` runs there, and its last stdout line is read.
Pair k runs A then B for even k, B then A for odd k, at one seed.

Per pair the script prints each metric of both runs. At the end it prints,
per metric, the median of each side, the quartiles of A's runs, and in how
many pairs B was better, A was better or they tied, "better" taken from the
`end_to_end` entries of `BENCHMARK.json` in the root of this repository
(metrics without one get no count). The last line is one JSON object with
every run. The exit code is 1 when a run reports a failed operation, an
incorrect output or a nonzero exit, else 0. smokebench itself is only run,
never changed.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SKIP = shutil.ignore_patterns(".git", ".smokebench", "__pycache__", "*.pyc")


def export(tree: str, dest: Path) -> None:
    """Put the tree `tree` names, a directory or a git revision of ROOT, at dest."""
    if Path(tree).is_dir():
        shutil.copytree(tree, dest, ignore=SKIP)
        return
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", tree],
                             stdout=subprocess.PIPE, check=True).stdout
    dest.mkdir(parents=True)
    with tempfile.TemporaryFile() as fh:
        fh.write(archive)
        fh.seek(0)
        with tarfile.open(fileobj=fh) as tar:
            tar.extractall(dest, filter="data")


def run_once(tree: Path, checkout: Path, args) -> dict:
    """smokebench/run.py on a fresh copy of tree at checkout: its result
    line, each metric as its value, and its exit code."""
    shutil.rmtree(checkout, ignore_errors=True)
    shutil.copytree(tree, checkout, ignore=SKIP)
    argv = [sys.executable, "smokebench/run.py", "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, stdout=subprocess.PIPE, text=True, check=False)
    try:
        result = json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    return {**result, "metrics": metrics, "exit_code": proc.returncode}


def directions() -> dict[str, str]:
    """"lower" or "higher" per end-to-end metric of BENCHMARK.json."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["better"] for m in doc["end_to_end"]}


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summary(pairs: list[dict], better: dict[str, str]) -> list[str]:
    """One line per metric: medians, A's quartiles and B's wins."""
    lines = []
    for metric in sorted(pairs[0]["a"]["metrics"]):
        runs = [(p["a"]["metrics"][metric], p["b"]["metrics"][metric]) for p in pairs
                if metric in p["a"]["metrics"] and metric in p["b"]["metrics"]]
        if not runs:
            continue
        a, b = zip(*runs)
        q1, q3 = quartiles(a)
        line = (f"{metric}: median A {statistics.median(a):.4g} B {statistics.median(b):.4g}"
                f" (A quartiles {q1:.4g}-{q3:.4g})")
        if metric in better:
            sign = 1 if better[metric] == "lower" else -1
            wins = [sign * (x - y) for x, y in zip(a, b)]
            line += (f"; B better in {sum(w > 0 for w in wins)}, A in "
                     f"{sum(w < 0 for w in wins)}, tied in {sum(w == 0 for w in wins)}"
                     f" of {len(wins)} pairs")
        lines.append(line)
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--a", required=True, help="the parent: a directory or a git revision")
    ap.add_argument("--b", required=True, help="the change: a directory or a git revision")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--pairs", type=int, default=10)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")

    with tempfile.TemporaryDirectory(prefix="ab-smokebench-") as tmp:
        trees = {"a": Path(tmp) / "a", "b": Path(tmp) / "b"}
        export(args.a, trees["a"])
        export(args.b, trees["b"])
        pairs = []
        for k in range(args.pairs):
            order = ("a", "b") if k % 2 == 0 else ("b", "a")
            pair = {side: run_once(trees[side], Path(tmp) / "checkout", args) for side in order}
            pairs.append(pair)
            for side in ("a", "b"):
                r = pair[side]
                metrics = " ".join(f"{m}={v:.4g}" for m, v in sorted(r["metrics"].items()))
                print(f"pair {k} {side.upper()} (run {order.index(side) + 1} of 2): "
                      f"correct={r['correct']} failed={r['failed']}/{r['attempted']} "
                      f"{metrics}", flush=True)
    print("\n".join(summary(pairs, directions())))
    print(json.dumps({"a": args.a, "b": args.b, "workload": args.workload,
                      "seed": args.seed, "seconds": args.seconds, "pairs": pairs}))
    ok = all(r["correct"] and not r["failed"] and r["exit_code"] == 0
             for pair in pairs for r in pair.values())
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
