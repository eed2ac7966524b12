"""One run of one workload: set-ups, timed iterations, output checks, metrics.

Iterations fill a window of `seconds`, set-up excluded. The first is an
untimed warm-up, which also gives the reference output tree; an iteration
starts only while one of the median length still ends inside the window, so
a run overshoots it only when the minimum count needs more time. At most
TAIL_BEYOND iterations are timed, so iter_tail_s is always the slowest of
them: with one more, the tail rule's percentile would be the fastest. Untraced
runs report the end-to-end metrics. Traced runs alternate traced and untraced
iterations; the per-layer metrics are medians over the traced iterations, and
the tracing overhead is the traced minus the untraced median iteration time.
"""

from __future__ import annotations

import gc
import json
import resource
import shutil
import statistics
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import smokewatch.cli
from smokewatch.signal import window_count

import harness
import oracle
import tracing
import workloads

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
LAYER_MAP = json.loads((HERE / "layers.json").read_text(encoding="utf-8"))
TAIL_BEYOND = 10


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: dict  # name -> {"value": float, "unit": str}
    lines: list

    def to_json(self) -> str:
        return json.dumps({"correct": self.correct, "attempted": self.attempted,
                           "failed": self.failed, "metrics": self.metrics})


def check_detects(ops, ids, cmds, key, sample, cache) -> int:
    """Oracle-check every successful detect command; returns near-threshold windows."""
    near = 0
    for i, (op, cmd) in enumerate(zip(ids, cmds)):
        if cmd.model is None or op in ops.failed:
            continue
        rng = np.random.default_rng(list(key) + [i])
        try:
            near += oracle.check_detect(cmd.out, cmd.model, cmd.xyz, window_count,
                                        rng, sample, cache)
        except (oracle.CheckFailed, OSError, ValueError, KeyError, IndexError) as exc:
            ops.fail(op, f"detect check of {cmd.out}: {exc}")
    return near


def check_tree(ops, ids, cmds, root: Path, reference: dict, digest: dict) -> None:
    """Fail each command whose output files differ from the first iteration's."""
    for rel in harness.tree_differences(reference, digest):
        path = root / rel
        for op, cmd in zip(ids, cmds):
            if cmd.out in path.parents:
                ops.fail(op, f"{rel} differs from the first iteration")


def run_workload(name: str, seed: int, seconds: float, trace: bool, work: Path,
                 size: workloads.Size = workloads.FULL) -> Result:
    ops = harness.Ops(smokewatch.cli)
    wl = workloads.WORKLOADS[name](work, seed, size)
    try:
        return _run(wl, ops, seed, seconds, trace, size)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(wl, ops, seed, seconds, trace, size) -> Result:
    setup_times = []
    for _ in range(size.setups or wl.SETUPS):
        shutil.rmtree(wl.work, ignore_errors=True)
        t0 = perf_counter()
        wl.setup(ops)
        setup_times.append(perf_counter() - t0)

    cache: dict = {}
    reference = None
    plain, traced, layers = [], [], []
    last_spans: list = []
    laps: list[float] = []
    start = perf_counter()
    k = 0
    while (k < (3 if trace else 2)
           or (k <= TAIL_BEYOND
               and perf_counter() - start + statistics.median(laps) <= seconds)):
        lap = perf_counter()
        tracer = tracing.Tracer() if trace and k % 2 else None
        shutil.rmtree(wl.run_dir, ignore_errors=True)
        cmds = wl.commands()
        gc.collect()
        with tracer.installed() if tracer else nullcontext():
            t0 = perf_counter()
            ids = [ops.run(cmd.argv) for cmd in cmds]
            elapsed = perf_counter() - t0
        near = check_detects(ops, ids, cmds, (seed, k), size.sample_windows, cache)
        digest = harness.tree_digest(wl.run_dir)
        if reference is None:
            reference = digest
            for cmd in wl.probe():
                ops.run(cmd.argv)
        check_tree(ops, ids, cmds, wl.run_dir, reference, digest)
        if tracer:
            traced.append(elapsed)
            layers.append(tracing.layer_metrics(tracer.spans, near))
            last_spans = tracer.spans
        elif k:
            plain.append(elapsed)
        laps.append(perf_counter() - lap)
        k += 1

    lines = [f"workload {wl.__class__.__name__}: seed {seed}, {len(setup_times)} set-ups, "
             f"one warm-up and {k - 1} timed iterations in {perf_counter() - start:.1f} s "
             f"(window {seconds:g} s)"]
    quality_error = None
    try:
        quality = workloads.quality(*wl.reports())
    except (OSError, KeyError, ValueError, ZeroDivisionError) as exc:
        quality_error = f"quality metrics unavailable: {type(exc).__name__}: {exc}"
        quality = {}

    if trace:
        values = {n: statistics.median([row[n] for row in layers]) for n in layers[0]}
        overhead = statistics.median(traced) - statistics.median(plain)
        values["bench.trace_overhead_s"] = overhead
        lines.append(f"iter_s untraced {statistics.median(plain):.4f} s (n={len(plain)}), "
                     f"traced {statistics.median(traced):.4f} s (n={len(traced)}); "
                     f"tracing overhead {overhead:+.4f} s")
        lines.append("span breakdown of the last traced iteration "
                     "(name[group], calls, total s, self s):")
        lines += [f"  {key:<40} {calls:>6} {total:>10.4f} {own:>10.4f}"
                  for key, calls, total, own in tracing.breakdown(last_spans)]
        kind = "per_layer"
    else:
        tail_value, pct, rule_met = harness.tail(plain, TAIL_BEYOND)
        values = {
            "setup_s": statistics.median(setup_times),
            "iter_s": statistics.median(plain),
            "iter_tail_s": tail_value,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            **{n: quality.get(n, 0.0) for n in workloads.QUALITY},
        }
        lines.append(f"setup_s: median of {len(setup_times)} set-ups")
        lines.append(f"iter_s: median of {len(plain)} iterations: "
                     + " ".join(f"{t:.3f}" for t in plain))
        lines.append(f"iter_tail_s: p{pct:.1f} of {len(plain)} iterations"
                     + ("" if rule_met else
                        f" (fewer than {TAIL_BEYOND + 1}, so no percentile has "
                        f"{TAIL_BEYOND} samples beyond it: the slowest is reported)"))
        kind = "end_to_end"

    units = {m["name"]: m["unit"] for m in SPEC[kind]}
    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(units))} "
                           f"do not match BENCHMARK.json {kind}")
    metrics = {n: {"value": float(values[n]), "unit": units[n]} for n in units}
    for n, m in metrics.items():
        note = f"  [{LAYER_MAP[n]}]" if trace else ""
        lines.append(f"{n} = {m['value']:.6g} {m['unit']}{note}")
    lines.append(f"fail_ratio = {ops.fail_ratio:.6g} "
                 f"({len(ops.failed)} of {ops.attempted} operations failed)")
    lines += ops.errors
    if quality_error:
        lines.append(quality_error)
    correct = not ops.failed and quality_error is None
    return Result(correct, ops.attempted, len(ops.failed), metrics, lines)
