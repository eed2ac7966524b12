"""Per-layer spans, recorded from outside the smokewatch package.

`Tracer.installed()` swaps each traced function for a wrapper under every
module name that binds it (for example `train` imports `resample_uniform` by
name, so patching `signal` alone would miss those calls). Each call records
one span: name, start, end, the enclosing span and a few attributes computed
from the arguments or the result. Spans stay in memory; `layer_metrics` turns
one iteration's spans into the per-layer metrics listed in BENCHMARK.json.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Optional


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1  # index of the enclosing span, -1 for a root
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: list[list[Span]] = [[] for _ in spans]
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append(span)
    out = []
    for span, kids in zip(spans, children):
        covered = 0.0
        reach = span.start
        for kid in sorted(kids, key=lambda k: k.start):
            lo = max(kid.start, reach)
            hi = min(kid.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.duration - covered)
    return out


def _rows(args, kwargs, result):
    return {"rows": args[4].shape[0]}


def _jacobian(args, kwargs, result):
    # bytes the kernel reads (inputs, first-layer weights) and writes (J, y)
    w1, xn = args[0], args[4]
    jac, y = result
    return {"bytes": xn.nbytes + w1.nbytes + jac.nbytes + y.nbytes}


def _solve(args, kwargs, result):
    jac = args[0]
    return {"dual": int(jac.shape[1] > jac.shape[0])}


def _accepted_epochs(args, kwargs, result):
    return {"accepted": result[1].epochs_run, "group": args[0].mode.value}


def _windows(args, kwargs, result):
    return {"n": len(result), "group": args[0].mode.value}


def _length(args, kwargs, result):
    return {"n": len(result)}


def _command(args, kwargs, result):
    return {"group": args[0][0]}


def _text_bytes(args, kwargs, result):
    return {"bytes": len(args[1].encode("utf-8"))}


# (module, function, attributes recorded on each call)
TARGETS: tuple[tuple[str, str, Optional[Callable]], ...] = (
    ("synth", "generate_table1", None),
    ("synth", "generate_corpus", None),
    ("synth", "generate_sessions", None),
    ("signal", "load_recording_csv", _length),
    ("signal", "write_recording_csv", None),
    ("signal", "resample_uniform", None),
    ("signal", "extract_features", None),
    ("kernels", "batch_forward", _rows),
    ("kernels", "batch_jacobian", _jacobian),
    ("mlp", "forward_batch", None),
    ("train", "build_dataset", None),
    ("train", "train", _accepted_epochs),
    ("train", "solve_damped", _solve),
    ("metrics", "evaluate", None),
    ("detect", "detect_session", _windows),
    ("detect", "score_trace", None),
    ("detect", "write_trace_csv", None),
    ("detect", "write_plot_csv", None),
    ("cli", "main", _command),
    ("fileio", "atomic_write_text", _text_bytes),
)


class Tracer:
    """Collects spans while installed; one tracer per traced iteration."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def _wrap(self, name: str, fn: Callable, attrs: Optional[Callable]) -> Callable:
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, perf_counter(), parent=stack[-1] if stack else -1)
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
            if attrs is not None:
                span.attrs = attrs(args, kwargs, result)
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Patch every binding of every target inside `smokewatch`, then restore."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "smokewatch" or key.startswith("smokewatch."))]
        patched = []
        try:
            for mod_name, fn_name, attrs in TARGETS:
                original = getattr(sys.modules[f"smokewatch.{mod_name}"], fn_name)
                wrapper = self._wrap(f"{mod_name}.{fn_name}", original, attrs)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            patched.append((module, attr, original))
            yield self
        finally:
            for module, attr, original in reversed(patched):
                setattr(module, attr, original)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span], near_threshold: int) -> dict[str, float]:
    """Per-layer metrics of one iteration, keyed as in BENCHMARK.json."""
    own = self_times(spans)
    by_name: dict[str, list[int]] = defaultdict(list)
    for i, span in enumerate(spans):
        by_name[span.name].append(i)

    def total(*names):
        return sum(spans[i].duration for n in names for i in by_name[n])

    def self_total(name):
        return sum(own[i] for i in by_name[name])

    def count(name):
        return len(by_name[name])

    def attr(name, key):
        return sum(spans[i].attrs[key] for i in by_name[name])

    def outermost(layer):
        # spans of the layer not nested in another span of the same layer
        prefix = layer + "."
        return sum(s.duration for s in spans if s.name.startswith(prefix)
                   and (s.parent < 0 or not spans[s.parent].name.startswith(prefix)))

    def inside(i, name):
        i = spans[i].parent
        while i >= 0:
            if spans[i].name == name:
                return True
            i = spans[i].parent
        return False

    solves = count("train.solve_damped")
    return {
        "synth.generate_s": outermost("synth"),
        "signal.load_csv_s": total("signal.load_recording_csv"),
        "signal.load_csv_rows": attr("signal.load_recording_csv", "n"),
        "signal.write_csv_s": total("signal.write_recording_csv"),
        "signal.resample_s": total("signal.resample_uniform", "signal.extract_features"),
        "kernels.jacobian_s": total("kernels.batch_jacobian"),
        "kernels.jacobian_calls": count("kernels.batch_jacobian"),
        "kernels.jacobian_bytes": attr("kernels.batch_jacobian", "bytes"),
        "kernels.forward_s": total("kernels.batch_forward"),
        "kernels.forward_rows": attr("kernels.batch_forward", "rows"),
        "mlp.forward_batch_s": self_total("mlp.forward_batch"),
        "train.build_dataset_s": total("train.build_dataset"),
        "train.train_s": self_total("train.train"),
        "train.solve_s": total("train.solve_damped"),
        "train.solve_calls": solves,
        "train.solve_dual_share": _ratio(attr("train.solve_damped", "dual"), solves),
        "train.lm_epochs": sum(1 for i in by_name["kernels.batch_jacobian"]
                               if inside(i, "train.train")),
        "train.step_accept_ratio": _ratio(attr("train.train", "accepted"), solves),
        "metrics.evaluate_s": total("metrics.evaluate"),
        "detect.detect_session_s": self_total("detect.detect_session"),
        "detect.windows": attr("detect.detect_session", "n"),
        "detect.score_s": total("detect.score_trace"),
        "detect.write_trace_s": total("detect.write_trace_csv"),
        "detect.write_plot_s": total("detect.write_plot_csv"),
        "detect.near_threshold_windows": near_threshold,
        "cli.self_s": self_total("cli.main"),
        "cli.commands": count("cli.main"),
        "fileio.write_s": total("fileio.atomic_write_text"),
        "fileio.bytes_written": attr("fileio.atomic_write_text", "bytes"),
    }


def breakdown(spans: list[Span]) -> list[tuple[str, int, float, float]]:
    """(name[group], calls, total s, self s) per span name and group, by total."""
    own = self_times(spans)
    rows: dict[str, list] = {}
    for span, self_s in zip(spans, own):
        group = span.attrs.get("group")
        key = f"{span.name}[{group}]" if group else span.name
        row = rows.setdefault(key, [key, 0, 0.0, 0.0])
        row[1] += 1
        row[2] += span.duration
        row[3] += self_s
    return sorted((tuple(r) for r in rows.values()), key=lambda r: -r[2])
