"""Tests of the benchmark's own arithmetic, its oracle, and a tiny run of each
workload."""

import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import bench  # noqa: E402
import harness  # noqa: E402
import oracle  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Span, self_times  # noqa: E402

from smokewatch import cli, mlp, signal, train  # noqa: E402


def test_self_time_subtracts_back_to_back_children_but_not_grandchildren():
    spans = [
        Span("root", 0.0, 10.0),
        Span("a", 1.0, 3.0, parent=0),
        Span("b", 3.0, 6.0, parent=0),        # starts where a ends
        Span("a.inner", 1.5, 2.5, parent=1),  # nested in a, already inside a's time
        Span("c", 8.0, 9.0, parent=0),
    ]
    assert self_times(spans) == pytest.approx([4.0, 1.0, 3.0, 1.0, 1.0])


def test_self_time_merges_overlapping_children_and_clips_to_parent():
    spans = [Span("root", 0.0, 10.0),
             Span("a", 1.0, 4.0, parent=0),
             Span("b", 2.0, 5.0, parent=0),
             Span("c", 9.0, 12.0, parent=0)]
    assert self_times(spans)[0] == pytest.approx(10.0 - 4.0 - 1.0)


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    samples = list(range(100, 0, -1))
    value, pct, met = harness.tail(samples)
    assert (value, pct, met) == (90, 90.0, True)
    assert sum(s > value for s in samples) == 10
    assert harness.tail(list(range(1, 26))) == (15, 60.0, True)
    value, pct, met = harness.tail(list(range(11)))
    assert (value, met) == (0, True) and pct == pytest.approx(100 / 11)


def test_tail_with_ten_or_fewer_samples_reports_the_slowest():
    assert harness.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, False)
    assert harness.tail(list(range(10))) == (9, 100.0, False)


class FakeCli:
    @staticmethod
    def main(argv):
        if argv[0] == "crash":
            raise RuntimeError("boom")
        return int(argv[1])


def test_fail_ratio_counts_exits_exceptions_and_checks_once_per_operation():
    ops = harness.Ops(FakeCli())
    ops.run(["ok", 0])
    bad_exit = ops.run(["exit", 1])
    crash = ops.run(["crash"])
    bad_output = ops.run(["ok", 0])
    ops.fail(bad_output, "output check")
    ops.fail(bad_exit, "output check as well")
    assert ops.attempted == 4
    assert ops.failed == {bad_exit, crash, bad_output}
    assert ops.fail_ratio == 0.75
    assert len(ops.errors) == 4


def test_tree_differences_lists_changed_missing_and_extra_files():
    ref = {"a": "1", "b": "2", "c": "3"}
    assert harness.tree_differences(ref, {"a": "1", "b": "9", "d": "4"}) == ["b", "c", "d"]


def _recordings(n):
    rng = np.random.default_rng(0)
    return [signal.SensorRecording(t=np.arange(60) / 50.0, x=rng.normal(size=60),
                                   y=rng.normal(size=60), z=rng.normal(size=60),
                                   label=signal.GestureClass.SMOKING)
            for _ in range(n)]


def test_tracer_wraps_every_binding_and_restores_them():
    original = signal.resample_uniform
    tracer = tracing.Tracer()
    with tracer.installed():
        assert train.resample_uniform is signal.resample_uniform is not original
        train.build_dataset(_recordings(3), signal.ChannelMode.X)
    assert train.resample_uniform is original and signal.resample_uniform is original
    names = [s.name for s in tracer.spans]
    assert names.count("signal.resample_uniform") == 3
    build = names.index("train.build_dataset")
    assert all(s.parent == build for s in tracer.spans if s.name != "train.build_dataset")
    metrics = tracing.layer_metrics(tracer.spans, near_threshold=0)
    assert metrics["signal.resample_s"] < metrics["train.build_dataset_s"]
    assert metrics["cli.commands"] == 0 and metrics["train.solve_dual_share"] == 0.0


def test_oracle_accepts_detect_output_and_rejects_a_changed_output(tmp_path):
    rng = np.random.default_rng(5)
    xyz = rng.normal(size=(260, 3))
    rec = signal.SensorRecording(t=np.arange(260) / 50.0, x=xyz[:, 0], y=xyz[:, 1], z=xyz[:, 2])
    signal.write_recording_csv(rec, tmp_path / "s.csv")
    net = mlp.init_network(600, 4, rng=1, mode=signal.ChannelMode.XYZ)
    net = replace(net, norm=mlp.NormParams.from_features(rng.normal(size=(20, 600))))
    mlp.save_model(net, tmp_path / "model.json")
    out = tmp_path / "out"
    assert cli.main(["detect", "--model", str(tmp_path / "model.json"),
                     "--session", str(tmp_path / "s.csv"), "--out", str(out)]) == 0

    def check():
        return oracle.check_detect(out, tmp_path / "model.json", xyz, signal.window_count,
                                   np.random.default_rng(0), 1000, {})

    assert check() == 0
    trace = out / "trace.csv"
    lines = trace.read_text().splitlines()
    start, value, flag = lines[7].split(",")
    lines[7] = f"{start},{float(value) + 1e-6!r},{flag}"
    trace.write_text("\n".join(lines) + "\n")
    with pytest.raises(oracle.CheckFailed, match="differs from the oracle"):
        check()
    trace.write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(oracle.CheckFailed, match="windows, expected"):
        check()


def test_layer_map_and_benchmark_json_agree():
    spec = bench.SPEC
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [m["name"] for m in spec["per_layer"]] == list(bench.LAYER_MAP)
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert max(bounds.values()) <= 0.25 and bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("name,trace", [("table1", False), ("table1", True),
                                        ("long_session", False), ("big_corpus", False)])
def test_tiny_workload_completes(name, trace, tmp_path):
    result = bench.run_workload(name, seed=3, seconds=0, trace=trace,
                                work=tmp_path / name, size=workloads.TINY)
    assert result.correct, result.lines
    assert result.failed == 0 and result.attempted > 0
    kind = "per_layer" if trace else "end_to_end"
    assert list(result.metrics) == [m["name"] for m in bench.SPEC[kind]]
    assert not (tmp_path / name).exists()
    if not trace:
        assert all(m["value"] > 0 for m in result.metrics.values())


def test_a_long_window_times_at_most_ten_iterations(tmp_path):
    result = bench.run_workload("long_session", seed=3, seconds=3600, trace=False,
                                work=tmp_path / "long_session", size=workloads.TINY)
    assert result.correct, result.lines
    assert "one warm-up and 10 timed iterations" in result.lines[0]
    assert any(line.startswith("iter_tail_s: p100.0 of 10 iterations")
               for line in result.lines)


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "table1",
                           "--seed", "1", "--seconds", "1"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
