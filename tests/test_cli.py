"""End-to-end CLI behavior: file layouts, exit codes, manifests, and
byte-identical reruns. Everything runs in-process through cli.main()."""

import json
import os
import re
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from smokewatch import __version__, cli, kernels, metrics, mlp
from smokewatch import detect as detect_mod
from smokewatch.detect import NEAR_THRESHOLD, GestureRanges, save_ranges
from smokewatch.errors import NumericalFailure
from smokewatch.signal import (
    ChannelMode,
    GestureClass,
    load_recording_csv,
    window_count,
    write_recording_csv,
)

from conftest import make_recording, malformed_session, through_a_pipe


def run(*argv: str) -> int:
    return cli.main(list(argv))


def snapshot(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Small synth -> train -> session chain shared by the happy-path tests."""
    root = tmp_path_factory.mktemp("pipeline")
    data = root / "data"
    models = root / "models"
    sessions = root / "sessions"
    assert run("synth", "--gestures", "smoking=6,cough=3,drinking=3",
               "--seed", "3", "--out", str(data)) == 0
    assert run("train", "--data", str(data), "--modes", "X",
               "--restarts", "2", "--max-epochs", "25", "--seed", "1",
               "--out", str(models)) == 0
    assert run("synth", "--sessions", "smoking=1", "--seed", "2",
               "--out", str(sessions)) == 0
    return {
        "data": data,
        "model": models / "model_X.json",
        "report": models / "train_report_X.json",
        "models": models,
        "session": sessions / "smoking_session__watch-a__000.csv",
        "ranges": sessions / "smoking_session__watch-a__000.ranges.json",
    }


# --- synth -------------------------------------------------------------------

def test_synth_gestures_layout_and_manifest(pipeline):
    data = pipeline["data"]
    names = sorted(p.name for p in data.glob("*.csv"))
    assert len(names) == 12
    assert "smoking__watch-a__000.csv" in names
    assert "smoking__watch-a__005.csv" in names
    assert "cough__watch-a__002.csv" in names
    manifest = json.loads((data / "manifest_synth.json").read_text())
    assert manifest["command"] == "synth"
    assert manifest["seed"] == 3
    assert manifest["version"] == __version__
    assert len(manifest["outputs"]) == 12


def test_synth_sessions_layout(pipeline):
    assert pipeline["session"].exists()
    assert pipeline["ranges"].exists()
    truth = json.loads(pipeline["ranges"].read_text())
    assert 7 <= len(truth) <= 10
    assert all(set(r) == {"start", "end"} for r in truth)


def test_synth_table1_layout(tmp_path):
    out = tmp_path / "corpus"
    assert run("synth", "--corpus", "table1", "--seed", "7",
               "--out", str(out)) == 0
    assert len(list((out / "train").glob("*.csv"))) == 140
    assert len(list((out / "test").glob("*.csv"))) == 40
    assert len(list((out / "sessions").glob("*.csv"))) == 10
    assert len(list((out / "sessions").glob("*.ranges.json"))) == 10
    smoking = list((out / "sessions").glob("smoking_session__*.csv"))
    assert len(smoking) == 5


def test_synth_rejects_unknown_class(tmp_path, capsys):
    assert run("synth", "--gestures", "juggling=2", "--out", str(tmp_path)) == 2
    assert "error:" in capsys.readouterr().err


def test_synth_rejects_bad_count(tmp_path, capsys):
    assert run("synth", "--gestures", "smoking=-1", "--out", str(tmp_path)) == 2
    assert run("synth", "--gestures", "smoking=two", "--out", str(tmp_path)) == 2
    # an "=" with no count is a bad count, not the bare name's 1
    assert run("synth", "--gestures", "smoking=", "--out", str(tmp_path)) == 2
    assert "bad smoking count ''" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_synth_bare_class_means_one(tmp_path):
    assert run("synth", "--gestures", "yawn", "--out", str(tmp_path)) == 0
    assert len(list(tmp_path.glob("*.csv"))) == 1


def test_synth_sources_are_mutually_exclusive(tmp_path):
    assert run("synth", "--corpus", "table1", "--gestures", "smoking=1",
               "--out", str(tmp_path)) == 2
    assert run("synth", "--out", str(tmp_path)) == 2


def test_synth_class_without_template_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "out"
    assert run("synth", "--gestures", "smoking=1,unknown=2", "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert "'unknown' has no template" in err
    assert "classes with templates: smoking, drinking," in err
    assert not out.exists()


def test_synth_unknown_session_kind_writes_nothing(tmp_path):
    out = tmp_path / "out"
    assert run("synth", "--sessions", "juggling=1", "--out", str(out)) == 2
    assert not out.exists()


def test_synth_unknown_profile(tmp_path):
    assert run("synth", "--gestures", "smoking=1", "--profile", "toaster",
               "--out", str(tmp_path)) == 2


def test_synth_config_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(
        {"profiles": {"bench": {"offset": [0, 0, 0.5]}}}))
    out = tmp_path / "out"
    assert run("synth", "--gestures", "cough=1", "--profile", "bench",
               "--config", str(cfg), "--out", str(out)) == 0
    assert (out / "cough__bench__000.csv").exists()


MILLI_G = re.compile(r"-?\d+\.\d{1,3}")


@pytest.mark.parametrize("profile", ["watch-a", "watch-b"])
def test_synth_writes_samples_on_the_milli_g_grid(tmp_path, profile):
    # every x, y and z field of every CSV synth writes is the repr of a
    # float with at most three decimals (-0.0 too) that equals
    # round(v * 1000) / 1000
    out = tmp_path / "out"
    for args in (["--gestures", ",".join(f"{c.value}=2" for c in GestureClass
                                          if c is not GestureClass.UNKNOWN)],
                 ["--sessions", "smoking=1,eating=1,drinking=1,chapstick=1"],
                 ["--corpus", "table1"]):
        assert run("synth", *args, "--profile", profile, "--seed", "5",
                   "--out", str(out / args[0])) == 0
    files = sorted(out.rglob("*.csv"))
    assert {p.parent.name for p in files} == {"--gestures", "--sessions", "train",
                                               "test", "sessions"}
    fields = [f for p in files for line in p.read_text().splitlines()[1:]
              for f in line.split(",")[1:]]
    assert len(fields) > 200_000
    assert all(MILLI_G.fullmatch(f) for f in fields)
    values = np.array(fields, dtype=float)
    assert np.array_equal(values, np.round(values * 1000) / 1000)


@pytest.mark.parametrize("text", [
    '{"templates": {"cough": {',                                   # invalid JSON
    '{"templates": {"cough": {"rest": [0, 0, 1]}}}',               # no segments
    '{"templates": {"cough": {"segments": [{"duration": 1}]}}}',   # no levels
    '{"templates": {"juggling": {"segments": []}}}',               # unknown class
    '{"profiles": {"bench": {"scale": [1, 0, 1]}}}',               # scale <= 0
    '{"templates": {"cough": {"segments": [{"duration": 1, "levels": [0.5, 0.5]}]}}}',
    '{"templates": {"cough": {"segments": [{"duration": NaN, "levels": [0, 0, 1]}]}}}',
    '{"templates": {"cough": {"segments": [{"duration": 1, "levels": [0, NaN, 1]}]}}}',
    '{"templates": {"cough": {"segments": [{"duration": 1, "levels": [0, 0, 1]}], '
    '"rest": [0, 1]}}}',
    '{"profiles": {"bench": {"offset": [0, 1]}}}',
    '{"templates": {"cough": {"segments": [{"duration": 1, "levels": [0, 0, 1]}], '
    '"noise_sigma": NaN}}}',
    '{"templates": {"cough": {"segments": [{"duration": 1, "levels": [0, 0, 1]}], '
    '"duration_jitter": 1.5}}}',
    '{"templates": {"cough": {"segments": [{"duration": "0.8", "levels": [0, 0, 1]}]}}}',
    '{"profiles": {"bench": {"scale": [true, 1, 1]}}}',
], ids=["json", "segments", "levels", "class", "scale", "levels-2", "duration-nan",
        "level-nan", "rest-2", "offset-2", "sigma-nan", "jitter-1.5", "duration-str",
        "scale-bool"])
def test_synth_malformed_config_exits_1_before_writing(tmp_path, capsys, text):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    out = tmp_path / "out"
    assert run("synth", "--gestures", "cough=1", "--config", str(cfg),
               "--out", str(out)) == 1
    assert "error: MalformedConfig:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("name", ["", "a__b", "a/b", "a\\b"],
                         ids=["empty", "double-underscore", "slash", "backslash"])
def test_synth_profile_name_the_corpus_cannot_hold_exits_1(tmp_path, capsys, name):
    # the name is a field of class__profile__index.csv: train could not read
    # the file back, or would not find it
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"profiles": {name: {"offset": [0, 0, 0.5]}}}))
    out = tmp_path / "out"
    assert run("synth", "--gestures", "smoking=1", "--profile", name,
               "--config", str(cfg), "--out", str(out)) == 1
    assert "error: MalformedConfig:" in capsys.readouterr().err
    assert not out.exists()


# --- train -------------------------------------------------------------------

def test_train_writes_model_and_report(pipeline):
    model = json.loads(pipeline["model"].read_text())
    assert model["mode"] == "X"
    assert model["input_size"] == 200
    assert model["hidden_size"] == 10
    report = json.loads(pipeline["report"].read_text())
    # --restarts 2 is an upper bound: the loop stops at the first restart
    # that classifies every training item
    accs = [r["train_accuracy"] for r in report["restarts"]]
    if report["restart_stop"] == "perfect_train_accuracy":
        assert len(accs) == accs.index(1.0) + 1
    else:
        assert report["restart_stop"] == "restart_limit"
        assert len(accs) == 2 and 1.0 not in accs
    assert [r["index"] for r in report["restarts"]] == list(range(len(accs)))
    assert report["selected_restart"] in range(len(accs))
    assert report["restarts"][report["selected_restart"]]["train_accuracy"] == max(accs)


def test_train_option_validation(pipeline, tmp_path):
    data = str(pipeline["data"])
    assert run("train", "--data", data, "--restarts", "0",
               "--out", str(tmp_path)) == 2
    assert run("train", "--data", data, "--threshold", "1.5",
               "--out", str(tmp_path)) == 2
    assert run("train", "--data", data, "--modes", "X,W",
               "--out", str(tmp_path)) == 2


@pytest.mark.parametrize("flag", ["--restarts", "--hidden", "--max-epochs"])
def test_train_counts_below_one_are_usage_errors(tmp_path, capsys, flag):
    # checked before the dataset loads: the data directory does not exist
    out = tmp_path / "out"
    assert run("train", "--data", str(tmp_path / "nowhere"), flag, "0",
               "--out", str(out)) == 2
    assert f"error: {flag} must be >= 1" in capsys.readouterr().err
    assert not out.exists()


THRESHOLD_ERROR = "error: --threshold must lie strictly between 0 and 1"


@pytest.mark.parametrize("argv, message", [
    (["train", "--data", "{missing}", "--threshold", "1.5"], THRESHOLD_ERROR),
    (["train", "--data", "{missing}", "--modes", "X,Y,x"],
     "error: mode X is given twice in --modes"),
    (["eval", "--model", "{missing}", "--data", "{missing}",
      "--threshold", "1.5"], THRESHOLD_ERROR),
    (["eval", "--model", "{missing}", "--data", "{missing}",
      "--threshold", "nan"], THRESHOLD_ERROR),
    (["detect", "--model", "{missing}", "--session", "{missing}",
      "--threshold", "0"], THRESHOLD_ERROR),
    (["detect", "--model", "{missing}", "--session", "{missing}",
      "--stride", "0"], "error: --stride must be >= 1"),
    (["detect", "--model", "{missing}", "--session", "{missing}",
      "--width", "200"], "unrecognized arguments: --width 200"),
], ids=["train-threshold", "train-repeated-mode", "eval-threshold",
        "eval-threshold-nan", "detect-threshold", "detect-stride",
        "detect-no-width"])
def test_out_of_range_options_are_usage_errors(tmp_path, capsys, argv, message):
    # checked before any input is read: the inputs do not exist, and reading
    # one would exit 1
    out = tmp_path / "out"
    argv = [a.format(missing=tmp_path / "missing") for a in argv]
    assert run(*argv, "--out", str(out)) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_parser_is_built_once_and_namespaces_stay_apart(pipeline, tmp_path,
                                                        monkeypatch):
    assert cli.build_parser() is cli.build_parser()
    seen = []
    parse_args = cli.argparse.ArgumentParser.parse_args

    def spy(self, *args, **kwargs):
        namespace = parse_args(self, *args, **kwargs)
        seen.append(dict(vars(namespace)))
        return namespace

    models, evals = tmp_path / "m", tmp_path / "e"
    monkeypatch.setattr(cli.argparse.ArgumentParser, "parse_args", spy)
    assert run("train", "--data", str(pipeline["data"]), "--modes", "X",
               "--restarts", "1", "--max-epochs", "3", "--threshold", "0.7",
               "--out", str(models)) == 0
    assert run("eval", "--model", str(models / "model_X.json"),
               "--data", str(pipeline["data"]), "--out", str(evals)) == 0
    assert run("eval", "--restarts", "2") == 2
    train_ns, eval_ns = seen[:2]
    assert train_ns["threshold"] == 0.7 and train_ns["restarts"] == 1
    assert eval_ns["threshold"] is None
    assert set(eval_ns) == {"command", "model", "data", "threshold", "out", "handler"}
    # eval takes the model's stored threshold, not a value left from train
    manifest = json.loads((evals / "manifest_eval.json").read_text())
    assert manifest["options"]["threshold"] == 0.7
    report = json.loads((evals / "eval_report_X.json").read_text())
    assert report["threshold"] == 0.7
    # after the failed parse, a default train run sees the defaults again
    assert run("train", "--data", str(pipeline["data"]), "--modes", "X",
               "--restarts", "1", "--max-epochs", "3",
               "--out", str(tmp_path / "m2")) == 0
    assert seen[-1]["threshold"] == metrics.DEFAULT_THRESHOLD
    assert seen[-1]["restarts"] == 1


@pytest.mark.parametrize("command", ["synth", "train"])
def test_negative_seed_is_a_usage_error(pipeline, tmp_path, capsys, command):
    source = (["--gestures", "smoking=1"] if command == "synth"
              else ["--data", str(pipeline["data"]), "--modes", "X"])
    out = tmp_path / "out"
    assert run(command, *source, "--seed", "-1", "--out", str(out)) == 2
    assert "error: --seed must be >= 0" in capsys.readouterr().err
    assert not out.exists()


def test_train_rejects_missing_dataset(tmp_path):
    assert run("train", "--data", str(tmp_path / "nowhere"),
               "--out", str(tmp_path)) == 2


def test_train_rejects_misnamed_csv(tmp_path):
    rec = make_recording(np.zeros((10, 3)))
    write_recording_csv(rec, tmp_path / "notes.csv")
    assert run("train", "--data", str(tmp_path), "--out", str(tmp_path)) == 2


def test_train_on_one_recording_exits_1_without_making_out(tmp_path, capsys):
    data, out = tmp_path / "data", tmp_path / "out"
    assert run("synth", "--gestures", "smoking=1", "--out", str(data)) == 0
    assert run("train", "--data", str(data), "--out", str(out)) == 1
    assert "error: EmptyDataset:" in capsys.readouterr().err
    assert not out.exists()


def test_train_failing_in_a_later_mode_writes_nothing(pipeline, tmp_path,
                                                      monkeypatch, capsys):
    train_best_of = cli.train_mod.train_best_of

    def failing(dataset, **kwargs):
        if dataset.mode is ChannelMode.XYZ:
            raise NumericalFailure("planted failure")
        return train_best_of(dataset, **kwargs)

    monkeypatch.setattr(cli.train_mod, "train_best_of", failing)
    out = tmp_path / "out"
    assert run("train", "--data", str(pipeline["data"]), "--modes", "X,XYZ",
               "--restarts", "1", "--max-epochs", "5", "--out", str(out)) == 1
    assert "error: NumericalFailure: planted failure" in capsys.readouterr().err
    assert not out.exists()


# --- eval --------------------------------------------------------------------

def test_eval_writes_report(pipeline, tmp_path):
    assert run("eval", "--model", str(pipeline["model"]),
               "--data", str(pipeline["data"]), "--out", str(tmp_path)) == 0
    report = json.loads((tmp_path / "eval_report_X.json").read_text())
    counts = report["counts"]
    assert sum(counts[k] for k in ("tn", "fp", "tp", "fn")) == 12
    assert set(report["fp_attribution"]) <= {"cough", "drinking"}
    assert (tmp_path / "manifest_eval.json").exists()


def test_eval_threshold_override(pipeline, tmp_path):
    assert run("eval", "--model", str(pipeline["model"]),
               "--data", str(pipeline["data"]), "--threshold", "0.999999",
               "--out", str(tmp_path)) == 0
    report = json.loads((tmp_path / "eval_report_X.json").read_text())
    # near-1 threshold suppresses essentially every positive call
    assert report["counts"]["fp"] == 0


def test_eval_missing_model_exits_1(pipeline, tmp_path, capsys):
    assert run("eval", "--model", str(tmp_path / "ghost.json"),
               "--data", str(pipeline["data"]), "--out", str(tmp_path)) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("edit, error", [
    (lambda doc: doc.pop("norm_min"), "MalformedModel"),
    (lambda doc: doc.update(version=2), "MalformedModel"),
    (lambda doc: doc.update(threshold=1.5), "InvalidThreshold"),
    (lambda doc: doc["norm_min"].__setitem__(0, float("nan")), "MalformedModel"),
    (lambda doc: doc["w1"].pop(), "MalformedModel"),
    (lambda doc: doc["norm_min"].pop(), "MalformedModel"),
    (lambda doc: doc.update(mode="XYZ"), "MalformedModel"),
    # values that int() or float() would read; the model file holds numbers
    (lambda doc: doc.update(input_size=doc["input_size"] + 0.9), "MalformedModel"),
    (lambda doc: doc.update(hidden_size=str(doc["hidden_size"])), "MalformedModel"),
    (lambda doc: doc.update(b2="0.25"), "MalformedModel"),
    (lambda doc: doc.update(b2=True), "MalformedModel"),
    (lambda doc: doc.update(threshold="0.5"), "MalformedModel"),
    (lambda doc: doc.update(w1=[[str(v) for v in row] for row in doc["w1"]]),
     "MalformedModel"),
    (lambda doc: doc.update(b2=10 ** 400), "MalformedModel"),  # no float holds it
], ids=["missing-key", "bad-version", "bad-threshold", "nan-norm", "short-w1",
        "short-norm-min", "xyz-on-200-inputs", "fractional-input-size",
        "string-hidden-size", "string-b2", "bool-b2", "string-threshold", "string-w1",
        "huge-b2"])
def test_eval_malformed_model_exits_1(pipeline, tmp_path, capsys, edit, error):
    doc = json.loads(pipeline["model"].read_text())
    edit(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert run("eval", "--model", str(bad), "--data", str(pipeline["data"]),
               "--out", str(tmp_path / "out")) == 1
    assert f"error: {error}:" in capsys.readouterr().err


def test_eval_fails_on_an_output_that_is_not_finite(tmp_path, capsys):
    # x = +1e308 at sample 50 and -1e308 at sample 120 of a smoking
    # recording overflow the input scaling, and the output is NaN. eval
    # exits 1 naming InvalidSample and writes nothing; pyproject's
    # error::RuntimeWarning turns a numpy warning that escapes into another
    # error
    values = np.round(np.random.default_rng(0).normal(0.0, 0.5, size=(200, 3)), 3)
    values[50, 0], values[120, 0] = 1e308, -1e308
    data = tmp_path / "data"
    write_recording_csv(make_recording(values), data / "smoking__watch-a__000.csv")
    model = tmp_path / "model.json"
    mlp.save_model(mlp.init_network(200, mlp.DEFAULT_HIDDEN, rng=1), model)
    out = tmp_path / "out"
    assert run("eval", "--model", str(model), "--data", str(data), "--out", str(out)) == 1
    assert capsys.readouterr().err.startswith("error: InvalidSample: ")
    assert not out.exists()


# --- detect ------------------------------------------------------------------

def test_detect_scored_run(pipeline, tmp_path):
    assert run("detect", "--model", str(pipeline["model"]),
               "--session", str(pipeline["session"]),
               "--ranges", str(pipeline["ranges"]),
               "--plot", "--out", str(tmp_path)) == 0
    trace_lines = (tmp_path / "trace.csv").read_text().strip().splitlines()
    assert trace_lines[0] == "start,output,smoking"
    report = json.loads((tmp_path / "detect_report.json").read_text())
    assert set(report) == {"per_window", "per_range", "near_threshold_windows"}
    per_range = report["per_range"]
    assert per_range["total"] == len(per_range["ranges"])
    assert per_range["detected"] == sum(r["detected"] for r in per_range["ranges"])
    assert (tmp_path / "plot.csv").exists()
    assert (tmp_path / "manifest_detect.json").exists()


def test_detect_report_counts_near_threshold_windows(pipeline, tmp_path):
    base = ["detect", "--model", str(pipeline["model"]),
            "--session", str(pipeline["session"]),
            "--ranges", str(pipeline["ranges"])]
    assert run(*base, "--out", str(tmp_path / "a")) == 0
    rows = (tmp_path / "a" / "trace.csv").read_text().strip().splitlines()[1:]
    outputs = np.array([float(r.split(",")[1]) for r in rows])
    report = json.loads((tmp_path / "a" / "detect_report.json").read_text())
    assert report["near_threshold_windows"] == int(
        np.sum(np.abs(outputs - 0.5) <= 1e-9))
    # a threshold equal to a written output puts that window on the threshold
    pick = float(outputs[np.argmin(np.abs(outputs - 0.5))])
    assert run(*base, "--threshold", repr(pick), "--out", str(tmp_path / "b")) == 0
    report = json.loads((tmp_path / "b" / "detect_report.json").read_text())
    near = int(np.sum(np.abs(outputs - pick) <= 1e-9))
    assert near >= 1
    assert report["near_threshold_windows"] == near


def test_detect_without_ranges_writes_no_report(pipeline, tmp_path):
    assert run("detect", "--model", str(pipeline["model"]),
               "--session", str(pipeline["session"]),
               "--out", str(tmp_path)) == 0
    assert (tmp_path / "trace.csv").exists()
    assert not (tmp_path / "detect_report.json").exists()
    assert not (tmp_path / "plot.csv").exists()


def test_detect_window_arithmetic(pipeline, tmp_path):
    rec = make_recording(np.zeros((1000, 3)))
    session = tmp_path / "flat.csv"
    write_recording_csv(rec, session)
    for stride, expected in ((1, 801), (10, 81)):
        out = tmp_path / f"s{stride}"
        assert run("detect", "--model", str(pipeline["model"]),
                   "--session", str(session),
                   "--stride", str(stride), "--out", str(out)) == 0
        rows = (out / "trace.csv").read_text().strip().splitlines()
        assert len(rows) - 1 == expected
        assert rows[1].startswith("0,")
        last_start = int(rows[-1].split(",")[0])
        assert last_start == (expected - 1) * stride


def test_detect_reads_a_session_from_a_named_pipe(pipeline, tmp_path):
    # a pipe, which cannot seek, is read in blocks to its end; the trace and
    # the report equal those of the same session read from its file
    def detect(session, out):
        assert run("detect", "--model", str(pipeline["model"]), "--session", str(session),
                   "--ranges", str(pipeline["ranges"]), "--out", str(out)) == 0
        return [(out / name).read_bytes() for name in ("trace.csv", "detect_report.json")]

    want = detect(pipeline["session"], tmp_path / "file")
    got = through_a_pipe(tmp_path / "session", pipeline["session"].read_bytes(),
                         lambda fifo: detect(fifo, tmp_path / "pipe"))
    assert got == want


@pytest.mark.parametrize("later_bad_byte", [False, True], ids=["bad-line", "then-not-utf8"])
def test_detect_names_a_fault_in_a_named_pipe(later_bad_byte, pipeline, tmp_path, capsys):
    # the session's writer ends although the fault is on line 3 of over
    # 1 MiB; detect exits 1 with the fault named and makes no --out
    data = malformed_session(later_bad_byte)
    out = tmp_path / "out"
    status = through_a_pipe(tmp_path / "session", data, lambda fifo: run(
        "detect", "--model", str(pipeline["model"]), "--session", str(fifo),
        "--out", str(out)))
    assert status == 1
    offset = data.find(b"\xff")
    want = (f"byte {offset}: not UTF-8 (invalid start byte)"
            if later_bad_byte else "line 3: non-numeric field")
    assert f"error: MalformedRow: {want}\n" in capsys.readouterr().err
    assert not out.exists()


def test_detect_short_session_exits_1(pipeline, tmp_path):
    rec = make_recording(np.zeros((50, 3)))
    session = tmp_path / "short.csv"
    write_recording_csv(rec, session)
    assert run("detect", "--model", str(pipeline["model"]),
               "--session", str(session), "--out", str(tmp_path)) == 1


def test_detect_session_not_utf8_exits_1(pipeline, tmp_path, capsys):
    session = tmp_path / "latin1.csv"
    session.write_bytes(pipeline["session"].read_bytes() + b"0.5,\xff,2,3\n")
    assert run("detect", "--model", str(pipeline["model"]),
               "--session", str(session), "--out", str(tmp_path / "out")) == 1
    assert "error: MalformedRow: byte " in capsys.readouterr().err


def test_detect_negative_first_timestamp_exits_1(pipeline, tmp_path, capsys):
    header, first, rest = pipeline["session"].read_text().split("\n", 2)
    assert first.startswith("0.0,")
    session = tmp_path / "negative.csv"
    session.write_text("\n".join([header, "-0.02" + first[3:], rest]))
    out = tmp_path / "out"
    assert run("detect", "--model", str(pipeline["model"]),
               "--session", str(session), "--out", str(out)) == 1
    assert "error: MalformedRow: line 2: negative timestamp" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("text", [
    '[{"start": 3, "end": ',                       # invalid JSON
    '{"start": 3, "end": 9}',                      # not a list
    '[{"start": 3}]',                              # missing key
    '[{"start": 3, "end": "9"}]',                  # non-integer value
    '[{"start": 3, "end": 9.5}]',
    '[{"start": 9, "end": 3}]',                    # start after end
    '[{"start": 3, "end": 3}]',                    # empty
    '[{"start": 10, "end": 20}, {"start": 0, "end": 5}]',   # unsorted
    '[{"start": 0, "end": 12}, {"start": 10, "end": 20}]',  # overlapping
    '[{"start": 0, "end": 5}, {"start": 900000, "end": 900100}]',  # past the end
    '[{"start": -500, "end": -100}, {"start": 0, "end": 50}]',     # before sample 0
], ids=["json", "list", "missing", "string", "float", "reversed", "empty",
        "unsorted", "overlapping", "past-the-session", "before-the-session"])
def test_detect_malformed_ranges_exits_1_before_writing(pipeline, tmp_path,
                                                         capsys, text):
    ranges = tmp_path / "bad.ranges.json"
    ranges.write_text(text)
    out = tmp_path / "out"
    assert run("detect", "--model", str(pipeline["model"]),
               "--session", str(pipeline["session"]), "--ranges", str(ranges),
               "--plot", "--out", str(out)) == 1
    assert "error: MalformedRanges:" in capsys.readouterr().err
    assert not (out / "trace.csv").exists()


def test_detect_ranges_must_end_inside_the_session(pipeline, tmp_path, capsys):
    # ranges are half-open, so the last one may end at the sample count
    n = len(load_recording_csv(pipeline["session"]))
    for end, code in ((n, 0), (n + 1, 1)):
        ranges = tmp_path / f"{end}.ranges.json"
        save_ranges(GestureRanges(ranges=((0, 5), (n - 300, end))), ranges)
        out = tmp_path / f"out{end}"
        assert run("detect", "--model", str(pipeline["model"]),
                   "--session", str(pipeline["session"]), "--ranges", str(ranges),
                   "--out", str(out)) == code
        assert out.exists() == (code == 0)
    assert f"range [{n - 300}, {n + 1}] ends past" in capsys.readouterr().err


def test_detect_memory_is_flat_in_the_session_length(tmp_path):
    # an XYZ detect --ranges --plot holds the session's arrays (about 70 B
    # per sample) but never its text; holding the text cost about 555 B per
    # sample, 111 MiB at 200,000 samples. The session loads and both CSVs
    # are written in this process.
    rng = np.random.default_rng(3)
    xyz = rng.normal(0.0, 0.5, size=(200_000, 3))
    model = tmp_path / "model.json"
    mlp.save_model(mlp.init_network(600, mlp.DEFAULT_HIDDEN, rng=1,
                                    mode=ChannelMode.XYZ), model)
    ranges = tmp_path / "r.json"
    save_ranges(GestureRanges(ranges=((100, 900), (50_000, 52_000))), ranges)
    peaks = {}
    for n in (100_000, 200_000):
        session = tmp_path / f"s{n}.csv"
        write_recording_csv(make_recording(xyz[:n]), session)
        tracemalloc.start()
        try:
            assert run("detect", "--model", str(model), "--session", str(session),
                       "--ranges", str(ranges), "--plot",
                       "--out", str(tmp_path / f"d{n}")) == 0
            peaks[n] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[200_000] < 24 * 2**20
    assert peaks[200_000] - peaks[100_000] < 10 * 2**20


@pytest.mark.parametrize("cpus", [2, 1], ids=["pipelined", "inline"])
def test_detect_fails_on_an_output_that_is_not_finite(cpus, tmp_path, capsys, monkeypatch):
    # samples near +-1e308 overflow the first layer of the windows that hold
    # them, late in an 8-block session, and give NaN outputs. With two CPUs
    # the worker's block raises while the writes run (they have made
    # --out); with one, detect_session raises before any write. Either way
    # detect exits 1 naming InvalidSample, leaves no file and no thread,
    # and no numpy warning escapes: pyproject's error::RuntimeWarning would
    # turn it into another error
    values = np.round(np.random.default_rng(4).normal(0.0, 0.5, size=(33_000, 3)), 3)
    values[30_000:30_100] = [1e308, -1e308, 1e308]
    values[30_001:30_100:2] *= -1
    session = tmp_path / "s.csv"
    write_recording_csv(make_recording(values), session)
    model = tmp_path / "model.json"
    mlp.save_model(mlp.init_network(600, mlp.DEFAULT_HIDDEN, rng=1, mode=ChannelMode.XYZ),
                   model)
    monkeypatch.setattr(detect_mod, "_usable_cpus", lambda: cpus)
    out = tmp_path / "out"
    before = threading.active_count()
    assert run("detect", "--model", str(model), "--session", str(session), "--plot",
               "--out", str(out)) == 1
    assert threading.active_count() == before
    assert capsys.readouterr().err.startswith("error: InvalidSample: ")
    assert out.exists() == (cpus == 2)
    assert not out.exists() or list(out.iterdir()) == []


@pytest.mark.parametrize("cpus", [2, 1], ids=["pipelined", "inline"])
def test_detect_calls_the_traced_detect_functions_once(cpus, tmp_path, monkeypatch):
    # smokebench's tracer wraps detect.detect_session and detect.write_trace_csv
    # under their module names; a detect --plot on a session of
    # PIPELINE_BLOCKS band blocks calls each once, whether its blocks run on
    # the worker thread (two CPUs) or inline (one)
    width = 200
    per_row = 1 + width // 4
    n = (detect_mod.PIPELINE_BLOCKS - 1) * (detect_mod.BLOCK_WINDOWS // per_row * per_row) + 1
    samples = n + width - 1
    values = np.round(np.random.default_rng(9).normal(0.0, 0.5, size=(samples, 3)), 3)
    session = tmp_path / "s.csv"
    write_recording_csv(make_recording(values), session)
    model = tmp_path / "model.json"
    mlp.save_model(mlp.init_network(width, mlp.DEFAULT_HIDDEN, rng=1), model)
    monkeypatch.setattr(detect_mod, "_usable_cpus", lambda: cpus)
    calls = {"detect_session": [], "write_trace_csv": []}
    for name, log in calls.items():
        fn = getattr(detect_mod, name)
        monkeypatch.setattr(detect_mod, name,
                            lambda *a, fn=fn, log=log, **k: log.append(fn(*a, **k)) or log[-1])
    threads = set()
    band_forward = kernels.band_forward
    monkeypatch.setattr(kernels, "band_forward",
                        lambda *a: threads.add(threading.get_ident()) or band_forward(*a))
    out = tmp_path / "out"
    assert run("detect", "--model", str(model), "--session", str(session), "--plot",
               "--out", str(out)) == 0
    assert [len(log) for log in calls.values()] == [1, 1]
    assert len(calls["detect_session"][0]) == window_count(samples, width, 1) == n
    assert len((out / "trace.csv").read_text().splitlines()) == n + 1
    assert bool(threads - {threading.get_ident()}) == (cpus == 2)


def test_detect_agrees_across_blas_thread_counts(tmp_path):
    # BLAS may split detection's matrix product by its thread count and
    # round an output's last bits otherwise, so trace.csv is byte-identical
    # only at a fixed count; the outputs still agree to 1e-12 and decide
    # alike away from the threshold
    values = np.round(np.random.default_rng(61).normal(0.0, 0.5, size=(20_000, 3)), 3)
    session = tmp_path / "s.csv"
    write_recording_csv(make_recording(values), session)
    src = str(Path(cli.__file__).resolve().parents[1])
    for mode, size in ((ChannelMode.X, 200), (ChannelMode.XYZ, 600)):
        model = tmp_path / f"model_{mode.value}.json"
        mlp.save_model(mlp.init_network(size, mlp.DEFAULT_HIDDEN, rng=1, mode=mode), model)
        traces = []
        for threads in ("1", "2"):
            out = tmp_path / f"d{mode.value}{threads}"
            env = {**os.environ, "PYTHONPATH": src,
                   "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
            subprocess.run([sys.executable, "-m", "smokewatch.cli", "detect",
                            "--model", str(model), "--session", str(session),
                            "--out", str(out)], env=env, check=True, capture_output=True)
            traces.append(np.loadtxt(out / "trace.csv", delimiter=",", skiprows=1))
        one, two = traces
        assert len(one) == 19_801
        assert np.max(np.abs(one[:, 1] - two[:, 1])) <= 1e-12
        far = np.abs(one[:, 1] - metrics.DEFAULT_THRESHOLD) > NEAR_THRESHOLD
        assert np.array_equal(one[far, 2], two[far, 2])


# --- shared behavior ----------------------------------------------------------

def test_no_command_exits_2():
    assert run() == 2


def test_version_flag_exits_0(capsys):
    assert run("--version") == 0
    assert __version__ in capsys.readouterr().out


def test_reruns_are_byte_identical(pipeline, tmp_path):
    out = tmp_path / "redo"
    args = [
        ("synth", "--gestures", "smoking=3,yawn=3", "--seed", "11",
         "--out", str(out / "data")),
        ("train", "--data", str(out / "data"), "--modes", "Y",
         "--restarts", "2", "--max-epochs", "10", "--out", str(out / "m")),
        ("detect", "--model", str(out / "m" / "model_Y.json"),
         "--session", str(pipeline["session"]),
         "--ranges", str(pipeline["ranges"]), "--out", str(out / "d")),
    ]
    for argv in args:
        assert run(*argv) == 0
    first = snapshot(out)
    for argv in args:
        assert run(*argv) == 0
    assert snapshot(out) == first
    assert len(first) >= 7 + 3 + 3


def test_json_key_order(pipeline, tmp_path):
    # the manifest, restart and eval-report dicts are built from dataclass
    # fields or a literal; a reordered field reorders the written keys
    assert run("eval", "--model", str(pipeline["model"]),
               "--data", str(pipeline["data"]), "--out", str(tmp_path)) == 0
    manifest_keys = ["version", "command", "seed", "options", "inputs", "outputs"]
    for path in (pipeline["data"] / "manifest_synth.json",
                 pipeline["models"] / "manifest_train.json",
                 tmp_path / "manifest_eval.json"):
        assert list(json.loads(path.read_text())) == manifest_keys
    report = json.loads(pipeline["report"].read_text())
    for restart in report["restarts"]:
        assert list(restart) == ["index", "seed", "train_accuracy", "epochs_run",
                                 "final_train_sse", "final_val_sse", "stop_reason"]
    report = json.loads((tmp_path / "eval_report_X.json").read_text())
    assert list(report) == ["counts", "threshold", "specificity", "sensitivity",
                            "accuracy", "fp_attribution"]
    assert list(report["counts"]) == ["tp", "tn", "fp", "fn"]


def test_filename_roundtrip():
    name = cli.recording_filename(GestureClass.HAIR_BRUSH, "watch-b", 7)
    assert name == "hair_brush__watch-b__007.csv"
    label, device = cli.parse_recording_filename(name)
    assert label is GestureClass.HAIR_BRUSH
    assert device == "watch-b"
    with pytest.raises(cli.UsageError):
        cli.parse_recording_filename("plain.csv")
    with pytest.raises(cli.UsageError):
        cli.parse_recording_filename("juggling__watch-a__000.csv")
