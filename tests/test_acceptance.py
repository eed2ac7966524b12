"""Acceptance gate: nine behavior criteria, one printed PASS/FAIL line each.

Run `pytest -s tests/test_acceptance.py` to see the lines (plain `pytest`
captures stdout for passing tests). Every criterion also asserts, so a FAIL
fails the suite.

Criteria that share the seeded corpus and the trained networks are charged
the *full* build time of those shared fixtures on top of their own time —
a conservative accounting that can only overstate, never hide, a budget
overrun.
"""

import io
from contextlib import redirect_stdout
from dataclasses import replace
from fractions import Fraction
from time import perf_counter

import numpy as np
import pytest

from smokewatch import cli, detect, kernels, metrics, mlp, synth
from smokewatch.errors import SessionTooShort
from smokewatch.signal import ChannelMode, GestureClass
from smokewatch.synth import DEFAULT_PROFILES, SessionKind
import smokewatch.train as train_mod
from smokewatch.train import (
    LabeledDataset,
    build_dataset,
    damped_step,
    partition,
    train,
    train_best_of,
)

from conftest import make_recording

MASTER_SEED = 7
SHARED: dict[str, float] = {}


def verdict(num: int, name: str, ok: bool, detail: str, seconds: float,
            budget: float = None) -> None:
    if budget is not None:
        ok = ok and seconds < budget
        timing = f"{seconds:.2f}s of {budget:.0f}s budget"
    else:
        timing = f"{seconds:.2f}s"
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {num} ({name}): {status} — {detail} [{timing}]",
          flush=True)
    assert ok, f"criterion {num} ({name}): {detail} [{timing}]"


@pytest.fixture(scope="module")
def table1():
    t0 = perf_counter()
    out = synth.generate_table1(DEFAULT_PROFILES["watch-a"], MASTER_SEED)
    SHARED["table1"] = perf_counter() - t0
    return out


@pytest.fixture(scope="module")
def nets(table1):
    """Best-of-10 networks for the modes the anchors exercise."""
    train_corpus, _, _ = table1
    t0 = perf_counter()
    out = {}
    for mode in (ChannelMode.X, ChannelMode.Z, ChannelMode.XYZ):
        dataset = build_dataset(train_corpus, mode)
        net, _, restarts, _ = train_best_of(
            dataset, restarts=10, master_seed=MASTER_SEED)
        out[mode] = (net, restarts)
    SHARED["nets"] = perf_counter() - t0
    return out


def shared_cost(*keys: str) -> float:
    return sum(SHARED[k] for k in keys)


# -- 1 ------------------------------------------------------------------------

def test_acceptance_1_metric_oracle_equivalence():
    rng = np.random.default_rng(101)
    t0 = perf_counter()
    mismatches = 0
    for _ in range(1000):
        n = int(rng.integers(1, 201))
        preds = rng.random(n) < rng.random()
        truths = rng.random(n) < rng.random()
        counts = metrics.confusion(preds.tolist(), truths.tolist())
        tp = sum(1 for p, t in zip(preds, truths) if p and t)
        tn = sum(1 for p, t in zip(preds, truths) if not p and not t)
        fp = sum(1 for p, t in zip(preds, truths) if p and not t)
        fn = sum(1 for p, t in zip(preds, truths) if not p and t)
        spec = float(Fraction(tn, tn + fp)) if tn + fp else None
        sens = float(Fraction(tp, tp + fn)) if tp + fn else None
        acc = float(Fraction(tp + tn, n))
        same = ((counts.tp, counts.tn, counts.fp, counts.fn) == (tp, tn, fp, fn)
                and metrics.specificity(counts) == spec
                and metrics.sensitivity(counts) == sens
                and metrics.accuracy(counts) == acc)
        mismatches += not same
    elapsed = perf_counter() - t0
    verdict(1, "metric oracle equivalence", mismatches == 0,
            f"{1000 - mismatches}/1000 random lists match the integer-ratio "
            f"recount exactly", elapsed, budget=5.0)


# -- 2 ------------------------------------------------------------------------

def fd_jacobian(network: mlp.Network, features: np.ndarray,
                eps: float = 1e-6) -> np.ndarray:
    w0 = network.to_weight_vector()
    jac = np.empty((features.shape[0], w0.size))
    for k in range(w0.size):
        wp, wm = w0.copy(), w0.copy()
        wp[k] += eps
        wm[k] -= eps
        yp = mlp.forward_batch(network.with_weights(wp), features)
        ym = mlp.forward_batch(network.with_weights(wm), features)
        jac[:, k] = (yp - ym) / (2 * eps)
    return jac


def test_acceptance_2_jacobian_matches_finite_differences():
    rng = np.random.default_rng(202)
    t0 = perf_counter()
    worst = 0.0
    checked = 0
    for i in range(100):
        input_size = int(rng.integers(1, 11))
        hidden = int(rng.integers(1, 5))
        net = mlp.init_network(input_size, hidden, rng=rng)
        features = rng.uniform(-1, 1, size=(int(rng.integers(1, 6)), input_size))
        analytic, _ = kernels.batch_jacobian(net.w1, net.b1, net.w2, net.b2,
                                             mlp.scaled_inputs(net, features))
        reference = fd_jacobian(net, features)
        scale = max(np.max(np.abs(reference)), 1e-12)
        worst = max(worst, np.max(np.abs(analytic - reference)) / scale)
        checked += 1
    elapsed = perf_counter() - t0
    verdict(2, "jacobian matches finite differences", worst <= 1e-4,
            f"{checked} random networks, worst relative error {worst:.2e} "
            f"<= 1e-4", elapsed, budget=10.0)


# -- 3 ------------------------------------------------------------------------

def first_step_is_exact(rows: int, seed: int) -> bool:
    """Whether the weights after train()'s first epoch are w0 + damped_step
    on the system `_epoch_system` builds, at MU0 times MU_INC per rejected
    candidate. 2 inputs and 3 hidden units make 13 weights."""
    rng = np.random.default_rng(seed)
    ds = LabeledDataset(mode=ChannelMode.X,
                        features=rng.uniform(-1, 1, size=(2 * rows, 2)),
                        classes=(GestureClass.YAWN, GestureClass.SMOKING) * rows)
    tr, va = ds.subset(np.arange(rows)), ds.subset(np.arange(rows, 2 * rows))
    net, report = train(tr, va, seed=seed, hidden_size=3, max_epochs=1)
    net0 = replace(mlp.init_network(2, 3, np.random.default_rng(seed)),
                   norm=mlp.NormParams.from_features(tr.features))
    xn = mlp.scaled_inputs(net0, tr.features)
    k1 = xn @ xn.T + 1.0 if train_mod._dual(rows, net0.n_weights) else None
    a, rhs, back, _ = train_mod._epoch_system(net0, xn, tr.targets, k1)
    mu = train_mod.MU0
    for _ in range(report.rejected_steps[0]):
        mu *= train_mod.MU_INC
    want = net0.to_weight_vector() + damped_step(a, rhs, mu, back)
    return np.array_equal(net.to_weight_vector(), want)


def system_step(jac: np.ndarray, err: np.ndarray, mu: float) -> np.ndarray:
    """damped_step on the system train() builds for J: (JJ', e) with the
    back map alpha -> J'alpha when J has fewer rows than columns, else
    (J'J, J'e)."""
    if train_mod._dual(*jac.shape):
        return damped_step(jac @ jac.T, err, mu, lambda alpha: jac.T @ alpha)
    return damped_step(jac.T @ jac, jac.T @ err, mu)


def test_acceptance_3_lm_step_solves_least_squares():
    rng = np.random.default_rng(303)
    t0 = perf_counter()
    tiny_gap = huge_gap = 0.0
    for jac in (rng.normal(size=(40, 6)), rng.normal(size=(6, 40))):
        err = rng.normal(size=jac.shape[0])
        # tiny damping: the damped normal equations collapse to least squares
        # (the minimum-norm solution for the wide J)
        closed_form, *_ = np.linalg.lstsq(jac, err, rcond=None)
        tiny = system_step(jac, err, 1e-12)
        tiny_gap = max(tiny_gap, float(np.max(np.abs(tiny - closed_form))))
        # huge damping: the step collapses to the scaled gradient J'e/mu
        huge = system_step(jac, err, 1e12)
        grad = jac.T @ err / 1e12
        huge_gap = max(huge_gap, float(np.linalg.norm(huge - grad) / np.linalg.norm(grad)))
    # the same step is what train() takes in its first epoch, on each branch:
    # 8 rows against 13 weights (dual) and 30 (primal)
    exact = {train_mod._dual(rows, 13): first_step_is_exact(rows, seed=3)
             for rows in (8, 30)}
    elapsed = perf_counter() - t0
    ok = tiny_gap <= 1e-8 and huge_gap <= 1e-6 and exact == {True: True, False: True}
    verdict(3, "lm step solves least squares", ok,
            f"mu=1e-12 vs closed form {tiny_gap:.2e} <= 1e-8, "
            f"mu=1e12 vs J'e/mu {huge_gap:.2e} <= 1e-6 rel, "
            f"train() first step exact dual={exact.get(True)} "
            f"primal={exact.get(False)}",
            elapsed, budget=1.0)


# -- 4 ------------------------------------------------------------------------

def index_dataset(n: int) -> LabeledDataset:
    feats = np.zeros((n, 2))
    feats[:, 0] = np.arange(n)
    return LabeledDataset(mode=ChannelMode.X, features=feats,
                          classes=(GestureClass.DRINKING,) * n)


def test_acceptance_4_partition_shape_and_coverage():
    t0 = perf_counter()
    tr, va, te = partition(index_dataset(140), seed=0)
    sizes_ok = (len(tr), len(va), len(te)) == (98, 21, 21)
    rng = np.random.default_rng(404)
    failures = 0
    for _ in range(1000):
        n = int(rng.integers(1, 500))
        seed = int(rng.integers(0, 2**31))
        parts = partition(index_dataset(n), seed)
        ids = np.concatenate([p.features[:, 0] for p in parts])
        if len(ids) != n or not np.array_equal(np.sort(ids), np.arange(n)):
            failures += 1
    elapsed = perf_counter() - t0
    verdict(4, "partition shape and coverage", sizes_ok and failures == 0,
            f"140 items -> ({len(tr)}, {len(va)}, {len(te)}); disjointness "
            f"and coverage held for {1000 - failures}/1000 (N, seed) pairs",
            elapsed)


# -- 5 ------------------------------------------------------------------------

def test_acceptance_5_training_anchor(table1, nets):
    train_corpus, _, _ = table1
    t0 = perf_counter()
    _, xyz_restarts = nets[ChannelMode.XYZ]
    xyz_acc = max(run.train_accuracy for run in xyz_restarts)
    z_net, _ = nets[ChannelMode.Z]
    z_ds = build_dataset(train_corpus, ChannelMode.Z)
    z_report = metrics.evaluate(mlp.forward_batch(z_net, z_ds.features),
                                [t == 1.0 for t in z_ds.targets], 0.5)
    elapsed = perf_counter() - t0 + shared_cost("table1", "nets")
    # first-achieved values, now pinned: XYZ 1.000 accuracy, Z 1.000 specificity
    ok = (xyz_acc >= 0.90 and abs(xyz_acc - 1.000) <= 0.02
          and z_report.specificity >= 0.90
          and abs(z_report.specificity - 1.000) <= 0.02)
    verdict(5, "training-set anchor", ok,
            f"XYZ train accuracy {xyz_acc:.3f} (>=0.90, pinned 1.000±0.02), "
            f"Z specificity {z_report.specificity:.3f} (>=0.90, pinned "
            f"1.000±0.02)", elapsed, budget=60.0)


# -- 6 ------------------------------------------------------------------------

def test_acceptance_6_continuous_detection_anchor(table1, nets):
    _, _, sessions = table1
    x_net, _ = nets[ChannelMode.X]
    t0 = perf_counter()
    hits = total = 0
    tn = fp = 0
    for kind, recording, truth in sessions:
        trace = detect.detect_session(x_net, recording)
        report, detected = detect.score_trace(trace, truth)
        if kind is SessionKind.SMOKING:
            hits += sum(detected)
            total += len(truth)
        else:
            tn += report.counts.tn
            fp += report.counts.fp
    per_range = hits / total
    pooled_spec = tn / (tn + fp)
    elapsed = perf_counter() - t0 + shared_cost("table1", "nets")
    ok = per_range >= 0.80 and pooled_spec >= 0.70
    verdict(6, "continuous detection anchor", ok,
            f"X net detected {hits}/{total} smoking ranges "
            f"({per_range:.3f} >= 0.80); non-smoking per-window specificity "
            f"{pooled_spec:.3f} >= 0.70", elapsed, budget=60.0)


# -- 7 ------------------------------------------------------------------------

def test_acceptance_7_cross_device_anchor(nets):
    t0 = perf_counter()
    sessions = synth.generate_sessions({SessionKind.SMOKING: 1},
                                       DEFAULT_PROFILES["watch-b"],
                                       master_seed=MASTER_SEED)
    _, recording, truth = sessions[0]
    rates = {}
    for mode in (ChannelMode.X, ChannelMode.XYZ):
        net, _ = nets[mode]
        trace = detect.detect_session(net, recording)
        _, detected = detect.score_trace(trace, truth)
        rates[mode.value] = sum(detected) / len(truth)
    elapsed = perf_counter() - t0 + shared_cost("table1", "nets")
    ok = all(rate >= 0.70 for rate in rates.values())
    detail = ", ".join(f"{m} net {r:.3f}" for m, r in rates.items())
    verdict(7, "cross-device anchor", ok,
            f"watch-a nets on a watch-b session: per-range detection "
            f"{detail} (each >= 0.70)", elapsed)


# -- 8 ------------------------------------------------------------------------

def test_acceptance_8_cli_determinism(tmp_path):
    t0 = perf_counter()
    out = tmp_path
    commands = [
        ["synth", "--gestures", "smoking=4,cough=3,drinking=3", "--seed", "5",
         "--out", str(out / "data")],
        ["synth", "--sessions", "smoking=1", "--seed", "2",
         "--out", str(out / "sess")],
        ["train", "--data", str(out / "data"), "--modes", "X",
         "--restarts", "2", "--max-epochs", "15", "--out", str(out / "m")],
        ["eval", "--model", str(out / "m" / "model_X.json"),
         "--data", str(out / "data"), "--out", str(out / "e")],
        ["detect", "--model", str(out / "m" / "model_X.json"),
         "--session", str(out / "sess" / "smoking_session__watch-a__000.csv"),
         "--ranges",
         str(out / "sess" / "smoking_session__watch-a__000.ranges.json"),
         "--plot", "--out", str(out / "d")],
    ]
    with redirect_stdout(io.StringIO()):  # the verdict line is the output
        codes = [cli.main(argv) for argv in commands]
        first = {str(p.relative_to(out)): p.read_bytes()
                 for p in sorted(out.rglob("*")) if p.is_file()}
        codes += [cli.main(argv) for argv in commands]
        second = {str(p.relative_to(out)): p.read_bytes()
                  for p in sorted(out.rglob("*")) if p.is_file()}
    differing = [name for name in first if second.get(name) != first[name]]
    elapsed = perf_counter() - t0
    ok = all(c == 0 for c in codes) and not differing and len(first) >= 20
    verdict(8, "CLI determinism", ok,
            f"synth/train/eval/detect repeated: {len(first)} files "
            f"byte-identical, {len(differing)} differing", elapsed)


# -- 9 ------------------------------------------------------------------------

def test_acceptance_9_window_bookkeeping():
    rng = np.random.default_rng(909)
    t0 = perf_counter()
    nets_by_width: dict[int, mlp.Network] = {}
    failures = 0
    short_ok = 0
    counted = 0
    for _ in range(150):
        width = int(rng.integers(2, 51))
        stride = int(rng.integers(1, 26))
        length = int(rng.integers(1, 401))
        net = nets_by_width.setdefault(
            width, mlp.init_network(width, 2, rng=width))
        session = make_recording(rng.uniform(-0.5, 0.5, size=(length, 3)))
        if length < width:
            try:
                detect.detect_session(net, session, stride=stride)
                failures += 1
            except SessionTooShort:
                short_ok += 1
            continue
        trace = detect.detect_session(net, session, stride=stride)
        counted += 1
        expected = (length - width) // stride + 1
        if len(trace) != expected or trace.starts[0] != 0:
            failures += 1
        elif len(trace) > 1 and trace.starts[1] != stride:
            failures += 1
    elapsed = perf_counter() - t0
    verdict(9, "window bookkeeping", failures == 0,
            f"{counted} randomized (L, width, stride) traces matched "
            f"floor((L-width)/stride)+1; SessionTooShort raised for all "
            f"{short_ok} short sessions", elapsed)
