"""Levenberg-Marquardt machinery: the damped solver against closed-form
oracles, the 70/15/15 partition, training-loop stop reasons, and
best-of-restarts selection."""

import json
import weakref
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from conftest import tiny_network
from oracles import lm_step, outputs_and_jacobian
import smokewatch.train as train_mod
from smokewatch import kernels, mlp, synth
from smokewatch.errors import EmptyBatch, InvalidSize, NumericalFailure
from smokewatch.signal import (
    ChannelMode,
    GestureClass,
    extract_features,
    resample_uniform,
)
from smokewatch.train import (
    MU_FLOOR,
    LabeledDataset,
    StopReason,
    TrainReport,
    build_dataset,
    build_datasets,
    damped_step,
    partition,
    save_report,
    select_best_restart,
    solve_damped,
    train,
    train_best_of,
)


def index_dataset(n: int) -> LabeledDataset:
    """Rows identifiable by their first feature; all negative class."""
    feats = np.zeros((n, 2))
    feats[:, 0] = np.arange(n)
    return LabeledDataset(mode=ChannelMode.X, features=feats,
                          classes=(GestureClass.DRINKING,) * n)


def sse(network, dataset: LabeledDataset) -> float:
    """Sum of squared errors of the network on a dataset."""
    e = dataset.targets - mlp.forward_batch(network, dataset.features)
    return float(e @ e)


def toy_dataset(rng, n=24, p=6, separation=3.0) -> LabeledDataset:
    """Linearly separable two-blob set, half smoking."""
    half = n // 2
    neg = rng.normal(size=(half, p)) - separation
    pos = rng.normal(size=(n - half, p)) + separation
    feats = np.vstack([neg, pos])
    classes = (GestureClass.COUGH,) * half + (GestureClass.SMOKING,) * (n - half)
    return LabeledDataset(mode=ChannelMode.X, features=feats, classes=classes)


def primal_split(seed: int) -> tuple[LabeledDataset, LabeledDataset]:
    """60 training and 60 validation rows of 2 overlapping features: against
    the 13 weights of 3 hidden units, the primal branch."""
    ds = toy_dataset(np.random.default_rng(seed), n=120, p=2, separation=0.3)
    return ds.subset(np.arange(0, 120, 2)), ds.subset(np.arange(1, 120, 2))


# --- solve_damped against closed forms ---------------------------------------

def test_solver_identity_jacobian():
    jac = np.eye(4)
    err = np.array([1.0, -2.0, 3.0, 0.5])
    mu = 0.25
    delta = solve_damped(jac, err, mu)
    assert np.allclose(delta, err / (1 + mu), rtol=1e-12, atol=0)


def test_solver_matches_dense_reference(rng):
    for _ in range(20):
        m = int(rng.integers(1, 30))
        p = int(rng.integers(1, 30))
        jac = rng.normal(size=(m, p))
        err = rng.normal(size=m)
        mu = float(10 ** rng.uniform(-6, 3))
        delta = solve_damped(jac, err, mu)
        ref = np.linalg.solve(jac.T @ jac + mu * np.eye(p), jac.T @ err)
        assert np.allclose(delta, ref, rtol=1e-8, atol=1e-10)


def test_solver_residual_property(rng):
    # || (J'J + mu I) delta - J'e || <= 1e-8 || J'e ||
    for _ in range(30):
        m = int(rng.integers(1, 40))
        p = int(rng.integers(1, 40))
        jac = rng.normal(size=(m, p))
        err = rng.normal(size=m)
        mu = float(10 ** rng.uniform(-4, 4))
        delta = solve_damped(jac, err, mu)
        lhs = (jac.T @ jac) @ delta + mu * delta
        rhs = jac.T @ err
        assert np.linalg.norm(lhs - rhs) <= 1e-8 * max(np.linalg.norm(rhs), 1e-30)


def test_solver_handles_rank_deficiency(rng):
    row = rng.normal(size=5)
    jac = np.tile(row, (6, 1))  # rank 1
    err = rng.normal(size=6)
    delta = solve_damped(jac, err, 1e-3)
    assert np.all(np.isfinite(delta))


def test_solver_rejects_bad_inputs():
    with pytest.raises(ValueError):
        solve_damped(np.eye(2), np.ones(2), 0.0)
    with pytest.raises(EmptyBatch):
        solve_damped(np.zeros((0, 3)), np.zeros(0), 1.0)
    with pytest.raises(NumericalFailure):
        solve_damped(np.array([[np.nan, 1.0]]), np.ones(1), 1.0)


def test_damped_step_leaves_a_unchanged_and_names_a_singular_system(rng):
    # a diagonal of 1e-20 does not survive (a + mu) - mu at mu = 1e10
    jac = rng.normal(size=(5, 3)) * 1e-10
    a = jac.T @ jac
    want = a.copy()
    damped_step(a, np.ones(3), 1e10)
    assert np.array_equal(a, want)
    # 1 + 1e-20 rounds to 1, so the damped matrix stays exactly singular
    a = np.ones((2, 2))
    with pytest.raises(NumericalFailure, match="singular"):
        damped_step(a, np.ones(2), 1e-20)
    assert np.array_equal(a, np.ones((2, 2)))


def network_jacobian(inputs: int, rows: int, hidden: int, seed: int):
    """First-layer weights, inputs, J and an error vector of a random net."""
    rng = np.random.default_rng(seed)
    w1 = rng.uniform(-0.5, 0.5, (hidden, inputs))
    b1 = rng.uniform(-0.5, 0.5, hidden)
    w2 = rng.uniform(-0.5, 0.5, hidden)
    xn = rng.uniform(-1.0, 1.0, (rows, inputs))
    jac, y = kernels.batch_jacobian(w1, b1, w2, 0.1, xn)
    return (w1, b1, w2, xn), jac, rng.choice([0.0, 1.0], rows) - y


def svd_oracle(jac, err):
    """mu -> the LM step V diag(s / (s^2 + mu)) U'e from the thin SVD J = U S V'."""
    u, s, vt = np.linalg.svd(jac, full_matrices=False)
    ue = u.T @ err
    return lambda mu: vt.T @ (s / (s * s + mu) * ue)


MUS = [10.0 ** k for k in range(-12, 13)]


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("inputs", [200, 600])
def test_dual_steps_match_the_svd_oracle_at_table1_shapes(inputs, seed):
    # 98 training rows against 2,021 or 6,021 weights; measured agreement
    # was at most 1.1e-14 relative over these seeds and every mu
    (w1, b1, w2, xn), jac, err = network_jacobian(inputs, 98, mlp.DEFAULT_HIDDEN, seed)
    gram, _, parts = kernels.batch_gram(w1, b1, w2, 0.1, xn, xn @ xn.T + 1.0)
    back = partial(kernels.gram_step_map, xn, parts)
    step = svd_oracle(jac, err)
    for mu in MUS:
        want = step(mu)
        for got in (solve_damped(jac, err, mu), damped_step(gram, err, mu, back)):
            assert np.linalg.norm(got - want) <= 5e-14 * np.linalg.norm(want), mu


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_primal_step_matches_the_svd_oracle(seed):
    # 40 rows against 11 weights: the normal equations J'J square the
    # condition number k of J, so the bound is k^2 * eps; measured agreement
    # was at most 0.04 of it
    _, jac, err = network_jacobian(3, 40, 2, seed)
    s = np.linalg.svd(jac, compute_uv=False)
    bound = (s[0] / s[-1]) ** 2 * np.finfo(float).eps
    step = svd_oracle(jac, err)
    for mu in MUS:
        want = step(mu)
        got = solve_damped(jac, err, mu)
        assert np.linalg.norm(got - want) <= bound * np.linalg.norm(want), mu


def test_lm_step_tiny_mu_solves_linear_least_squares(rng):
    # constant-Jacobian problem driven through the same solver lm_step uses
    jac = rng.normal(size=(40, 6))
    target = rng.normal(size=40)
    delta = solve_damped(jac, target, 1e-12)
    ref, *_ = np.linalg.lstsq(jac, target, rcond=None)
    assert np.max(np.abs(delta - ref)) <= 1e-8


def test_lm_step_huge_mu_is_scaled_gradient(rng):
    jac = rng.normal(size=(40, 6))
    err = rng.normal(size=40)
    mu = 1e12
    delta = solve_damped(jac, err, mu)
    grad_step = jac.T @ err / mu
    assert np.linalg.norm(delta - grad_step) <= 1e-6 * np.linalg.norm(grad_step)


def test_lm_step_returns_candidate_weights(rng):
    ds = toy_dataset(rng)
    net = tiny_network(ds.input_size, 3, seed=0)
    before = net.to_weight_vector()
    candidate = lm_step(net, ds, mu=1e-3)
    assert candidate.shape == before.shape
    assert not np.array_equal(candidate, before)


def test_lm_step_some_damping_descends(rng):
    # a single step need not descend, but growing mu must eventually
    # produce one that does (this is what the accept/retry loop relies on)
    ds = toy_dataset(rng)
    net = tiny_network(ds.input_size, 3, seed=0)
    base = sse(net, ds)
    descended = False
    mu = 1e-3
    while mu <= 1e8:
        candidate = lm_step(net, ds, mu)
        if sse(net.with_weights(candidate), ds) < base:
            descended = True
            break
        mu *= 10
    assert descended


def test_train_first_epoch_takes_lm_step(rng):
    # train() takes the oracle lm_step's step in Gram form: exactly
    # damped_step's at mu0, and lm_step's (on the Jacobian) to 1e-10
    ds = toy_dataset(rng, n=30)
    tr, va = ds.subset(np.arange(0, 30, 2)), ds.subset(np.arange(1, 30, 2))
    seed = 3
    net0 = mlp.init_network(tr.input_size, mlp.DEFAULT_HIDDEN, rng=seed)
    net0 = replace(net0, norm=mlp.NormParams.from_features(tr.features))
    assert len(tr) < net0.n_weights  # the dual branch
    xn = mlp.scaled_inputs(net0, tr.features)
    gram, y, parts = kernels.batch_gram(net0.w1, net0.b1, net0.w2, net0.b2,
                                        xn, xn @ xn.T + 1.0)
    w0 = net0.to_weight_vector()
    step = w0 + damped_step(gram, tr.targets - y, train_mod.MU0,
                            partial(kernels.gram_step_map, xn, parts))
    oracle = lm_step(net0, tr, train_mod.MU0)
    assert np.linalg.norm(step - oracle) <= 1e-10 * np.linalg.norm(oracle - w0)
    assert sse(net0.with_weights(step), tr) < sse(net0, tr)
    net, report = train(tr, va, seed=seed, max_epochs=1)
    assert report.epochs_run == 1
    assert report.rejected_steps == (0,)
    assert np.array_equal(net.to_weight_vector(), step)


@pytest.mark.parametrize("rows", [12, 13, 14])
def test_train_takes_the_primal_path_unless_fewer_rows_than_weights(
        monkeypatch, rows):
    # 2 inputs and 3 hidden units make 13 weights; with 13 rows or more
    # train() builds J once per epoch, with fewer the Gram matrix
    calls = {"gram": 0, "jacobian": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(kernels, "batch_gram", counted("gram", kernels.batch_gram))
    monkeypatch.setattr(kernels, "batch_jacobian",
                        counted("jacobian", kernels.batch_jacobian))
    ds = toy_dataset(np.random.default_rng(8), n=2 * rows, p=2)
    tr, va = ds.subset(np.arange(0, 2 * rows, 2)), ds.subset(np.arange(1, 2 * rows, 2))
    _, report = train(tr, va, seed=1, hidden_size=3, max_epochs=3)
    assert report.epochs_run >= 1
    built = calls["gram"] if rows < 13 else calls["jacobian"]
    assert built == report.epochs_run
    assert calls["jacobian" if rows < 13 else "gram"] == 0


@pytest.mark.parametrize("rows", [12, 14])
def test_train_frees_each_epoch_system_before_the_next(monkeypatch, rows):
    # J is gone once J'J and J'e exist, and neither J nor the matrix that
    # damped_step solves on outlives its epoch into the next build
    built = []

    def build(fn):
        def wrapper(*args):
            assert all(ref() is None for ref in built)
            out = fn(*args)
            built.append(weakref.ref(out[0]))
            return out
        return wrapper

    def step(a, rhs, mu, back=None):
        assert all(ref() is None or ref() is a for ref in built)
        built.append(weakref.ref(a))
        return damped_step(a, rhs, mu, back)

    monkeypatch.setattr(kernels, "batch_gram", build(kernels.batch_gram))
    monkeypatch.setattr(kernels, "batch_jacobian", build(kernels.batch_jacobian))
    monkeypatch.setattr(train_mod, "damped_step", step)
    ds = toy_dataset(np.random.default_rng(8), n=2 * rows, p=2)
    tr, va = ds.subset(np.arange(0, 2 * rows, 2)), ds.subset(np.arange(1, 2 * rows, 2))
    _, report = train(tr, va, seed=1, hidden_size=3, max_epochs=3)
    assert report.epochs_run >= 2


@pytest.mark.parametrize("seed", [0, 4, 7])
def test_train_replays_a_primal_epoch_with_rejected_retries(monkeypatch, seed):
    # 60 rows against 13 weights: the primal branch. With mu0 = 1e-12 the
    # first candidates overshoot, so the accepted step is the k-th retry and
    # equals solve_damped's on J at that mu bit for bit
    tr, va = primal_split(seed)
    monkeypatch.setattr(train_mod, "MU0", 1e-12)
    monkeypatch.setattr(train_mod, "SSE_GOAL", 1e-30)
    net, report = train(tr, va, seed=seed, hidden_size=3, max_epochs=1)
    net0 = replace(mlp.init_network(2, 3, rng=seed),
                   norm=mlp.NormParams.from_features(tr.features))
    assert len(tr) > net0.n_weights
    k = report.rejected_steps[0]
    assert k >= 1
    mu = 1e-12
    for _ in range(k):
        mu *= train_mod.MU_INC
    assert report.mu_history == (mu,)
    y, jac = outputs_and_jacobian(net0, tr.features)
    want = net0.to_weight_vector() + solve_damped(jac, tr.targets - y, mu)
    assert np.array_equal(net.to_weight_vector(), want)


def test_dataset_smoking_and_targets_follow_the_classes():
    classes = (GestureClass.SMOKING, GestureClass.COUGH, GestureClass.UNKNOWN,
               GestureClass.SMOKING, GestureClass.EATING)
    ds = LabeledDataset(mode=ChannelMode.X, features=np.zeros((5, 3)), classes=classes)
    assert ds.smoking.dtype == bool
    assert ds.smoking.tolist() == [c.is_smoking for c in classes]
    assert ds.targets.dtype == np.float64
    assert ds.targets.tolist() == [1.0 if s else 0.0 for s in ds.smoking]
    sub = ds.subset(np.array([4, 0]))
    assert sub.smoking.tolist() == [False, True]


# --- partition ---------------------------------------------------------------

def test_partition_table_sizes():
    tr, va, te = partition(index_dataset(140), seed=0)
    assert (len(tr), len(va), len(te)) == (98, 21, 21)


def test_partition_half_up_rounding():
    # N=10: cuts at round(7.0)=7 and round(8.5)=9 -> (7, 2, 1)
    tr, va, te = partition(index_dataset(10), seed=1)
    assert (len(tr), len(va), len(te)) == (7, 2, 1)


def test_partition_disjoint_and_covering(rng):
    for n in range(1, 400):
        seed = int(rng.integers(0, 10**9))
        tr, va, te = partition(index_dataset(n), seed)
        ids = np.concatenate([tr.features[:, 0], va.features[:, 0],
                              te.features[:, 0]])
        assert len(ids) == n
        assert set(ids.astype(int)) == set(range(n))


def test_partition_seed_determinism():
    a = partition(index_dataset(50), seed=7)
    b = partition(index_dataset(50), seed=7)
    for x, y in zip(a, b):
        assert np.array_equal(x.features, y.features)
    c = partition(index_dataset(50), seed=8)
    assert not np.array_equal(a[0].features, c[0].features)


# --- train loop --------------------------------------------------------------

def test_train_reaches_goal_on_separable_data(rng):
    ds = toy_dataset(rng, n=40)
    tr, va, te = partition(ds, seed=3)
    net, report = train(tr, va, seed=5)
    assert report.stop_reason in (StopReason.CONVERGED, StopReason.VALIDATION_STOP,
                                  StopReason.EPOCH_LIMIT)
    assert report.final_train_sse < 0.25 * report.train_sse_history[0]
    preds = mlp.forward_batch(net, tr.features) >= 0.5
    assert np.mean(preds == (tr.targets == 1.0)) == 1.0


def test_train_degenerate_goal_stops_first_epoch(rng, monkeypatch):
    ds = toy_dataset(rng)
    tr, va, _ = partition(ds, seed=0)
    monkeypatch.setattr(train_mod, "SSE_GOAL", 1e9)
    net, report = train(tr, va, seed=1)
    assert report.epochs_run == 1
    assert report.stop_reason is StopReason.CONVERGED


def test_train_epoch_limit(rng, monkeypatch):
    ds = toy_dataset(rng, separation=0.1)
    tr, va, _ = partition(ds, seed=0)
    monkeypatch.setattr(train_mod, "SSE_GOAL", 1e-30)
    net, report = train(tr, va, seed=1, max_epochs=3)
    assert report.epochs_run <= 3
    assert len(report.train_sse_history) == report.epochs_run


def test_train_sse_history_non_increasing(rng, monkeypatch):
    ds = toy_dataset(rng, separation=0.5)
    tr, va, _ = partition(ds, seed=2)
    monkeypatch.setattr(train_mod, "SSE_GOAL", 1e-30)
    _, report = train(tr, va, seed=3, max_epochs=40)
    hist = report.train_sse_history
    assert all(b <= a + 1e-15 for a, b in zip(hist, hist[1:]))


def test_mu_overflow_in_the_first_epoch_returns_the_initial_network(rng, monkeypatch):
    # a zero step leaves the training SSE where it is, so no candidate is
    # accepted: mu climbs from MU0 by MU_INC until it passes MU_MAX, and the
    # run ends with no epoch logged
    mus = []

    def never_accepted(a, rhs, mu, back=None):
        mus.append(mu)
        return np.zeros_like(damped_step(a, rhs, mu, back))

    monkeypatch.setattr(train_mod, "damped_step", never_accepted)
    tr, va, _ = partition(toy_dataset(rng), seed=0)
    net, report = train(tr, va, seed=2)
    net0 = replace(mlp.init_network(tr.input_size, mlp.DEFAULT_HIDDEN, rng=2),
                   norm=mlp.NormParams.from_features(tr.features))
    assert report.stop_reason is StopReason.MU_OVERFLOW
    assert report.epochs_run == 0
    assert (report.train_sse_history, report.val_sse_history, report.mu_history,
            report.rejected_steps) == ((), (), (), ())
    assert np.array_equal(net.to_weight_vector(), net0.to_weight_vector())
    assert (report.final_train_sse, report.final_val_sse) == (sse(net0, tr), sse(net0, va))
    assert mus[0] == train_mod.MU0
    assert all(b == a * train_mod.MU_INC for a, b in zip(mus, mus[1:]))
    assert mus[-1] <= train_mod.MU_MAX < mus[-1] * train_mod.MU_INC


@pytest.mark.parametrize("seed", [0, 5])
def test_mu_overflow_after_accepted_epochs_keeps_the_last_accepted_network(
        monkeypatch, seed):
    # with MU_MAX at 0.1 these primal fits reach a point no step below it
    # improves; the overflow epoch logs nothing and changes no weight, so the
    # run equals one stopped by the epoch limit just before it
    monkeypatch.setattr(train_mod, "MU_MAX", 0.1)
    monkeypatch.setattr(train_mod, "SSE_GOAL", 1e-30)
    monkeypatch.setattr(train_mod, "MAX_VAL_FAILURES", 1000)
    tr, va = primal_split(seed)
    net, report = train(tr, va, seed=seed, hidden_size=3)
    assert report.stop_reason is StopReason.MU_OVERFLOW
    assert report.epochs_run >= 2
    assert max(report.mu_history) <= 0.1
    assert report.final_train_sse == report.train_sse_history[-1]
    assert report.final_val_sse == report.val_sse_history[-1]
    limited, limited_report = train(tr, va, seed=seed, hidden_size=3,
                                    max_epochs=report.epochs_run)
    assert limited_report.stop_reason is StopReason.EPOCH_LIMIT
    assert np.array_equal(net.to_weight_vector(), limited.to_weight_vector())
    assert replace(report, stop_reason=StopReason.EPOCH_LIMIT) == limited_report


def test_validation_stop_restores_the_first_best_validation_network():
    # MAX_VAL_FAILURES epochs after the first minimum of the validation SSE
    # the run stops and returns the network of that epoch
    seed = 3
    tr, va = primal_split(seed)
    net, report = train(tr, va, seed=seed, hidden_size=3)
    assert report.stop_reason is StopReason.VALIDATION_STOP
    best = int(np.argmin(report.val_sse_history))
    assert best >= 1
    assert report.epochs_run == best + 1 + train_mod.MAX_VAL_FAILURES
    assert report.val_sse_history[-1] != report.val_sse_history[best]
    assert report.final_val_sse == report.val_sse_history[best]
    assert report.final_train_sse == report.train_sse_history[best]
    at_best, _ = train(tr, va, seed=seed, hidden_size=3, max_epochs=best + 1)
    assert np.array_equal(net.to_weight_vector(), at_best.to_weight_vector())


@pytest.mark.parametrize("seed", [0, 3])
def test_a_validation_sse_that_only_ties_its_best_stops_at_the_first_epoch(
        monkeypatch, seed):
    # a tie is no new best: held at 1.0, the validation SSE is best at epoch
    # 0 and fails at every epoch after, so the run stops MAX_VAL_FAILURES
    # epochs later and returns the epoch-0 network
    tr, va = primal_split(seed)
    sse = train_mod._sse
    monkeypatch.setattr(train_mod, "_sse", lambda net, xn, targets:
                        1.0 if targets is va.targets else sse(net, xn, targets))
    monkeypatch.setattr(train_mod, "SSE_GOAL", 1e-30)
    net, report = train(tr, va, seed=seed, hidden_size=3)
    assert report.stop_reason is StopReason.VALIDATION_STOP
    assert report.epochs_run == 1 + train_mod.MAX_VAL_FAILURES
    assert report.val_sse_history == (1.0,) * report.epochs_run
    first, _ = train(tr, va, seed=seed, hidden_size=3, max_epochs=1)
    assert np.array_equal(net.to_weight_vector(), first.to_weight_vector())


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_mu_stops_falling_at_1e_20(monkeypatch, seed):
    # 25 epochs accepted at their first candidate divide mu by 10 from 1e-3
    # down to the floor; checked against the literal 1e-20, not MU_FLOOR
    monkeypatch.setattr(train_mod, "SSE_GOAL", 1e-30)
    monkeypatch.setattr(train_mod, "MAX_VAL_FAILURES", 1000)
    tr, va, _ = partition(toy_dataset(np.random.default_rng(seed)), seed=0)
    _, report = train(tr, va, seed=seed, max_epochs=25)
    assert min(report.mu_history) < 1e-12
    assert min(report.mu_history) == report.mu_history[-1] == 1e-20


def test_train_is_deterministic(rng):
    ds = toy_dataset(rng)
    tr, va, _ = partition(ds, seed=0)
    n1, r1 = train(tr, va, seed=9, max_epochs=20)
    n2, r2 = train(tr, va, seed=9, max_epochs=20)
    assert np.array_equal(n1.to_weight_vector(), n2.to_weight_vector())
    assert r1.train_sse_history == r2.train_sse_history


def test_train_normalizes_from_training_split(rng):
    ds = toy_dataset(rng)
    tr, va, _ = partition(ds, seed=4)
    net, _ = train(tr, va, seed=0, max_epochs=5)
    assert np.array_equal(net.norm.lo, tr.features.min(axis=0))
    assert np.array_equal(net.norm.hi, tr.features.max(axis=0))


# --- restarts ----------------------------------------------------------------

def test_select_best_restart_argmax_and_tiebreak():
    assert select_best_restart([0.5, 0.9, 0.7]) == 1
    assert select_best_restart([0.9, 0.9, 0.9]) == 0
    assert select_best_restart([0.1, 0.8, 0.8]) == 1


def test_train_best_of_selects_max_accuracy(rng):
    ds = toy_dataset(rng, n=30, separation=0.4)
    net, report, restarts, best = train_best_of(
        ds, restarts=4, master_seed=11, max_epochs=10)
    assert best == select_best_restart([run.train_accuracy for run in restarts])
    assert restarts[best].train_accuracy == max(
        run.train_accuracy for run in restarts)
    assert restarts[best].network is net and restarts[best].report is report
    assert [run.seed for run in restarts] == [11 ^ r for r in range(4)]


def test_restart_accuracy_is_the_training_split_accuracy_at_one_half(rng):
    ds = toy_dataset(rng, n=30, separation=0.4)
    tr, va, _ = partition(ds, seed=5)
    _, _, restarts, _ = train_best_of(ds, restarts=2, master_seed=5, max_epochs=3)
    for run in restarts:
        net, _ = train(tr, va, seed=run.seed, max_epochs=3)
        y = mlp.forward_batch(net, tr.features)
        hits = sum((o >= 0.5) == (c is GestureClass.SMOKING) for o, c in zip(y, tr.classes))
        assert run.train_accuracy == hits / len(tr)


def test_train_best_of_single_restart_equals_train(rng):
    ds = toy_dataset(rng, n=30)
    net_a, rep_a, _, selected = train_best_of(
        ds, restarts=1, master_seed=6, max_epochs=8)
    tr, va, _ = partition(ds, seed=6)
    net_b, rep_b = train(tr, va, seed=6 ^ 0, max_epochs=8)
    assert selected == 0
    assert np.array_equal(net_a.to_weight_vector(), net_b.to_weight_vector())
    assert rep_a.train_sse_history == rep_b.train_sse_history


def full_restart_loop(dataset: LabeledDataset, restarts: int, master_seed: int,
                      max_epochs: int = train_mod.DEFAULT_MAX_EPOCHS):
    """Every restart trained on the `partition` split, with no early exit;
    returns the networks, their reports, the train report's restart rows
    built from those reports, and the index of the highest training
    accuracy at 0.5, ties going to the lowest index."""
    tr, va, _ = partition(dataset, master_seed)
    nets, reports, rows = [], [], []
    for r in range(restarts):
        net, report = train(tr, va, master_seed ^ r, max_epochs=max_epochs)
        y = mlp.forward_batch(net, tr.features)
        hits = sum((o >= 0.5) == (c is GestureClass.SMOKING) for o, c in zip(y, tr.classes))
        nets.append(net)
        reports.append(report)
        rows.append({"index": r, "seed": master_seed ^ r, "train_accuracy": hits / len(tr),
                     "epochs_run": report.epochs_run,
                     "final_train_sse": report.final_train_sse,
                     "final_val_sse": report.final_val_sse,
                     "stop_reason": report.stop_reason.value})
    best = min(range(restarts), key=lambda r: (-rows[r]["train_accuracy"], r))
    return nets, reports, rows, best


def check_against_full_loop(dataset, restarts, master_seed, report_path, **kw):
    """train_best_of and the train report it saves against
    `full_restart_loop`; returns the restarts run."""
    nets, reports, want, best = full_restart_loop(dataset, restarts, master_seed, **kw)
    net, report, runs, selected = train_best_of(
        dataset, restarts=restarts, master_seed=master_seed, **kw)
    assert selected == best
    assert np.array_equal(net.to_weight_vector(), nets[best].to_weight_vector())
    assert report == reports[best]
    perfect = [row["train_accuracy"] == 1.0 for row in want]
    ran = perfect.index(True) + 1 if True in perfect else restarts
    assert len(runs) == ran
    for r, run in enumerate(runs):
        assert run.report == reports[r]
        assert np.array_equal(run.network.to_weight_vector(), nets[r].to_weight_vector())
    save_report(runs, report_path, selected)
    doc = json.loads(report_path.read_text())
    # items() lists compare key order too
    assert [list(row.items()) for row in doc.pop("restarts")] == [
        list(row.items()) for row in want[:ran]]
    assert doc.pop("restart_stop") == (
        "perfect_train_accuracy" if True in perfect else "restart_limit")
    assert doc.pop("selected_restart") == best
    assert doc == json.loads(json.dumps(reports[best].to_json_dict()))
    return ran


# every mode of seeds 0-4 and 9 reaches 1.0 at restart 0; seed 6's AVG first
# reaches it at restart 1, after a restart 0 that stopped on validation at
# another epoch, so a row read from the other restart's report differs
@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 6, 9])
def test_early_exit_matches_the_full_restart_loop(seed, tmp_path):
    train_corpus, _, _ = synth.generate_table1(master_seed=seed)
    for dataset in build_datasets(train_corpus, tuple(ChannelMode)):
        check_against_full_loop(dataset, 10, seed,
                                tmp_path / f"train_report_{dataset.mode.value}.json")


def test_no_perfect_restart_runs_every_restart(rng, tmp_path):
    # pairs of items share a feature vector but not a class; 21 training
    # items from 15 pairs hold at least one whole pair, so no restart can
    # classify every training item
    feats = np.repeat(rng.normal(size=(15, 6)), 2, axis=0)
    classes = (GestureClass.COUGH, GestureClass.SMOKING) * 15
    ds = LabeledDataset(mode=ChannelMode.X, features=feats, classes=classes)
    assert check_against_full_loop(ds, 4, 3, tmp_path / "report.json",
                                   max_epochs=10) == 4


def test_train_best_of_rejects_zero_restarts(rng):
    with pytest.raises(InvalidSize):
        train_best_of(toy_dataset(rng), restarts=0)


@pytest.mark.parametrize("max_epochs", [0, -1])
def test_train_rejects_max_epochs_below_one(rng, max_epochs):
    tr, va, _ = partition(toy_dataset(rng), seed=0)
    with pytest.raises(InvalidSize):
        train(tr, va, max_epochs=max_epochs)
    with pytest.raises(InvalidSize):
        train_best_of(toy_dataset(rng), restarts=1, max_epochs=max_epochs)


def test_report_json_shape(rng):
    ds = toy_dataset(rng)
    tr, va, _ = partition(ds, seed=0)
    _, report = train(tr, va, seed=0, max_epochs=4)
    doc = json.loads(json.dumps(report.to_json_dict()))
    assert doc["epochs_run"] == report.epochs_run
    assert doc["stop_reason"] in {r.value for r in StopReason}
    for key in ("train_sse_history", "val_sse_history", "mu_history", "rejected_steps"):
        assert len(doc[key]) == doc["epochs_run"]
    assert all(isinstance(k, int) for k in doc["rejected_steps"])
    assert doc["mu_history"] == list(report.mu_history)


def test_report_records_how_mu_moved(rng, monkeypatch):
    # epoch 1 replayed by brute force: lm_step at MU0 * MU_INC**k for
    # k = 0, 1, ... until a candidate lowers the training SSE
    ds = toy_dataset(rng, n=30, separation=0.3)
    tr, va, _ = partition(ds, seed=2)
    mu0, mu_inc, mu_dec = 1e-6, train_mod.MU_INC, train_mod.MU_DEC
    monkeypatch.setattr(train_mod, "MU0", mu0)
    monkeypatch.setattr(train_mod, "SSE_GOAL", 1e-30)
    seed = 4
    _, report = train(tr, va, seed=seed, max_epochs=6)
    net0 = replace(mlp.init_network(tr.input_size, mlp.DEFAULT_HIDDEN, rng=seed),
                   norm=mlp.NormParams.from_features(tr.features))
    base = sse(net0, tr)
    k = 0
    while sse(net0.with_weights(
            lm_step(net0, tr, mu0 * mu_inc ** k)), tr) >= base:
        k += 1
    assert k >= 1  # the replay covers rejected retries
    assert report.rejected_steps[0] == k
    assert report.mu_history[0] == pytest.approx(mu0 * mu_inc ** k, rel=1e-12)
    # later epochs start from the last accepted mu divided by MU_DEC
    for e in range(1, report.epochs_run):
        start = max(report.mu_history[e - 1] / mu_dec, MU_FLOOR)
        assert report.mu_history[e] == pytest.approx(
            start * mu_inc ** report.rejected_steps[e], rel=1e-12)


def test_build_datasets_resample_once_and_match_per_recording_features(
        rng, monkeypatch):
    from conftest import make_recording
    recs = [make_recording(rng.normal(size=(m, 3))) for m in (50, 61, 77)]
    calls = []

    def counted(rec, n):
        calls.append(rec)
        return resample_uniform(rec, n)

    monkeypatch.setattr(train_mod, "resample_uniform", counted)
    datasets = build_datasets(recs, tuple(ChannelMode), n=20)
    assert calls == recs
    for mode, ds in zip(ChannelMode, datasets):
        assert ds.mode is mode
        want = np.stack([extract_features(resample_uniform(rec, 20), mode)
                         for rec in recs])
        assert ds.features.tobytes() == want.tobytes()


def test_build_dataset_targets_follow_labels(rng):
    from conftest import make_recording
    recs = [make_recording(rng.normal(size=(50, 3)), label=GestureClass.SMOKING),
            make_recording(rng.normal(size=(60, 3)), label=GestureClass.YAWN)]
    ds = build_dataset(recs, ChannelMode.XYZ, n=20)
    assert ds.features.shape == (2, 60)
    assert ds.targets.tolist() == [1.0, 0.0]
    assert ds.classes == (GestureClass.SMOKING, GestureClass.YAWN)
