"""Network construction, normalization, forward pass and the analytic
Jacobian, checked against hand-computed values and a central
finite-difference oracle."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import tiny_network
from smokewatch import mlp
from smokewatch.errors import EmptyBatch, InvalidSize, LengthMismatch
from smokewatch.signal import ChannelMode, extract_features


def fd_jacobian(network, features, eps=1e-6):
    """Central finite differences of the batch outputs wrt every weight."""
    w0 = network.to_weight_vector()
    cols = []
    for k in range(w0.size):
        wp = w0.copy()
        wp[k] += eps
        wm = w0.copy()
        wm[k] -= eps
        yp = mlp.forward_batch(network.with_weights(wp), features)
        ym = mlp.forward_batch(network.with_weights(wm), features)
        cols.append((yp - ym) / (2 * eps))
    return np.column_stack(cols)


# --- NormParams --------------------------------------------------------------

def test_norm_maps_training_range_to_unit_interval():
    norm = mlp.NormParams(lo=np.array([0.0, -2.0]), hi=np.array([10.0, 2.0]))
    out = norm.apply(np.array([0.0, -2.0]))
    assert out.tolist() == [-1.0, -1.0]
    out = norm.apply(np.array([10.0, 2.0]))
    assert out.tolist() == [1.0, 1.0]
    out = norm.apply(np.array([5.0, 0.0]))
    assert out.tolist() == [0.0, 0.0]


def test_norm_degenerate_element_maps_to_zero(rng):
    norm = mlp.NormParams(lo=np.array([3.0, 0.0]), hi=np.array([3.0, 1.0]))
    out = norm.apply(np.array([99.0, 0.75]))
    assert out[0] == 0.0
    assert out[1] == pytest.approx(0.5)
    # 2-d input: live columns bitwise equal the textbook formula, dead
    # columns are +0.0, and the input is left untouched
    lo = np.array([0.0, 3.0, -1.0, 2.0])
    hi = np.array([1.0, 3.0, 4.0, 2.0])
    norm = mlp.NormParams(lo=lo, hi=hi)
    values = rng.normal(size=(7, 4)) * 5.0
    before = values.copy()
    out = norm.apply(values)
    live = np.array([True, False, True, False])
    mid, span = 0.5 * (lo + hi), hi - lo
    assert np.array_equal(out[:, live], 2.0 * (values[:, live] - mid[live]) / span[live])
    assert np.all(out[:, ~live] == 0.0)
    assert not np.any(np.signbit(out[:, ~live]))
    assert np.array_equal(values, before)


def test_raw_first_layer_folds_the_scaling(rng):
    # the folded layer on raw inputs equals the first layer on scaled inputs;
    # dead inputs (lo == hi) get zero weight columns whatever value they carry
    net = tiny_network(6, 3, seed=4)
    lo = np.array([0.0, 3.0, -1.0, 2.0, 0.9, -0.2])
    hi = np.array([1.0, 3.0, 4.0, 2.0, 1.1, 0.3])
    net = replace(net, norm=mlp.NormParams(lo=lo, hi=hi))
    raw = rng.normal(size=(9, 6)) * 5.0
    want = net.norm.apply(raw) @ net.w1.T + net.b1
    mid = 0.5 * (lo + hi)
    w, b, centres = net.raw_first_layer()
    assert np.all(w[:, [1, 3]] == 0.0)
    assert np.array_equal(centres, [mid.mean()])
    assert np.allclose((raw - centres[0]) @ w.T + b, want, rtol=0.0, atol=1e-12)
    # an XYZ net reads three signals of 200 inputs each: one centre per
    # signal, each moved into the bias only
    lo3, hi3 = np.tile(lo, 100), np.tile(hi, 100)
    xyz = replace(tiny_network(600, 3, seed=4, mode=ChannelMode.XYZ),
                  norm=mlp.NormParams(lo=lo3, hi=hi3))
    w3, b3, centres3 = xyz.raw_first_layer()
    mid3 = 0.5 * (lo3 + hi3)
    assert np.array_equal(centres3, [mid3[:200].mean(), mid3[200:400].mean(),
                                     mid3[400:].mean()])
    assert np.all(w3[:, 1::6] == 0.0) and np.all(w3[:, 3::6] == 0.0)
    raw3 = rng.normal(size=(9, 600)) * 5.0
    want3 = xyz.norm.apply(raw3) @ xyz.w1.T + xyz.b1
    centred = raw3 - np.repeat(centres3, 200)
    assert np.allclose(centred @ w3.T + b3, want3, rtol=0.0, atol=1e-12)


def test_norm_extrapolates_outside_range():
    norm = mlp.NormParams(lo=np.array([0.0]), hi=np.array([2.0]))
    assert norm.apply(np.array([3.0]))[0] == pytest.approx(2.0)
    assert norm.apply(np.array([-1.0]))[0] == pytest.approx(-2.0)


def test_norm_from_features(rng):
    feats = rng.normal(size=(30, 6))
    norm = mlp.NormParams.from_features(feats)
    assert np.array_equal(norm.lo, feats.min(axis=0))
    assert np.array_equal(norm.hi, feats.max(axis=0))


# --- construction ------------------------------------------------------------

def test_weight_count_arithmetic():
    net = tiny_network(200, 10, seed=0)
    assert net.n_weights == 2021
    net = tiny_network(600, 10, seed=0, mode=ChannelMode.XYZ)
    assert net.n_weights == 6021


def test_init_is_seed_deterministic():
    a = tiny_network(20, 3, seed=42)
    b = tiny_network(20, 3, seed=42)
    assert np.array_equal(a.to_weight_vector(), b.to_weight_vector())
    c = tiny_network(20, 3, seed=43)
    assert not np.array_equal(a.to_weight_vector(), c.to_weight_vector())


def test_init_weights_bounded_biases_zero():
    net = tiny_network(50, 10, seed=9)
    assert np.all(np.abs(net.w1) <= 0.5)
    assert np.all(np.abs(net.w2) <= 0.5)
    assert np.all(net.b1 == 0.0)
    assert net.b2 == 0.0


def test_network_validates_mode_size_consistency():
    with pytest.raises(InvalidSize):
        tiny_network(600, 10, seed=0, mode=ChannelMode.X)
    with pytest.raises(InvalidSize):
        tiny_network(200, 10, seed=0, mode=ChannelMode.XYZ)


def test_weight_vector_roundtrip(rng):
    net = tiny_network(13, 4, seed=3)
    vec = rng.normal(size=net.n_weights)
    back = net.with_weights(vec).to_weight_vector()
    assert np.array_equal(back, vec)


# --- forward -----------------------------------------------------------------

def test_forward_zero_weights_is_half(rng):
    net = tiny_network(8, 3, seed=0).with_weights(np.zeros(3 * 8 + 3 + 3 + 1))
    assert mlp.forward(net, rng.normal(size=8)) == 0.5


def test_forward_hand_computed_single_unit():
    # one hidden unit; w1 x + b1 = 0 so tanh vanishes; output = logistic(b2)
    net = mlp.init_network(2, 1, rng=0)
    vec = np.zeros(net.n_weights)
    net = net.with_weights(vec)
    x = np.array([0.3, -0.7])
    assert mlp.forward(net, x) == 0.5
    vec2 = vec.copy()
    vec2[-1] = math.log(3.0)
    assert mlp.forward(net.with_weights(vec2), x) == pytest.approx(0.75, abs=1e-12)


def test_forward_full_hand_computation():
    # 2 inputs, 2 hidden: compute the whole pipeline by hand
    net = mlp.init_network(2, 2, rng=0)
    w1 = np.array([[0.1, -0.2], [0.3, 0.4]])
    b1 = np.array([0.05, -0.1])
    w2 = np.array([0.7, -0.6])
    b2 = 0.2
    vec = np.concatenate([w1.ravel(), b1, w2, [b2]])
    net = net.with_weights(vec)
    x = np.array([0.5, -0.25])
    h = np.tanh(w1 @ x + b1)
    expect = 1.0 / (1.0 + math.exp(-(w2 @ h + b2)))
    assert mlp.forward(net, x) == pytest.approx(expect, rel=1e-14)


def test_forward_uses_normalization():
    norm = mlp.NormParams(lo=np.array([0.0, 0.0]), hi=np.array([10.0, 1.0]))
    net = mlp.Network(input_size=2, hidden_size=1, w1=np.array([[1.0, 0.0]]),
                      b1=np.zeros(1), w2=np.array([5.0]), b2=0.0,
                      mode=ChannelMode.X, norm=norm)
    # raw 5.0 normalizes to 0 -> tanh(0)=0 -> logistic(0)=0.5
    assert mlp.forward(net, np.array([5.0, 0.5])) == 0.5
    # raw 10.0 normalizes to +1
    expect = 1.0 / (1.0 + math.exp(-5.0 * math.tanh(1.0)))
    assert mlp.forward(net, np.array([10.0, 0.5])) == pytest.approx(expect, rel=1e-13)


def test_forward_accepts_feature_vector_and_checks_length(rng):
    net = tiny_network(6, 2, seed=1)
    # the network input of an X-mode feature vector: a 1-d array
    fv = extract_features(tuple(rng.normal(size=(3, 6))), ChannelMode.X)
    out = mlp.forward(net, fv)
    assert 0.0 < out < 1.0
    with pytest.raises(LengthMismatch):
        mlp.forward(net, rng.normal(size=7))


def test_output_strictly_monotone_in_b2(rng):
    net = tiny_network(5, 3, seed=2)
    x = rng.normal(size=5)
    vec = net.to_weight_vector()
    outs = []
    for b2 in np.linspace(-3, 3, 9):
        v = vec.copy()
        v[-1] = b2
        outs.append(mlp.forward(net.with_weights(v), x))
    assert all(a < b for a, b in zip(outs, outs[1:]))


def test_forward_batch_matches_forward(rng):
    net = tiny_network(7, 3, seed=4)
    feats = rng.normal(size=(11, 7))
    batch = mlp.forward_batch(net, feats)
    single = [mlp.forward(net, feats[i]) for i in range(11)]
    assert np.allclose(batch, single, rtol=1e-14, atol=0)


# --- jacobian ----------------------------------------------------------------

def test_jacobian_shape_and_fd_agreement(rng):
    for _ in range(30):
        p = int(rng.integers(1, 11))
        h = int(rng.integers(1, 5))
        net = tiny_network(p, h, seed=int(rng.integers(0, 10**6)))
        vec = rng.uniform(-0.8, 0.8, net.n_weights)
        net = net.with_weights(vec)
        feats = rng.normal(size=(int(rng.integers(1, 6)), p))
        _, jac = mlp.outputs_and_jacobian(net, feats)
        assert jac.shape == (feats.shape[0], net.n_weights)
        ref = fd_jacobian(net, feats)
        scale = max(np.max(np.abs(ref)), 1e-12)
        assert np.max(np.abs(jac - ref)) / scale <= 1e-4


def test_jacobian_zero_input_zeroes_w1_columns():
    net = tiny_network(4, 3, seed=8)
    feats = np.zeros((2, 4))  # identity norm keeps these zero
    _, jac = mlp.outputs_and_jacobian(net, feats)
    w1_cols = jac[:, : 3 * 4]
    assert np.all(w1_cols == 0.0)


def test_jacobian_rejects_empty_batch():
    net = tiny_network(5, 2, seed=3)
    with pytest.raises(EmptyBatch):
        mlp.outputs_and_jacobian(net, np.zeros((0, 5)))


# --- model file --------------------------------------------------------------

def test_model_json_roundtrip(tmp_path, rng):
    net = tiny_network(9, 3, seed=11)
    net = net.with_weights(rng.normal(size=net.n_weights))
    path = tmp_path / "model.json"
    mlp.save_model(net, path, threshold=0.8)
    back, threshold = mlp.load_model(path)
    assert threshold == 0.8
    assert back.mode is net.mode
    assert np.array_equal(back.to_weight_vector(), net.to_weight_vector())
    assert np.array_equal(back.norm.lo, net.norm.lo)
    assert np.array_equal(back.norm.hi, net.norm.hi)


def test_model_json_schema(tmp_path):
    net = tiny_network(3, 2, seed=1)
    path = tmp_path / "m.json"
    mlp.save_model(net, path)
    doc = json.loads(path.read_text())
    assert doc["version"] == 1
    assert doc["mode"] == "X"
    assert doc["input_size"] == 3
    assert doc["hidden_size"] == 2
    assert len(doc["w1"]) == 2 and len(doc["w1"][0]) == 3
    assert len(doc["norm_min"]) == 3
    assert doc["threshold"] == 0.5


def test_save_model_bytes_are_deterministic(tmp_path):
    net = tiny_network(4, 2, seed=5)
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    mlp.save_model(net, a)
    mlp.save_model(net, b)
    assert a.read_bytes() == b.read_bytes()
