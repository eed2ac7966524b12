"""Kernel edge cases: outputs must stay inside the open unit interval and
the logistic must stay finite at extreme inputs. The Gram form is checked
against the Jacobian; agreement of the Jacobian with finite differences is
checked in test_mlp.py and acceptance 2."""

from functools import partial

import numpy as np
import pytest

from smokewatch import kernels
from smokewatch.train import damped_step, solve_damped


def test_outputs_clamped_to_open_interval():
    # huge bias saturates the logistic; the clamp must keep it off 0 and 1
    w1 = np.zeros((1, 2))
    b1 = np.zeros(1)
    w2 = np.zeros(1)
    xn = np.zeros((3, 2))
    hi = kernels.batch_forward(w1, b1, w2, 1e4, xn)
    lo = kernels.batch_forward(w1, b1, w2, -1e4, xn)
    assert np.all(hi < 1.0) and np.all(hi >= kernels.OPEN_HI)
    assert np.all(lo > 0.0) and np.all(lo <= kernels.OPEN_LO)


def test_the_clamp_lifts_only_an_output_that_underflows_to_zero():
    # the logistic of -800 underflows to 0.0 and is lifted to the smallest
    # subnormal; that of -710, exp(-710) = 4.476e-309, is subnormal and kept
    y = kernels.output_layer(np.array([[-800.0], [-710.0]]), np.ones(1), 0.0)
    assert y[0] == np.nextafter(0.0, 1.0)
    assert y[1] == np.exp(-710.0)
    assert y[1] == pytest.approx(4.476e-309, rel=1e-3)


def test_logistic_extremes_are_stable():
    w1 = np.zeros((1, 1))
    b1 = np.zeros(1)
    w2 = np.ones(1)
    xn = np.zeros((1, 1))
    for b2 in (-745.0, -60.0, 0.0, 60.0, 745.0):
        y = kernels.batch_forward(w1, b1, w2, b2, xn)
        assert np.isfinite(y).all()
        assert 0.0 < y[0] < 1.0


def test_forward_zero_weights_is_half():
    w1 = np.zeros((4, 7))
    b1 = np.zeros(4)
    w2 = np.zeros(4)
    xn = np.random.default_rng(5).normal(size=(6, 7))
    y = kernels.batch_forward(w1, b1, w2, 0.0, xn)
    assert np.all(y == 0.5)


@pytest.mark.parametrize("inputs", [200, 600])
@pytest.mark.parametrize("m", [1, 2, 21, 98])
def test_gram_form_matches_the_jacobian(inputs, m):
    # the Gram build equals J J' of batch_jacobian, and its step equals
    # solve_damped's on J, over damping from negligible to dominant
    rng = np.random.default_rng(inputs + m)
    hsz = 10
    w1 = rng.uniform(-0.5, 0.5, (hsz, inputs))
    b1 = rng.uniform(-0.5, 0.5, hsz)
    w2 = rng.uniform(-0.5, 0.5, hsz)
    xn = rng.uniform(-1.0, 1.0, (m, inputs))
    jac, y = kernels.batch_jacobian(w1, b1, w2, 0.1, xn)
    gram, y_gram, parts = kernels.batch_gram(w1, b1, w2, 0.1, xn, xn @ xn.T + 1.0)
    assert np.array_equal(y_gram, y)
    want = jac @ jac.T
    assert np.max(np.abs(gram - want)) <= 1e-10 * np.max(np.abs(want))
    err = rng.choice([0.0, 1.0], m) - y
    for mu in (1e-12, 1e-3, 1e3, 1e12):
        step = damped_step(gram, err, mu, partial(kernels.gram_step_map, xn, parts))
        oracle = solve_damped(jac, err, mu)
        assert np.linalg.norm(step - oracle) <= 1e-10 * np.linalg.norm(oracle)

