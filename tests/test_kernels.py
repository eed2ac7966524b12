"""Kernel edge cases: outputs must stay inside the open unit interval and
the logistic must stay finite at extreme inputs. Agreement with finite
differences is checked in test_mlp.py and acceptance 2."""

import numpy as np

from smokewatch import kernels


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
