"""Hot numeric kernels: vectorized numpy forward pass, residual Jacobian and
its Gram form.

Weight-vector column order, shared with `mlp.Network.to_weight_vector`: w1
row-major (hidden x input), then b1, then w2, then b2.

With fewer samples than weights, Levenberg-Marquardt solves the dual system
(J J' + mu*I) alpha = e and steps by J' alpha. Row s of J is
[vec(d_s x_s'), d_s, g_s h_s, g_s] with h the hidden activations, g = y(1-y)
and d = g * w2 * (1 - h^2), so

    J J' = (D D') o (X X' + 1) + (g g') o (H H' + 1)

(o the element-wise product) and J' alpha = [vec((D o alpha)' X), D' alpha,
H'(g o alpha), g' alpha]. `batch_gram` and `gram_step_map` compute both
without building J, as the matrix and the back map of `train.damped_step`.
`batch_jacobian` is their oracle, and gives J'J with more rows than weights.
"""

from __future__ import annotations

import numpy as np

# Outputs are clamped to the open interval (0, 1); the logistic saturates to
# exactly 0.0/1.0 in float64 for |z| beyond ~37.
OPEN_LO = float(np.nextafter(0.0, 1.0))
OPEN_HI = float(np.nextafter(1.0, 0.0))


def _logistic(z: np.ndarray) -> np.ndarray:
    # exp of a non-positive argument only, so neither branch overflows
    e = np.exp(-np.abs(z))
    return np.where(z >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))


def batch_forward(w1, b1, w2, b2, xn):
    """Outputs for normalized inputs xn (m, p) -> (m,)."""
    h = np.tanh(xn @ w1.T + b1)
    y = _logistic(h @ w2 + b2)
    return np.clip(y, OPEN_LO, OPEN_HI)


def _gradient_factors(w1, b1, w2, b2, xn):
    """Hidden activations h, outputs y, d = g * w2 * (1 - h^2) and g = y(1-y)."""
    h = np.tanh(xn @ w1.T + b1)
    y = np.clip(_logistic(h @ w2 + b2), OPEN_LO, OPEN_HI)
    g = y * (1.0 - y)
    return h, y, g[:, None] * w2[None, :] * (1.0 - h * h), g


def batch_jacobian(w1, b1, w2, b2, xn):
    """Residual Jacobian and outputs for normalized inputs.

    Returns (J, y) with J of shape (m, n_weights); row s holds the gradient
    of output(x_s) with respect to every weight (the residual y - target has
    the same gradient since targets are constant).
    """
    m, p = xn.shape
    hsz = w1.shape[0]
    h, y, d, g = _gradient_factors(w1, b1, w2, b2, xn)
    jac = np.empty((m, hsz * p + 2 * hsz + 1))
    jac[:, : hsz * p] = (d[:, :, None] * xn[:, None, :]).reshape(m, hsz * p)
    jac[:, hsz * p : hsz * p + hsz] = d
    jac[:, hsz * p + hsz : hsz * p + 2 * hsz] = g[:, None] * h
    jac[:, -1] = g
    return jac, y


def batch_gram(w1, b1, w2, b2, xn, k1):
    """Gram matrix J J' of the residual Jacobian and outputs, without J.

    k1 is xn @ xn.T + 1, fixed for as long as xn is. Returns
    (gram, y, parts); y equals `batch_forward`'s outputs bit for bit and
    parts is what `gram_step_map` needs.
    """
    h, y, d, g = _gradient_factors(w1, b1, w2, b2, xn)
    gram = (d @ d.T) * k1 + np.outer(g, g) * (h @ h.T + 1.0)
    return gram, y, (h, d, g)


def gram_step_map(xn, parts, alpha):
    """J' alpha in packed weight order, from `batch_gram`'s parts."""
    h, d, g = parts
    da = d * alpha[:, None]
    return np.concatenate([(da.T @ xn).ravel(), d.T @ alpha,
                           h.T @ (g * alpha), [g @ alpha]])
