"""Hot numeric kernels: vectorized numpy forward pass and residual Jacobian.

Weight-vector column order, shared with `mlp.Network.to_weight_vector`: w1
row-major (hidden x input), then b1, then w2, then b2.
"""

from __future__ import annotations

import numpy as np

# Outputs are clamped to the open interval (0, 1); the logistic saturates to
# exactly 0.0/1.0 in float64 for |z| beyond ~37.
OPEN_LO = float(np.nextafter(0.0, 1.0))
OPEN_HI = float(np.nextafter(1.0, 0.0))


def _logistic(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0.0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def batch_forward(w1, b1, w2, b2, xn):
    """Outputs for normalized inputs xn (m, p) -> (m,)."""
    h = np.tanh(xn @ w1.T + b1)
    y = _logistic(h @ w2 + b2)
    return np.clip(y, OPEN_LO, OPEN_HI)


def batch_jacobian(w1, b1, w2, b2, xn):
    """Residual Jacobian and outputs for normalized inputs.

    Returns (J, y) with J of shape (m, n_weights); row s holds the gradient
    of output(x_s) with respect to every weight (the residual y - target has
    the same gradient since targets are constant).
    """
    m, p = xn.shape
    hsz = w1.shape[0]
    h = np.tanh(xn @ w1.T + b1)
    y = np.clip(_logistic(h @ w2 + b2), OPEN_LO, OPEN_HI)
    g = y * (1.0 - y)
    dz1 = g[:, None] * w2[None, :] * (1.0 - h * h)
    jac = np.empty((m, hsz * p + 2 * hsz + 1))
    jac[:, : hsz * p] = (dz1[:, :, None] * xn[:, None, :]).reshape(m, hsz * p)
    jac[:, hsz * p : hsz * p + hsz] = dz1
    jac[:, hsz * p + hsz : hsz * p + 2 * hsz] = g[:, None] * h
    jac[:, -1] = g
    return jac, y
