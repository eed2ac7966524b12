"""Hot numeric kernels: vectorized numpy forward pass, its banded form over
rolling windows, residual Jacobian and its Gram form.

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
With more rows than weights `train` builds J'J from `batch_jacobian` instead;
the tests check both forms against each other and `batch_jacobian` against
finite differences.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidSample

# Outputs are clamped to the open interval (0, 1); the logistic saturates to
# exactly 0.0/1.0 in float64 for |z| beyond ~37.
OPEN_LO = float(np.nextafter(0.0, 1.0))
OPEN_HI = float(np.nextafter(1.0, 0.0))


def _logistic(z: np.ndarray) -> np.ndarray:
    # exp of a non-positive argument only, so neither branch overflows
    e = np.exp(-np.abs(z))
    return np.where(z >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))


def output_layer(h, w2, b2):
    """Outputs in the open interval (0, 1) for hidden activations h (m, hidden)."""
    return np.clip(_logistic(h @ w2 + b2), OPEN_LO, OPEN_HI)


def check_outputs(outputs: np.ndarray) -> None:
    """InvalidSample unless every output is finite and in [0, 1] (an input
    near +-1e308 gives NaN); -0.0 passes, printed as "%.10f" prints it."""
    if not np.all((outputs >= 0.0) & (outputs <= 1.0)):
        raise InvalidSample("outputs must be finite and lie in [0, 1]")


def batch_forward(w1, b1, w2, b2, xn):
    """Outputs for normalized inputs xn (m, p) -> (m,)."""
    return output_layer(np.tanh(xn @ w1.T + b1), w2, b2)


def window_band(w, signals: int, stride: int, per_row: int) -> np.ndarray:
    """First-layer weights w (hidden, signals * width) as one banded matrix
    over rows of `per_row` windows `stride` samples apart.

    A row holds, per signal, `(per_row - 1) * stride + width` consecutive
    samples, the signals one after another. Column block r of the band (of
    `hidden` columns) holds each signal's weights shifted down by
    `r * stride`, so `row @ band` is the pre-activations (without b) of the
    row's windows r = 0 .. per_row - 1, side by side.
    """
    hidden = w.shape[0]
    width = w.shape[1] // signals
    row_len = (per_row - 1) * stride + width
    band = np.zeros((signals, row_len, per_row, hidden))
    weights = w.T.reshape(signals, width, hidden)
    for r in range(per_row):
        band[:, r * stride:r * stride + width, r] = weights
    return band.reshape(signals * row_len, per_row * hidden)


def band_forward(band, b1, w2, b2, rows):
    """Outputs of the windows in rows (m, k) of `window_band`'s layout ->
    (m * per_row,), row after row."""
    h = np.tanh((rows @ band).reshape(-1, b1.shape[0]) + b1)
    return output_layer(h, w2, b2)


def _gradient_factors(w1, b1, w2, b2, xn):
    """Hidden activations h, outputs y, d = g * w2 * (1 - h^2) and g = y(1-y)."""
    h = np.tanh(xn @ w1.T + b1)
    y = output_layer(h, w2, b2)
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
