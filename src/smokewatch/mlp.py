"""The feedforward network: one tanh hidden layer, one logistic output.

Inputs are scaled element-wise from the training-set [min, max] onto [-1, 1]
before the first layer; the scaling lives inside the model so a saved network
is self-contained. The forward pass and the analytic residual Jacobian that
Levenberg-Marquardt needs are `kernels` functions of the scaled matrix that
`scaled_inputs` returns.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import Union

import numpy as np

from . import kernels, metrics
from .errors import InvalidSize, LengthMismatch, MalformedModel
from .fileio import read_json, write_json
from .signal import ChannelMode, FEATURE_POINTS

MODEL_VERSION = 1
DEFAULT_HIDDEN = 10


@dataclass(frozen=True, eq=False)
class NormParams:
    """Per-input-element min/max captured from a training set."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lo", np.asarray(self.lo, dtype=np.float64))
        object.__setattr__(self, "hi", np.asarray(self.hi, dtype=np.float64))
        if self.lo.shape != self.hi.shape or self.lo.ndim != 1:
            raise LengthMismatch("norm min/max must be 1-d and equally long")
        if not (np.all(np.isfinite(self.lo)) and np.all(np.isfinite(self.hi))):
            raise ValueError("norm min/max must be finite")
        if np.any(self.hi < self.lo):
            raise ValueError("norm max must be >= min element-wise")

    @classmethod
    def identity(cls, n: int) -> "NormParams":
        """Maps [-1, 1] onto itself; placeholder until a training set is seen."""
        return cls(lo=-np.ones(n), hi=np.ones(n))

    @classmethod
    def from_features(cls, features: np.ndarray) -> "NormParams":
        features = np.asarray(features, dtype=np.float64)
        return cls(lo=features.min(axis=0), hi=features.max(axis=0))

    def apply(self, values: np.ndarray) -> np.ndarray:
        """Affine map of [lo, hi] onto [-1, 1]; degenerate elements go to 0.

        Values outside the captured range extrapolate linearly (no clamping).
        """
        span = self.hi - self.lo
        live = span > 0.0
        mid = 0.5 * (self.lo + self.hi)
        return np.where(live, 2.0 * (values - mid) / np.where(live, span, 1.0), 0.0)


@dataclass(frozen=True, eq=False)
class Network:
    """Immutable weights plus the channel mode and input scaling they expect."""

    input_size: int
    hidden_size: int
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: float
    mode: ChannelMode
    norm: NormParams

    def __post_init__(self):
        if self.input_size < 1 or self.hidden_size < 1:
            raise InvalidSize("input_size and hidden_size must be >= 1")
        if (self.mode is ChannelMode.XYZ) != (self.input_size == 3 * FEATURE_POINTS):
            raise InvalidSize("XYZ networks take 600 inputs; other modes must not")
        object.__setattr__(self, "w1", np.asarray(self.w1, dtype=np.float64))
        object.__setattr__(self, "b1", np.asarray(self.b1, dtype=np.float64))
        object.__setattr__(self, "w2", np.asarray(self.w2, dtype=np.float64))
        object.__setattr__(self, "b2", float(self.b2))
        if self.w1.shape != (self.hidden_size, self.input_size):
            raise InvalidSize("w1 must be hidden_size x input_size")
        if self.b1.shape != (self.hidden_size,) or self.w2.shape != (self.hidden_size,):
            raise InvalidSize("b1 and w2 must have hidden_size entries")
        if self.norm.lo.shape[0] != self.input_size:
            raise LengthMismatch("norm length must equal input_size")
        for arr in (self.w1, self.b1, self.w2, self.b2):
            if not np.all(np.isfinite(arr)):
                raise ValueError("weights must be finite")

    @property
    def n_weights(self) -> int:
        return self.hidden_size * (self.input_size + 1) + self.hidden_size + 1

    @property
    def window(self) -> int:
        """Samples of each signal in one input: the detect window."""
        return self.input_size // self.mode.signal_count

    def to_weight_vector(self) -> np.ndarray:
        """Pack weights as [w1 row-major, b1, w2, b2]."""
        return np.concatenate([self.w1.ravel(), self.b1, self.w2, [self.b2]])

    def with_weights(self, vec: np.ndarray) -> "Network":
        """Inverse of to_weight_vector; the new arrays are views of vec."""
        vec = np.asarray(vec, dtype=np.float64)
        if vec.shape != (self.n_weights,):
            raise LengthMismatch(f"weight vector must have {self.n_weights} entries")
        hsz, k = self.hidden_size, self.hidden_size * self.input_size
        return replace(self, w1=vec[:k].reshape(hsz, self.input_size),
                       b1=vec[k : k + hsz], w2=vec[k + hsz : k + 2 * hsz],
                       b2=float(vec[-1]))

    def raw_first_layer(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """First-layer (w, b) on centred raw inputs, the scaling folded in.

        The inputs are `mode.signal_count` equally long runs, one per signal
        of the mode. Each signal's centre c is the mean scaling midpoint of
        its run, and `(raw - c) @ w.T + b` equals
        `norm.apply(raw) @ w1.T + b1` up to rounding: w = w1 * (2 / span) and
        b = b1 - w @ (mid - c), with zero columns where the span is 0 (those
        inputs scale to 0 whatever their value). The rounding grows with
        |mid - c| / span, so centring keeps it small on inputs with a large
        offset and a narrow range. Returns (w, b, one centre per signal).
        """
        lo, hi = self.norm.lo, self.norm.hi
        span = hi - lo
        live = span > 0.0
        mid = 0.5 * (lo + hi)
        centres = mid.reshape(self.mode.signal_count, self.window).mean(axis=1)
        w = self.w1 * np.where(live, 2.0 / np.where(live, span, 1.0), 0.0)
        b = self.b1 - w @ np.where(live, mid - np.repeat(centres, self.window), 0.0)
        return w, b, centres


def init_network(input_size: int, hidden_size: int = DEFAULT_HIDDEN,
                 rng: Union[np.random.Generator, int, None] = None,
                 mode: ChannelMode = ChannelMode.X) -> Network:
    """Fresh network: weights uniform on [-0.5, 0.5], biases zero.

    Deterministic given the generator state (w1 is drawn before w2). The
    scaling starts as the identity map on [-1, 1] and is replaced during
    training.
    """
    if input_size < 1 or hidden_size < 1:
        raise InvalidSize("input_size and hidden_size must be >= 1")
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    w1 = rng.uniform(-0.5, 0.5, size=(hidden_size, input_size))
    w2 = rng.uniform(-0.5, 0.5, size=hidden_size)
    return Network(input_size=input_size, hidden_size=hidden_size,
                   w1=w1, b1=np.zeros(hidden_size), w2=w2, b2=0.0,
                   mode=mode, norm=NormParams.identity(input_size))


def scaled_inputs(network: Network, raw) -> np.ndarray:
    """Raw (n, input_size) feature matrix -> contiguous scaled matrix."""
    arr = np.asarray(raw, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != network.input_size:
        raise LengthMismatch(f"expected an (n, {network.input_size}) input matrix, "
                             f"got shape {arr.shape}")
    return np.ascontiguousarray(network.norm.apply(arr))


def forward_batch(network: Network, features: np.ndarray) -> np.ndarray:
    """Outputs for raw (n, input_size) features; InvalidSample if one is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        outputs = kernels.batch_forward(network.w1, network.b1, network.w2,
                                        network.b2, scaled_inputs(network, features))
    kernels.check_outputs(outputs)
    return outputs


def save_model(network: Network, path: Union[str, Path],
               threshold: float = metrics.DEFAULT_THRESHOLD) -> None:
    doc = {
        "version": MODEL_VERSION,
        "mode": network.mode.value,
        "input_size": network.input_size,
        "hidden_size": network.hidden_size,
        "norm_min": network.norm.lo.tolist(),
        "norm_max": network.norm.hi.tolist(),
        "w1": [row.tolist() for row in network.w1],
        "b1": network.b1.tolist(),
        "w2": network.w2.tolist(),
        "b2": network.b2,
        "threshold": threshold,
    }
    write_json(path, doc)


def _json_value(doc: dict, key: str, types: tuple[type, ...]):
    """doc[key] if it is one of types and not a bool; MalformedModel otherwise,
    where int() or float() would read a string, a bool or a fraction."""
    value = doc[key]
    if isinstance(value, bool) or not isinstance(value, types):
        raise MalformedModel(f"{key} holds the ill-typed value {value!r}")
    return value


def _json_array(doc: dict, key: str) -> np.ndarray:
    """doc[key] as an array if it holds JSON numbers only; MalformedModel for
    strings, bools or nulls among them."""
    value = np.asarray(doc[key])
    if value.dtype.kind not in "if":
        raise MalformedModel(f"{key} must hold JSON numbers only")
    return value


def load_model(path: Union[str, Path]) -> tuple[Network, float]:
    """Read a model file; returns the network and its stored threshold.

    Raises MalformedModel for invalid JSON, a missing or ill-typed key, an
    unsupported version or arrays whose shapes do not fit the stated sizes
    and mode, and InvalidThreshold for a threshold outside (0, 1).
    """
    try:
        doc = read_json(path)
        if doc.get("version") != MODEL_VERSION:
            raise MalformedModel(
                f"unsupported model version {doc.get('version')!r}")
        net = Network(
            input_size=_json_value(doc, "input_size", (int,)),
            hidden_size=_json_value(doc, "hidden_size", (int,)),
            w1=_json_array(doc, "w1"),
            b1=_json_array(doc, "b1"),
            w2=_json_array(doc, "w2"),
            b2=_json_value(doc, "b2", (int, float)),
            mode=ChannelMode.parse(doc["mode"]),
            norm=NormParams(lo=_json_array(doc, "norm_min"),
                            hi=_json_array(doc, "norm_max")),
        )
        threshold = float(_json_value(doc, "threshold", (int, float)))
    except KeyError as exc:
        raise MalformedModel(f"model file lacks key {exc.args[0]!r}") from None
    except (AttributeError, TypeError, ValueError, OverflowError) as exc:
        raise MalformedModel(f"malformed model file: {exc}") from None
    except (InvalidSize, LengthMismatch) as exc:
        raise MalformedModel(str(exc)) from None
    metrics.check_threshold(threshold, f"stored threshold {threshold!r}")
    return net, threshold
