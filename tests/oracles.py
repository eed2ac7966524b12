"""Reference helpers that no command of the package runs, kept for the tests.

Each one is a plain composition of package functions, the one-item or
Jacobian-form version of a path the package runs in batch or Gram form:

- `forward`: one feature vector through `mlp.forward_batch`;
- `outputs_and_jacobian`: the explicit residual Jacobian of a raw feature
  matrix, from `kernels.batch_jacobian`;
- `lm_step`: one Levenberg-Marquardt candidate from that Jacobian through
  `train.solve_damped`, the step `train()` takes in Gram form;
- `generate_gesture`: one isolated gesture recording, the one-generator case
  of the batched `synth` draw.
"""

from typing import Union

import numpy as np

from smokewatch import kernels, mlp
from smokewatch.errors import EmptyBatch
from smokewatch.signal import SensorRecording
from smokewatch.synth import DeviceProfile, GestureTemplate, _gesture_recordings
from smokewatch.train import LabeledDataset, solve_damped


def forward(network: mlp.Network, raw) -> float:
    """Network output in the open interval (0, 1) for one feature vector."""
    return float(mlp.forward_batch(network, raw[None, :])[0])


def outputs_and_jacobian(network: mlp.Network, features: np.ndarray):
    """(outputs, residual Jacobian) for a raw feature matrix.

    Row s, column w of the Jacobian holds d output(x_s) / dw; columns follow
    the packed weight-vector order.
    """
    xn = mlp.scaled_inputs(network, features)
    if xn.shape[0] == 0:
        raise EmptyBatch("jacobian needs at least one sample")
    jac, y = kernels.batch_jacobian(network.w1, network.b1, network.w2,
                                    network.b2, xn)
    return y, jac


def lm_step(network: mlp.Network, batch: LabeledDataset, mu: float) -> np.ndarray:
    """One damped least-squares candidate: current weights plus delta."""
    if len(batch) == 0:
        raise EmptyBatch("lm_step needs a non-empty batch")
    y, jac = outputs_and_jacobian(network, batch.features)
    err = batch.targets - y
    delta = solve_damped(jac, err, mu)
    return network.to_weight_vector() + delta


def generate_gesture(template: GestureTemplate, profile: DeviceProfile,
                     rng: Union[np.random.Generator, int, None] = None) -> SensorRecording:
    """One isolated gesture recording at the nominal 50 Hz."""
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    return _gesture_recordings(template, profile, [rng])[0]
