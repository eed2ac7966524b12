"""Reference helpers that no command of the package runs, kept for the tests.

Each one is a plain composition of package functions, the one-item or
Jacobian-form version of a path the package runs in batch or Gram form:

- `forward`: one feature vector through `mlp.forward_batch`;
- `outputs_and_jacobian`: the explicit residual Jacobian of a raw feature
  matrix, from `kernels.batch_jacobian`;
- `lm_step`: one Levenberg-Marquardt candidate from that Jacobian through
  `train.solve_damped`, the step `train()` takes in Gram form;
- `generate_gesture`: one isolated gesture recording, the one-generator case
  of the batched `synth` draw;
- `window_outputs`: detection's outputs with every window cut from a
  strided view and passed through `kernels.batch_forward`, the per-window
  form of the banded first layer `detect.detect_session` runs;
- `reference_load`: a CSV's recording or named fault from its whole text,
  decoded and split at once, the one-block form of
  `signal.load_recording_csv`, which reads in blocks and parses most of them
  with numpy's reader.
"""

import math
from typing import Union

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from smokewatch import kernels, mlp
from smokewatch.errors import EmptyBatch, EmptyRecording, MalformedRow
from smokewatch.signal import CSV_HEADER, SensorRecording, window_count
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


def window_outputs(network: mlp.Network, session: SensorRecording,
                   stride: int) -> np.ndarray:
    """Output of each window at `stride`: the centred signals' windows
    copied out of strided views, 1,024 at a time, through the folded first
    layer and `kernels.batch_forward`."""
    width = network.window
    n = window_count(len(session), width, stride)
    signals = network.mode.signals(session.x, session.y, session.z)
    w, b, centres = network.raw_first_layer()
    views = [sliding_window_view(s - c, width)[::stride] for s, c in zip(signals, centres)]
    outputs = np.empty(n)
    for lo in range(0, n, 1024):
        hi = min(lo + 1024, n)
        outputs[lo:hi] = kernels.batch_forward(
            w, b, network.w2, network.b2, np.concatenate([v[lo:hi] for v in views], axis=1))
    return outputs


def reference_load(data: bytes) -> SensorRecording:
    """The recording of a `t,x,y,z` CSV file's bytes, or the fault that
    `signal.load_recording_csv` names: the first byte that is not UTF-8, else
    a bad header, else the first malformed data line by float(), else too
    few rows or unordered timestamps (SensorRecording's own checks)."""
    try:
        lines = data.decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise MalformedRow(f"byte {exc.start}: not UTF-8 ({exc.reason})") from None
    if lines and lines[0].strip() != CSV_HEADER:
        raise MalformedRow(f"first line must be the header {CSV_HEADER!r}, "
                           f"got {lines[0][:40]!r}")
    rows = []
    for number, line in enumerate(lines[1:], 2):
        if line.strip() == "":
            continue
        fields = line.split(",")
        if len(fields) != 4:
            raise MalformedRow(f"line {number}: expected 4 columns, got {len(fields)}")
        try:
            row = [float(field) for field in fields]
        except ValueError:
            raise MalformedRow(f"line {number}: non-numeric field") from None
        if any(not math.isfinite(v) for v in row):
            raise MalformedRow(f"line {number}: non-finite field")
        if row[0] < 0.0:
            raise MalformedRow(f"line {number}: negative timestamp")
        rows.append(row)
    if len(rows) < 2:
        raise EmptyRecording(f"need at least 2 data rows, got {len(rows)}")
    t, x, y, z = (np.array(column, dtype=np.float64) for column in zip(*rows))
    return SensorRecording(t=t, x=x, y=y, z=z)
