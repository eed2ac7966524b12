"""Levenberg-Marquardt training with validation-based early stopping.

Full-batch damped least squares on the network output: each epoch solves
(J'J + mu*I) delta = J'e with e = target - output, accepting a step only when
it lowers the training sum of squared errors, and logging each accepted
epoch as one record of the report's histories. Every solve goes through
`damped_step`: one LU solve (`np.linalg.solve`) with no refinement pass, on
the system `_epoch_system` builds. With fewer training rows than weights
(every Table-1 fit) the epoch works on the dual system in Gram form
(`kernels.batch_gram`) and never builds J. `solve_damped`, the same step from
an explicit J, is the Jacobian-form oracle. The 70/15/15 partition and the
best-of-N restart selection live here too.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from enum import Enum
from functools import partial
from pathlib import Path
from typing import Callable, Optional, Sequence, Union

import numpy as np

from . import kernels, metrics, mlp
from .errors import (
    EmptyBatch,
    EmptyDataset,
    InvalidSize,
    LengthMismatch,
    NumericalFailure,
)
from .fileio import write_json
from .signal import (
    ChannelMode,
    FEATURE_POINTS,
    GestureClass,
    SensorRecording,
    extract_features,
    resample_uniform,
)

# The paper's one training recipe. LM damping starts at MU0, grows by MU_INC
# after each rejected candidate and shrinks by MU_DEC after each accepted one;
# an epoch that needs mu above MU_MAX ends the run. Training also stops at
# SSE_GOAL, or after MAX_VAL_FAILURES epochs without a new best validation
# SSE. train() reads these when it is called.
MU0 = 1e-3
MU_INC = 10.0
MU_DEC = 10.0
MU_MAX = 1e10
MU_FLOOR = 1e-20
SSE_GOAL = 1e-6
MAX_VAL_FAILURES = 6
DEFAULT_MAX_EPOCHS = 200
# The train and validation shares of `partition`; the test split takes the
# remaining 15%.
TRAIN_SHARE = 0.70
VAL_SHARE = 0.15


@dataclass(frozen=True, eq=False)
class LabeledDataset:
    """Feature vectors with their gesture classes; all feature vectors share
    one length (enforced by the matrix shape). `smoking` is True exactly for
    smoking items, and `targets`, the training targets, is it as 1.0/0.0."""

    mode: ChannelMode
    features: np.ndarray
    classes: tuple[GestureClass, ...]
    smoking: np.ndarray = field(init=False)
    targets: np.ndarray = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "features", np.asarray(self.features, dtype=np.float64))
        object.__setattr__(self, "classes", tuple(self.classes))
        if self.features.ndim != 2:
            raise LengthMismatch("features must be a 2-d matrix")
        if len(self.classes) != self.features.shape[0]:
            raise LengthMismatch("features and classes must align")
        smoking = np.array([cls.is_smoking for cls in self.classes], dtype=bool)
        object.__setattr__(self, "smoking", smoking)
        object.__setattr__(self, "targets", smoking.astype(np.float64))

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def input_size(self) -> int:
        return self.features.shape[1]

    def subset(self, indices: np.ndarray) -> "LabeledDataset":
        indices = np.asarray(indices, dtype=np.intp)
        return LabeledDataset(mode=self.mode, features=self.features[indices],
                              classes=tuple(self.classes[i] for i in indices))


def build_datasets(recordings: Sequence[SensorRecording], modes: Sequence[ChannelMode],
                   n: int = FEATURE_POINTS) -> list[LabeledDataset]:
    """One dataset per mode, in the order given: each recording is resampled
    to n points once, and every mode's features are extracted from that."""
    if len(recordings) == 0:
        raise EmptyDataset("no recordings to build a dataset from")
    series = [resample_uniform(rec, n) for rec in recordings]
    classes = tuple(rec.label for rec in recordings)
    return [LabeledDataset(mode=mode, features=np.stack([extract_features(s, mode)
                                                         for s in series]),
                           classes=classes)
            for mode in modes]


def build_dataset(recordings: Sequence[SensorRecording], mode: ChannelMode,
                  n: int = FEATURE_POINTS) -> LabeledDataset:
    """Resample each recording to n points and extract mode features."""
    return build_datasets(recordings, (mode,), n)[0]


class StopReason(Enum):
    CONVERGED = "converged"
    VALIDATION_STOP = "validation_stop"
    EPOCH_LIMIT = "epoch_limit"
    MU_OVERFLOW = "mu_overflow"


@dataclass(frozen=True)
class TrainReport:
    final_train_sse: float
    final_val_sse: float
    stop_reason: StopReason
    train_sse_history: tuple[float, ...]
    val_sse_history: tuple[float, ...]
    # per accepted epoch: the mu of the accepted step, and how many candidates
    # (at mu, mu*MU_INC, ...) were rejected before it
    mu_history: tuple[float, ...]
    rejected_steps: tuple[int, ...]

    @property
    def epochs_run(self) -> int:
        return len(self.train_sse_history)

    def to_json_dict(self) -> dict:
        return {"epochs_run": self.epochs_run, **asdict(self),
                "stop_reason": self.stop_reason.value}


def _half_up(x: float) -> int:
    return int(np.floor(x + 0.5))


def partition(dataset: LabeledDataset,
              seed: int) -> tuple[LabeledDataset, LabeledDataset, LabeledDataset]:
    """Seeded shuffle, then contiguous 70/15/15 cuts at round(N*TRAIN_SHARE)
    and round(N*(TRAIN_SHARE + VAL_SHARE)).

    Cuts round half-up so sizes are reproducible for any N; the three parts
    are disjoint and cover the input.
    """
    n = len(dataset)
    if n == 0:
        raise EmptyDataset("cannot partition an empty dataset")
    perm = np.random.default_rng(seed).permutation(n)
    c1 = _half_up(n * TRAIN_SHARE)
    c2 = _half_up(n * (TRAIN_SHARE + VAL_SHARE))
    return (dataset.subset(perm[:c1]),
            dataset.subset(perm[c1:c2]),
            dataset.subset(perm[c2:]))


def solve_damped(jac: np.ndarray, err: np.ndarray, mu: float) -> np.ndarray:
    """Solve (J'J + mu*I) delta = J'e with `damped_step`, checking J and e.

    When there are fewer samples than weights the equivalent dual system
    (JJ' + mu*I) alpha = e, delta = J'alpha is solved instead; it is the same
    delta at a fraction of the cost.
    """
    if mu <= 0:
        raise ValueError("mu must be positive")
    jac = np.asarray(jac, dtype=np.float64)
    err = np.asarray(err, dtype=np.float64)
    if jac.ndim != 2 or err.shape != (jac.shape[0],):
        raise LengthMismatch("jacobian rows must match error length")
    if jac.shape[0] == 0:
        raise EmptyBatch("cannot solve with zero samples")
    if not (np.all(np.isfinite(jac)) and np.all(np.isfinite(err))):
        raise NumericalFailure("non-finite jacobian or error")
    if _dual(*jac.shape):
        return damped_step(jac @ jac.T, err, mu, lambda alpha: jac.T @ alpha)
    return damped_step(jac.T @ jac, jac.T @ err, mu)


def _dual(rows: int, n_weights: int) -> bool:
    """Whether the m x m dual system is the smaller one (fewer rows than weights)."""
    return n_weights > rows


def damped_step(a: np.ndarray, rhs: np.ndarray, mu: float,
                back: Optional[Callable[[np.ndarray], np.ndarray]] = None) -> np.ndarray:
    """The solution x of (a + mu*I) x = rhs, or back(x) when back is given.

    a is symmetric positive semi-definite (J'J, or JJ' with back mapping
    alpha to J'alpha), so an epoch builds it once for all its mu retries.
    One LU solve (`np.linalg.solve`), with no refinement pass. mu is added to
    a's diagonal in place, and the saved diagonal is written back on return,
    so a is left unchanged without a copy of it. Raises NumericalFailure when
    the system is singular or the step is not finite.
    """
    diag = np.diag_indices_from(a)
    saved = a[diag]
    a[diag] += mu
    try:
        x = np.linalg.solve(a, rhs)
    except np.linalg.LinAlgError:
        raise NumericalFailure("singular damped system") from None
    finally:
        a[diag] = saved
    delta = x if back is None else back(x)
    if not np.all(np.isfinite(delta)):
        raise NumericalFailure("non-finite step")
    return delta


def _sse(network: mlp.Network, xn: np.ndarray, targets: np.ndarray) -> float:
    """Sum of squared errors on inputs already scaled by `mlp.scaled_inputs`."""
    e = targets - kernels.batch_forward(network.w1, network.b1, network.w2,
                                        network.b2, xn)
    return float(e @ e)


def _epoch_system(net: mlp.Network, xn: np.ndarray, targets: np.ndarray, k1):
    """An epoch's damped system (a, rhs, back) for `damped_step`, and e = t - y.

    With k1 (the dual branch) a is the Gram matrix JJ' of `kernels.batch_gram`,
    rhs is e and back maps alpha to J'alpha; otherwise a is J'J and rhs J'e,
    and J is dropped on return.
    """
    if k1 is not None:
        gram, y, parts = kernels.batch_gram(net.w1, net.b1, net.w2, net.b2, xn, k1)
        err = targets - y
        return gram, err, partial(kernels.gram_step_map, xn, parts), err
    jac, y = kernels.batch_jacobian(net.w1, net.b1, net.w2, net.b2, xn)
    err = targets - y
    return jac.T @ jac, jac.T @ err, None, err


def train(train_set: LabeledDataset, val_set: LabeledDataset, seed: int = 0,
          hidden_size: int = mlp.DEFAULT_HIDDEN,
          max_epochs: int = DEFAULT_MAX_EPOCHS) -> tuple[mlp.Network, TrainReport]:
    """Train one network; returns it with the report of the run.

    Input scaling is captured from the training split, and both splits are
    scaled once. Each epoch builds its damped system once, the Gram matrix JJ'
    (fewer rows than weights) or J'J, then retries `damped_step` with growing
    mu until the training SSE drops; each candidate equals `solve_damped`'s on
    the epoch's J at that mu, up to rounding on the dual branch. The retry
    loop only searches: when mu passes MU_MAX its `else` ends the run
    (MU_OVERFLOW), and an accepted epoch appends one record to the epoch log,
    whose columns are the report's histories. Also stops on the SSE goal, on
    MAX_VAL_FAILURES epochs without a new best validation SSE (restoring the
    best-validation network), or on the epoch limit.
    """
    if max_epochs < 1:
        raise InvalidSize("max_epochs must be >= 1")
    if len(train_set) == 0 or len(val_set) == 0:
        raise EmptyDataset("train and validation sets must be non-empty")
    if train_set.input_size != val_set.input_size:
        raise LengthMismatch("train and validation feature lengths differ")

    net = replace(mlp.init_network(train_set.input_size, hidden_size,
                                   np.random.default_rng(seed), mode=train_set.mode),
                  norm=mlp.NormParams.from_features(train_set.features))
    xn = mlp.scaled_inputs(net, train_set.features)
    xn_val = mlp.scaled_inputs(net, val_set.features)
    targets = train_set.targets
    k1 = xn @ xn.T + 1.0 if _dual(len(train_set), net.n_weights) else None

    mu = MU0
    best_val = np.inf
    best_net = net
    val_failures = 0
    # one (train SSE, validation SSE, mu, rejected) record per accepted epoch
    log: list[tuple[float, float, float, int]] = []
    stop = StopReason.EPOCH_LIMIT

    for _ in range(max_epochs):
        a, rhs, back, err = _epoch_system(net, xn, targets, k1)
        current_sse = float(err @ err)
        if not np.isfinite(current_sse):
            raise NumericalFailure("non-finite training error")

        w = net.to_weight_vector()
        rejected = 0
        while mu <= MU_MAX:
            cand = net.with_weights(w + damped_step(a, rhs, mu, back))
            cand_sse = _sse(cand, xn, targets)
            if np.isfinite(cand_sse) and cand_sse < current_sse:
                break
            rejected += 1
            mu *= MU_INC
        else:
            stop = StopReason.MU_OVERFLOW
            break
        del a, rhs, back  # freed before the next epoch builds its own

        net = cand
        val_sse = _sse(net, xn_val, val_set.targets)
        log.append((cand_sse, val_sse, mu, rejected))
        mu = max(mu / MU_DEC, MU_FLOOR)

        if val_sse < best_val:
            best_val = val_sse
            best_net = net
            val_failures = 0
        else:
            val_failures += 1

        if cand_sse <= SSE_GOAL:
            stop = StopReason.CONVERGED
            break
        if val_failures >= MAX_VAL_FAILURES:
            stop = StopReason.VALIDATION_STOP
            net = best_net
            break

    # the log's columns are the report's four histories
    histories = tuple(zip(*log)) if log else ((), (), (), ())
    return net, TrainReport(_sse(net, xn, targets), _sse(net, xn_val, val_set.targets),
                            stop, *histories)


@dataclass(frozen=True)
class RestartSummary:
    index: int
    seed: int
    train_accuracy: float
    epochs_run: int
    final_train_sse: float
    final_val_sse: float
    stop_reason: StopReason

    def to_json_dict(self) -> dict:
        return {**asdict(self), "stop_reason": self.stop_reason.value}


def select_best_restart(accuracies: Sequence[float]) -> int:
    """Index of the highest accuracy; ties go to the lowest index."""
    return int(np.argmax(accuracies))


def train_best_of(dataset: LabeledDataset, restarts: int = 10,
                  master_seed: int = 0, hidden_size: int = mlp.DEFAULT_HIDDEN,
                  max_epochs: int = DEFAULT_MAX_EPOCHS,
                  ) -> tuple[mlp.Network, TrainReport, list[RestartSummary], int]:
    """Independent restarts on one fixed partition; keeps the restart with
    the highest training-set accuracy at the default threshold and returns its
    network, its report, the summary of every restart run and its index.

    Restart r initializes from seed master_seed XOR r, so the outcome does
    not depend on the order restarts execute in. The loop stops after the
    first restart that classifies every training item: a tie goes to the
    lowest index, so no later restart could be selected. `restarts` is
    therefore an upper bound on the restarts run.
    """
    if restarts < 1:
        raise InvalidSize("restarts must be >= 1")
    train_split, val_split, _ = partition(dataset, master_seed)
    fits = []
    summaries = []
    for r in range(restarts):
        seed = master_seed ^ r
        net, report = train(train_split, val_split, seed, hidden_size, max_epochs)
        acc = metrics.evaluate(mlp.forward_batch(net, train_split.features),
                               train_split.smoking,
                               metrics.DEFAULT_THRESHOLD).accuracy
        fits.append((net, report))
        summaries.append(RestartSummary(
            index=r, seed=seed, train_accuracy=acc,
            epochs_run=report.epochs_run,
            final_train_sse=report.final_train_sse,
            final_val_sse=report.final_val_sse,
            stop_reason=report.stop_reason,
        ))
        if acc == 1.0:
            break
    best = select_best_restart([s.train_accuracy for s in summaries])
    return *fits[best], summaries, best


def save_report(report: TrainReport, summaries: Sequence[RestartSummary],
                path: Union[str, Path], selected_index: int) -> None:
    doc = report.to_json_dict()
    doc["restarts"] = [s.to_json_dict() for s in summaries]
    doc["restart_stop"] = ("perfect_train_accuracy" if summaries[-1].train_accuracy == 1.0
                           else "restart_limit")
    doc["selected_restart"] = selected_index
    write_json(path, doc)
