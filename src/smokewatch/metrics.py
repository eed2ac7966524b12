"""The smoking decision and the three headline rates.

Smoking is the positive class throughout, and `decide` is the one place an
output meets the threshold: an output at or above it counts as smoking.
Specificity = TN/(TN+FP), sensitivity = TP/(TP+FN), accuracy =
(TP+TN)/total. Rates whose denominator is zero are reported as None rather
than forced to 0 or 1.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from .errors import EmptyInput, InvalidThreshold, LengthMismatch
from .fileio import write_json
from .signal import GestureClass


def check_threshold(threshold: float, name: str = "threshold") -> None:
    """InvalidThreshold, naming the value as `name`, unless 0 < threshold < 1."""
    if not 0.0 < threshold < 1.0:
        raise InvalidThreshold(f"{name} must lie strictly between 0 and 1")


def decide(outputs: Sequence[float], threshold: float) -> np.ndarray:
    """Per output, True (smoking) iff output >= threshold; equality resolves
    positive. InvalidThreshold for a threshold outside (0, 1)."""
    check_threshold(threshold)
    return np.asarray(outputs, dtype=np.float64) >= threshold


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int = 0
    tn: int = 0
    fp: int = 0
    fn: int = 0

    def __post_init__(self):
        if min(self.tp, self.tn, self.fp, self.fn) < 0:
            raise ValueError("counts must be non-negative")

    @property
    def total(self) -> int:
        return self.tp + self.tn + self.fp + self.fn


def confusion(predictions: Sequence[bool], truths: Sequence[bool]) -> ConfusionCounts:
    """Tally predictions against truths (True means smoking)."""
    preds = np.asarray(predictions, dtype=bool)
    actual = np.asarray(truths, dtype=bool)
    if preds.shape != actual.shape or preds.ndim != 1:
        raise LengthMismatch("predictions and truths must be 1-d and equal length")
    if preds.shape[0] == 0:
        raise EmptyInput("need at least one prediction")
    return ConfusionCounts(
        tp=int(np.sum(preds & actual)),
        tn=int(np.sum(~preds & ~actual)),
        fp=int(np.sum(preds & ~actual)),
        fn=int(np.sum(~preds & actual)),
    )


def specificity(c: ConfusionCounts) -> Optional[float]:
    denom = c.tn + c.fp
    return c.tn / denom if denom else None


def sensitivity(c: ConfusionCounts) -> Optional[float]:
    denom = c.tp + c.fn
    return c.tp / denom if denom else None


def accuracy(c: ConfusionCounts) -> float:
    if c.total == 0:
        raise EmptyInput("accuracy needs at least one prediction")
    return (c.tp + c.tn) / c.total


@dataclass(frozen=True)
class MetricsReport:
    counts: ConfusionCounts
    threshold: float
    specificity: Optional[float]
    sensitivity: Optional[float]
    accuracy: float

    def to_json_dict(self) -> dict:
        return asdict(self)


def evaluate(outputs: Sequence[float], truths: Sequence[bool],
             threshold: float = 0.5) -> MetricsReport:
    """Decide raw outputs at the threshold and assemble the full report."""
    c = confusion(decide(outputs, threshold), truths)
    return MetricsReport(counts=c, threshold=threshold,
                         specificity=specificity(c), sensitivity=sensitivity(c),
                         accuracy=accuracy(c))


def fp_attribution(outputs: Sequence[float], classes: Sequence[GestureClass],
                   threshold: float = 0.5) -> dict[GestureClass, int]:
    """Per-class false-positive counts: outputs that `decide` calls smoking,
    over the non-smoking items only (the smoking ones are skipped).

    Every non-smoking class present in the input appears in the result, zero
    or not.
    """
    fired = decide(outputs, threshold)
    if fired.shape != (len(classes),):
        raise LengthMismatch("outputs and classes must be 1-d and equal length")
    counts: dict[GestureClass, int] = {}
    for hit, cls in zip(fired.tolist(), classes):
        if not cls.is_smoking:
            counts[cls] = counts.get(cls, 0) + hit
    return counts


def save_eval_report(report: MetricsReport,
                     attribution: dict[GestureClass, int],
                     path: Union[str, Path]) -> None:
    doc = report.to_json_dict()
    doc["fp_attribution"] = {cls.value: n for cls, n in sorted(
        attribution.items(), key=lambda kv: kv[0].value)}
    write_json(path, doc)
