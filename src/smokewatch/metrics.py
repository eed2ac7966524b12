"""Thresholded classification and the three headline rates.

Specificity = TN/(TN+FP), sensitivity = TP/(TP+FN), accuracy =
(TP+TN)/total, with smoking as the positive class throughout. Rates whose
denominator is zero are reported as None rather than forced to 0 or 1.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from .errors import (
    ContainsPositiveClass,
    EmptyInput,
    InvalidThreshold,
    LengthMismatch,
)
from .fileio import atomic_write_text
from .signal import GestureClass


def _check_threshold(threshold: float) -> None:
    if not 0.0 < threshold < 1.0:
        raise InvalidThreshold("threshold must lie strictly between 0 and 1")


def classify(output: float, threshold: float = 0.5) -> bool:
    """True (smoking) iff output >= threshold; equality resolves positive."""
    _check_threshold(threshold)
    return output >= threshold


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
    """Classify raw outputs at the threshold, as `classify` does, and
    assemble the full report."""
    _check_threshold(threshold)
    c = confusion(np.asarray(outputs, dtype=np.float64) >= threshold, truths)
    return MetricsReport(counts=c, threshold=threshold,
                         specificity=specificity(c), sensitivity=sensitivity(c),
                         accuracy=accuracy(c))


def fp_attribution(outputs: Sequence[tuple[float, GestureClass]],
                   threshold: float = 0.5) -> dict[GestureClass, int]:
    """Per-class false-positive counts over non-smoking outputs only.

    Every class present in the input appears in the result, zero or not. An
    output counts as positive as `classify` decides: output >= threshold.
    """
    _check_threshold(threshold)
    counts: dict[GestureClass, int] = {}
    for output, cls in outputs:
        if cls.is_smoking:
            raise ContainsPositiveClass("attribution input must be non-smoking only")
        counts[cls] = counts.get(cls, 0) + (float(output) >= threshold)
    return counts


def save_eval_report(report: MetricsReport,
                     attribution: dict[GestureClass, int],
                     path: Union[str, Path]) -> None:
    doc = report.to_json_dict()
    doc["fp_attribution"] = {cls.value: n for cls, n in sorted(
        attribution.items(), key=lambda kv: kv[0].value)}
    atomic_write_text(path, json.dumps(doc, indent=1) + "\n")
