"""Metric oracles: brute-force recounts frozen independently of the
implementation, plus the documented edge rules (equality at threshold,
Undefined on empty denominators)."""

import numpy as np
import pytest

from smokewatch.errors import EmptyInput, InvalidThreshold, LengthMismatch
from smokewatch.metrics import (
    ConfusionCounts,
    accuracy,
    confusion,
    decide,
    evaluate,
    fp_attribution,
    sensitivity,
    specificity,
)
from smokewatch.signal import GestureClass


def brute_counts(preds, truths):
    """Independent recount, one pair at a time."""
    tp = tn = fp = fn = 0
    for p, t in zip(preds, truths):
        if p and t:
            tp += 1
        elif not p and not t:
            tn += 1
        elif p and not t:
            fp += 1
        else:
            fn += 1
    return tp, tn, fp, fn


def test_decide_basic():
    assert decide([0.9, 0.3], 0.5).tolist() == [True, False]
    assert decide(np.array([0.79, 0.81]), 0.8).tolist() == [False, True]
    assert decide([0.3], 0.5).dtype == bool


def test_decide_equality_is_positive():
    assert decide([0.5], 0.5).tolist() == [True]
    assert decide([0.8], 0.8).tolist() == [True]


def test_decide_monotone_in_output():
    decisions = decide(np.linspace(0.01, 0.99, 53), 0.44).tolist()
    # once True, stays True
    assert decisions == sorted(decisions)


@pytest.mark.parametrize("bad", [0.0, 1.0, -0.2, 1.7])
def test_decide_rejects_degenerate_threshold(bad):
    with pytest.raises(InvalidThreshold):
        decide([0.5], bad)


def test_confusion_perfect_table():
    preds = [False] * 30 + [True] * 10
    truths = [False] * 30 + [True] * 10
    c = confusion(preds, truths)
    assert (c.tp, c.tn, c.fp, c.fn) == (10, 30, 0, 0)


def test_confusion_inverted():
    truths = [True, True, False, False]
    preds = [not t for t in truths]
    c = confusion(preds, truths)
    assert c.tp == 0 and c.tn == 0 and c.fp == 2 and c.fn == 2


def test_confusion_validates_lengths():
    with pytest.raises(LengthMismatch):
        confusion([True], [True, False])
    with pytest.raises(EmptyInput):
        confusion([], [])


def test_metric_formulas():
    assert specificity(ConfusionCounts(0, 30, 0, 0)) == 1.0
    assert specificity(ConfusionCounts(5, 28, 2, 1)) == 28 / 30
    assert specificity(ConfusionCounts(5, 0, 0, 1)) is None
    assert sensitivity(ConfusionCounts(0, 3, 1, 10)) == 0.0
    assert sensitivity(ConfusionCounts(10, 3, 1, 0)) == 1.0
    assert sensitivity(ConfusionCounts(0, 3, 1, 0)) is None
    assert accuracy(ConfusionCounts(9, 28, 2, 1)) == 0.925
    with pytest.raises(EmptyInput):
        accuracy(ConfusionCounts(0, 0, 0, 0))


@pytest.mark.parametrize("bad", [0.0, 1.0, -0.2, 1.7])
def test_evaluate_rejects_degenerate_threshold(bad):
    with pytest.raises(InvalidThreshold):
        evaluate([0.5, 0.2], [True, False], bad)


def test_evaluate_decides_as_decide_does():
    # outputs on the threshold and one ulp to either side, as a list and
    # as an array
    thr = 0.44
    outs = [thr, float(np.nextafter(thr, 0.0)), float(np.nextafter(thr, 1.0)), 0.1, 0.9]
    truths = [True, True, False, False, True]
    want = brute_counts(decide(outs, thr).tolist(), truths)
    assert want == (2, 1, 1, 1)
    for given in (outs, np.array(outs)):
        c = evaluate(given, truths, thr).counts
        assert (c.tp, c.tn, c.fp, c.fn) == want


def test_counts_must_be_non_negative():
    with pytest.raises(ValueError):
        ConfusionCounts(-1, 0, 0, 0)


def test_brute_force_recount_agreement(rng):
    for _ in range(200):
        n = int(rng.integers(1, 120))
        outs = rng.uniform(0, 1, n)
        truths = rng.uniform(0, 1, n) < 0.3
        thr = float(rng.uniform(0.05, 0.95))
        report = evaluate(outs, truths, thr)
        preds = [o >= thr for o in outs]
        tp, tn, fp, fn = brute_counts(preds, truths)
        assert (report.counts.tp, report.counts.tn,
                report.counts.fp, report.counts.fn) == (tp, tn, fp, fn)
        assert report.accuracy == (tp + tn) / n
        assert report.specificity == (tn / (tn + fp) if tn + fp else None)
        assert report.sensitivity == (tp / (tp + fn) if tp + fn else None)


def test_accuracy_weighted_identity(rng):
    # accuracy == (sens*P + spec*N) / (P+N) whenever both are defined
    for _ in range(300):
        c = ConfusionCounts(*(int(v) for v in rng.integers(0, 40, 4)))
        pos = c.tp + c.fn
        neg = c.tn + c.fp
        if pos == 0 or neg == 0:
            continue
        lhs = accuracy(c)
        rhs = (sensitivity(c) * pos + specificity(c) * neg) / (pos + neg)
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_metrics_lie_in_unit_interval(rng):
    for _ in range(200):
        c = ConfusionCounts(*(int(v) for v in rng.integers(0, 25, 4)))
        if c.total == 0:
            continue
        for value in (specificity(c), sensitivity(c), accuracy(c)):
            if value is not None:
                assert 0.0 <= value <= 1.0


def test_fp_attribution_counts():
    att = fp_attribution(
        [0.9, 0.2, 0.7, 0.1],
        [GestureClass.COUGH, GestureClass.COUGH, GestureClass.DRINKING, GestureClass.YAWN],
        0.5)
    assert att[GestureClass.COUGH] == 1
    assert att[GestureClass.DRINKING] == 1
    assert att[GestureClass.YAWN] == 0


def test_fp_attribution_single_cough():
    assert fp_attribution([0.9], [GestureClass.COUGH], 0.5) == {
        GestureClass.COUGH: 1}


def test_fp_attribution_all_below_threshold():
    att = fp_attribution([0.1, 0.2], [GestureClass.YAWN, GestureClass.COUGH], 0.5)
    assert all(v == 0 for v in att.values())


def test_fp_attribution_skips_smoking():
    assert fp_attribution([0.9, 0.9], [GestureClass.SMOKING, GestureClass.COUGH],
                          0.5) == {GestureClass.COUGH: 1}
    assert fp_attribution([0.9], [GestureClass.SMOKING], 0.5) == {}


def test_fp_attribution_checks_its_inputs():
    with pytest.raises(LengthMismatch):
        fp_attribution([0.9, 0.1], [GestureClass.COUGH], 0.5)
    with pytest.raises(InvalidThreshold):
        fp_attribution([0.9], [GestureClass.COUGH], 1.0)


def test_fp_attribution_reconciles_with_confusion(rng):
    # smoking items mixed in: they are skipped, and every other firing
    # output is one of the confusion table's false positives
    classes = list(GestureClass)
    for _ in range(50):
        n = int(rng.integers(1, 60))
        outs = rng.uniform(0, 1, n)
        labels = [classes[i] for i in rng.integers(0, len(classes), n)]
        thr = float(rng.uniform(0.1, 0.9))
        att = fp_attribution(outs, labels, thr)
        c = confusion([o >= thr for o in outs], [cls.is_smoking for cls in labels])
        assert sum(att.values()) == c.fp
        assert GestureClass.SMOKING not in att
        assert set(att) == {cls for cls in labels if not cls.is_smoking}


def test_report_json_uses_null_for_undefined():
    report = evaluate([0.9, 0.8], [True, True], 0.5)
    doc = report.to_json_dict()
    assert doc["specificity"] is None
    assert doc["sensitivity"] == 1.0
    assert doc["counts"] == {"tp": 2, "tn": 0, "fp": 0, "fn": 0}
