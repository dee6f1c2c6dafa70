"""Evaluation mathematics for classifiers.

Confusion matrices (rows = true class, columns = predicted class),
per-class precision/recall/F1 with support-weighted averages, ROC
curves with trapezoidal AUC, and a majority-class baseline. Zero
denominators never produce NaN: the affected value is reported as 0.0
with a per-class ``degenerate`` flag so reports stay machine-readable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .nn import PROB_FLOOR

__all__ = [
    "ClassMetrics",
    "MetricsReport",
    "RocCurve",
    "build_report",
    "confusion_matrix",
    "majority_baseline",
    "precision_recall_f1",
    "report_to_dict",
    "roc_auc",
]


@dataclass(frozen=True)
class ClassMetrics:
    """Precision/recall/F1 and support for one class.

    ``degenerate`` is True when any denominator (predicted count,
    true count, or P+R) was zero and the value was forced to 0.0.
    """

    precision: float
    recall: float
    f1: float
    support: int
    degenerate: bool


def _check_labels(labels, n_classes: int, what: str) -> None:
    bad = labels[(labels < 0) | (labels >= n_classes)]
    if bad.size:
        raise ValueError(f"{what} label {bad[0]} outside [0, {n_classes})")


def confusion_matrix(y_true, y_pred, n_classes):
    """Count (true, predicted) pairs into an n_classes x n_classes grid of ints.

    The labels are (N,) int arrays or any array-like.
    """
    if n_classes < 1:
        raise ValueError(f"n_classes must be >= 1, got {n_classes}")
    t, p = np.asarray(y_true), np.asarray(y_pred)
    if len(t) != len(p):
        raise ValueError(
            f"label length mismatch: {len(t)} true vs {len(p)} predicted"
        )
    if not len(t):
        raise InputError("cannot build a confusion matrix from an empty split")
    _check_labels(t, n_classes, "true")
    _check_labels(p, n_classes, "predicted")
    counts = np.bincount(t * n_classes + p, minlength=n_classes * n_classes)
    return tuple(map(tuple, counts.reshape(n_classes, n_classes).tolist()))


def precision_recall_f1(matrix):
    """Per-class metrics plus support-weighted averages from a confusion matrix.

    precision_c = M[c,c] / column-sum_c, recall_c = M[c,c] / row-sum_c,
    F1 = 2PR / (P + R). Returns (per_class, weighted) where weighted is a
    (precision, recall, f1) triple weighted by row supports.
    """
    counts = np.asarray(matrix)
    total = int(counts.sum())
    if total == 0:
        raise ValueError("confusion matrix has no observations")
    tp, predicted, support = np.diag(counts), counts.sum(axis=0), counts.sum(axis=1)
    zeros = np.zeros(len(counts))
    precision = np.divide(tp, predicted, out=zeros.copy(), where=predicted > 0)
    recall = np.divide(tp, support, out=zeros.copy(), where=support > 0)
    both = precision + recall
    f1 = np.divide(2.0 * precision * recall, both, out=zeros, where=both > 0)
    degenerate = (predicted == 0) | (support == 0) | (both == 0)
    per_class = tuple(
        ClassMetrics(*fields)
        for fields in zip(precision.tolist(), recall.tolist(), f1.tolist(),
                          support.tolist(), degenerate.tolist())
    )
    weighted = tuple(
        sum(getattr(m, field) * m.support for m in per_class) / total
        for field in ("precision", "recall", "f1")
    )
    return per_class, weighted


@dataclass(frozen=True)
class MetricsReport:
    """Full evaluation summary for one classifier on one split."""

    class_names: tuple
    per_class: tuple
    weighted_precision: float
    weighted_recall: float
    weighted_f1: float
    accuracy: float
    mean_loss: float
    confusion: tuple

    @property
    def total(self):
        return sum(sum(row) for row in self.confusion)


def build_report(confusion, class_names, mean_loss):
    """Assemble a MetricsReport from a confusion matrix and a mean loss."""
    n = len(confusion)
    if len(class_names) != n:
        raise ValueError(f"expected {n} class names, got {len(class_names)}")
    per_class, weighted = precision_recall_f1(confusion)
    total = sum(sum(row) for row in confusion)
    trace = sum(confusion[i][i] for i in range(n))
    return MetricsReport(
        class_names=tuple(class_names),
        per_class=per_class,
        weighted_precision=weighted[0],
        weighted_recall=weighted[1],
        weighted_f1=weighted[2],
        accuracy=trace / total,
        mean_loss=float(mean_loss),
        confusion=confusion,
    )


@dataclass(frozen=True)
class RocCurve:
    """Ordered (false-positive-rate, true-positive-rate) points and their AUC."""

    points: tuple
    auc: float


def roc_auc(labels, scores):
    """Threshold-sweep ROC curve with trapezoidal AUC.

    ``labels`` are 0/1 ints, ``scores`` the positive-class probabilities,
    each an (N,) array or any array-like.  Equal scores are grouped into a
    single threshold step, which makes the trapezoidal area equal the
    pairwise-ordering statistic with ties counted one half.
    """
    labels, scores = np.asarray(labels), np.asarray(scores, dtype=np.float64)
    if len(labels) != len(scores):
        raise ValueError(
            f"label length mismatch: {len(labels)} labels vs {len(scores)} scores"
        )
    bad = labels[(labels != 0) & (labels != 1)]
    if bad.size:
        raise ValueError(f"binary labels must be 0 or 1, got {bad[0]}")
    n_pos = int(np.count_nonzero(labels))
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise InputError(
            "ROC needs at least one positive and one negative example, "
            f"got {n_pos} positive and {n_neg} negative"
        )
    if not np.all(np.isfinite(scores)):
        raise ValueError(f"scores must be finite, got {scores[~np.isfinite(scores)][0]}")
    order = np.argsort(-scores, kind="stable")
    ranked = scores[order]
    tp = np.cumsum(labels[order] == 1)
    fp = np.arange(1, len(ranked) + 1) - tp
    last = np.append(ranked[1:] != ranked[:-1], True)  # each score's last row
    x = np.concatenate([[0.0], fp[last] / n_neg])
    y = np.concatenate([[0.0], tp[last] / n_pos])
    # cumsum adds left to right, as a scalar loop does; np.sum adds pairwise,
    # which can change the last bit of the AUC.
    auc = np.cumsum(np.diff(x) * (y[:-1] + y[1:]) / 2.0)[-1]
    return RocCurve(points=tuple(zip(x.tolist(), y.tolist())), auc=float(auc))


def majority_baseline(train_labels, eval_labels, n_classes, class_names=None):
    """Score the constant classifier that predicts the training modal class.

    Ties on the mode break toward the smallest class index. The baseline's
    mean loss is the cross-entropy of the training-split class frequencies
    (floored to avoid log of zero) against the evaluation labels.  The
    labels are (N,) int arrays or any array-like.
    """
    train, evl = np.asarray(train_labels), np.asarray(eval_labels)
    if not train.size:
        raise InputError("majority baseline needs a nonempty training split")
    if not evl.size:
        raise InputError("majority baseline needs a nonempty evaluation split")
    _check_labels(train, n_classes, "training")
    train_counts = np.bincount(train, minlength=n_classes)
    mode = int(np.argmax(train_counts))  # the first of tied counts
    confusion = confusion_matrix(evl, np.full(len(evl), mode), n_classes)
    n_train = len(train)
    neg_log = np.array([-math.log(max(c / n_train, PROB_FLOOR)) for c in train_counts.tolist()])
    loss = np.cumsum(np.r_[0.0, neg_log[evl]])[-1]  # in label order, like the AUC sum
    if class_names is None:
        class_names = tuple(f"class_{c}" for c in range(n_classes))
    return build_report(confusion, class_names, loss / len(evl))


def report_to_dict(report):
    """Plain-dict form of a MetricsReport, ready for JSON dumping."""
    return {
        "accuracy": report.accuracy,
        "mean_loss": report.mean_loss,
        "total": report.total,
        "classes": [
            {
                "name": name,
                "precision": m.precision,
                "recall": m.recall,
                "f1": m.f1,
                "support": m.support,
                "degenerate": m.degenerate,
            }
            for name, m in zip(report.class_names, report.per_class)
        ],
        "weighted": {
            "precision": report.weighted_precision,
            "recall": report.weighted_recall,
            "f1": report.weighted_f1,
        },
        "confusion": [list(row) for row in report.confusion],
    }
