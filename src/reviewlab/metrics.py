"""Evaluation mathematics for classifiers.

Confusion matrices (rows = true class, columns = predicted class),
reports of per-class precision/recall/F1 with support-weighted
averages, ROC curves with trapezoidal AUC, and a majority-class
baseline. A report is the plain dict that `metrics.json` holds. Zero
denominators never produce NaN: the affected value is reported as 0.0
with a per-class ``degenerate`` flag so reports stay machine-readable.
"""

from __future__ import annotations

import math

import numpy as np

from .nn import PROB_FLOOR

__all__ = ["build_report", "confusion_matrix", "majority_baseline", "roc_auc"]


def confusion_matrix(y_true, y_pred, n_classes):
    """Count (true, predicted) pairs into an n_classes x n_classes grid of ints.

    The labels are (N,) int arrays or any array-like.
    """
    t, p = np.asarray(y_true), np.asarray(y_pred)
    counts = np.bincount(t * n_classes + p, minlength=n_classes * n_classes)
    return tuple(map(tuple, counts.reshape(n_classes, n_classes).tolist()))


def build_report(confusion, class_names, mean_loss):
    """The report dict of a confusion matrix and a mean loss.

    precision_c = M[c,c] / column-sum_c, recall_c = M[c,c] / row-sum_c,
    F1 = 2PR / (P + R); ``degenerate`` is True when any of these
    denominators was zero and the value was forced to 0.0. The weighted
    triple weights each class by its support (row sum).
    """
    counts = np.asarray(confusion)
    total = int(counts.sum())
    tp, predicted, support = np.diag(counts), counts.sum(axis=0), counts.sum(axis=1)
    zeros = np.zeros(len(counts))
    precision = np.divide(tp, predicted, out=zeros.copy(), where=predicted > 0)
    recall = np.divide(tp, support, out=zeros.copy(), where=support > 0)
    both = precision + recall
    f1 = np.divide(2.0 * precision * recall, both, out=zeros, where=both > 0)
    degenerate = (predicted == 0) | (support == 0) | (both == 0)
    classes = [
        {"name": name, "precision": p, "recall": r, "f1": f, "support": n, "degenerate": d}
        for name, p, r, f, n, d in zip(class_names, precision.tolist(), recall.tolist(),
                                       f1.tolist(), support.tolist(), degenerate.tolist())
    ]
    return {
        "accuracy": int(tp.sum()) / total,
        "mean_loss": float(mean_loss),
        "total": total,
        "classes": classes,
        "weighted": {
            field: sum(c[field] * c["support"] for c in classes) / total
            for field in ("precision", "recall", "f1")
        },
        "confusion": counts.tolist(),
    }


def roc_auc(labels, scores):
    """Threshold-sweep ROC curve with trapezoidal AUC: (points, auc).

    ``labels`` are 0/1 ints, ``scores`` the positive-class probabilities,
    each an (N,) array or any array-like.  Equal scores are grouped into a
    single threshold step, which makes the trapezoidal area equal the
    pairwise-ordering statistic with ties counted one half.  The points
    are ordered (false-positive-rate, true-positive-rate) pairs.  Labels
    of one class (or none) define no curve: that gives ``((), None)``.
    """
    labels, scores = np.asarray(labels), np.asarray(scores, dtype=np.float64)
    n_pos = int(np.count_nonzero(labels))
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        return (), None
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
    return tuple(zip(x.tolist(), y.tolist())), float(auc)


def majority_baseline(train_labels, eval_labels, class_names):
    """Score the constant classifier that predicts the training modal class.

    Ties on the mode break toward the smallest class index. The baseline's
    mean loss is the cross-entropy of the training-split class frequencies
    (floored to avoid log of zero) against the evaluation labels.  The
    labels are (N,) int arrays or any array-like; class_names names the
    classes in label-index order.
    """
    n_classes = len(class_names)
    train, evl = np.asarray(train_labels), np.asarray(eval_labels)
    train_counts = np.bincount(train, minlength=n_classes)
    mode = int(np.argmax(train_counts))  # the first of tied counts
    confusion = confusion_matrix(evl, np.full(len(evl), mode), n_classes)
    n_train = len(train)
    neg_log = np.array([-math.log(max(c / n_train, PROB_FLOOR)) for c in train_counts.tolist()])
    loss = np.cumsum(np.r_[0.0, neg_log[evl]])[-1]  # in label order, like the AUC sum
    return build_report(confusion, class_names, loss / len(evl))
