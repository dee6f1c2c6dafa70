"""Tests for confusion-matrix metrics, ROC curves, and baselines."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reviewlab.errors import InputError
from reviewlab.metrics import (
    build_report,
    confusion_matrix,
    majority_baseline,
    roc_auc,
)
from reviewlab.rng import SeededRng


def precision_recall_f1(matrix):
    """(per-class dicts, weighted (P, R, F1)) of the report on a confusion matrix."""
    report = build_report(matrix, [f"class_{c}" for c in range(len(matrix))], 0.0)
    weighted = report["weighted"]
    return report["classes"], (weighted["precision"], weighted["recall"], weighted["f1"])


def prf_oracle(matrix):
    """Brute-force per-class TP/FP/FN counting over expanded label pairs."""
    n = len(matrix)
    pairs = []
    for t in range(n):
        for p in range(n):
            pairs.extend([(t, p)] * matrix[t][p])
    out = []
    for c in range(n):
        tp = sum(1 for t, p in pairs if t == c and p == c)
        fp = sum(1 for t, p in pairs if t != c and p == c)
        fn = sum(1 for t, p in pairs if t == c and p != c)
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        out.append((precision, recall, f1, tp + fn))
    return out


def auc_oracle(labels, scores):
    """Pairwise ordering statistic: ties between classes count one half."""
    pos = [s for lab, s in zip(labels, scores) if lab == 1]
    neg = [s for lab, s in zip(labels, scores) if lab == 0]
    total = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (len(pos) * len(neg))


def roc_loop_oracle(labels, scores):
    """Scalar threshold sweep: (points, trapezoid AUC summed left to right)."""
    n_pos = sum(1 for label in labels if label == 1)
    n_neg = len(labels) - n_pos
    ranked = sorted(zip(scores, labels), key=lambda pair: -pair[0])
    points = [(0.0, 0.0)]
    tp = fp = 0
    for i, (score, label) in enumerate(ranked):
        tp += label == 1
        fp += label != 1
        if i + 1 == len(ranked) or ranked[i + 1][0] != score:
            points.append((fp / n_neg, tp / n_pos))
    auc = 0.0
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        auc += (x1 - x0) * (y0 + y1) / 2.0
    return tuple(points), auc


class TestConfusionMatrix:
    def test_hand_counted(self):
        y_true, y_pred = [0, 1, 1, 0, 1], [0, 1, 0, 0, 1]
        for t, p in ((y_true, y_pred), (np.array(y_true), np.array(y_pred))):
            m = confusion_matrix(t, p, 2)
            assert m == ((2, 0), (1, 2))
            # Python ints, so metrics.json and confusion.csv print plain numbers.
            assert all(type(c) is int for row in m for c in row)

    def test_absent_class_keeps_zero_row(self):
        m = confusion_matrix([0, 0], [0, 0], 3)
        assert m == ((2, 0, 0), (0, 0, 0), (0, 0, 0))

    def test_empty_split(self):
        with pytest.raises(InputError, match="empty"):
            confusion_matrix([], [], 2)


class TestPrecisionRecallF1:
    def test_perfect_diagonal(self):
        per_class, weighted = precision_recall_f1(((5, 0), (0, 5)))
        for m in per_class:
            assert m["precision"] == m["recall"] == m["f1"] == 1.0
            assert not m["degenerate"]
        assert weighted == (1.0, 1.0, 1.0)

    def test_f1_from_published_rates(self):
        """A class with P=0.92, R=0.94 has F1 0.9299, rounding to 0.93."""
        matrix = ((1000, 376), (276, 4324))
        per_class, _ = precision_recall_f1(matrix)
        m = per_class[1]
        assert m["precision"] == pytest.approx(0.92)
        assert m["recall"] == pytest.approx(0.94)
        assert round(m["f1"], 4) == 0.9299
        assert round(m["f1"], 2) == 0.93

    def test_weighted_average_identity(self):
        matrix = ((8, 2, 0), (1, 5, 1), (0, 3, 10))
        per_class, weighted = precision_recall_f1(matrix)
        total = sum(m["support"] for m in per_class)
        want = sum(m["f1"] * m["support"] for m in per_class) / total
        assert weighted[2] == pytest.approx(want)

    def test_never_predicted_class_flagged(self):
        per_class, _ = precision_recall_f1(((2, 0), (3, 0)))
        assert per_class[1]["precision"] == 0.0
        assert per_class[1]["recall"] == 0.0
        assert per_class[1]["f1"] == 0.0
        assert per_class[1]["degenerate"]
        assert not per_class[0]["degenerate"]

    def test_absent_class_flagged(self):
        per_class, _ = precision_recall_f1(((3, 0), (0, 0)))
        assert per_class[1]["support"] == 0
        assert per_class[1]["degenerate"]

    @given(
        st.integers(2, 5).flatmap(
            lambda n: st.lists(
                st.lists(st.integers(0, 20), min_size=n, max_size=n),
                min_size=n,
                max_size=n,
            )
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_pair_counting_oracle(self, rows):
        """Library metrics equal brute-force TP/FP/FN counting exactly."""
        matrix = tuple(tuple(row) for row in rows)
        if sum(sum(row) for row in matrix) == 0:
            return
        per_class, weighted = precision_recall_f1(matrix)
        for m, (p, r, f1, support) in zip(per_class, prf_oracle(matrix)):
            assert m["precision"] == p
            assert m["recall"] == r
            assert m["f1"] == f1
            assert m["support"] == support
        from_array = precision_recall_f1(np.array(rows))
        assert from_array == (per_class, weighted)
        for m in from_array[0]:
            assert (type(m["precision"]), type(m["f1"]), type(m["support"])) == (float, float, int)


class TestMetricsReport:
    def test_accuracy_is_trace_over_total(self):
        report = build_report(((2, 1), (1, 6)), ("no", "yes"), 0.5)
        assert report["accuracy"] == pytest.approx(8 / 10)
        assert report["total"] == 10

    def test_supports_sum_to_total(self):
        report = build_report(((2, 1), (1, 6)), ("no", "yes"), 0.5)
        assert sum(m["support"] for m in report["classes"]) == report["total"]

    def test_dict_round_trips_fields(self):
        """The report is the metrics.json dict, with plain JSON values."""
        d = build_report(((2, 1), (1, 6)), ("no", "yes"), 0.25)
        assert sorted(d) == ["accuracy", "classes", "confusion", "mean_loss", "total", "weighted"]
        assert d["accuracy"] == 0.8
        assert d["mean_loss"] == 0.25
        assert d["total"] == 10
        assert d["classes"][1]["name"] == "yes"
        assert sorted(d["classes"][1]) == ["degenerate", "f1", "name", "precision", "recall", "support"]
        assert sorted(d["weighted"]) == ["f1", "precision", "recall"]
        assert d["confusion"] == [[2, 1], [1, 6]]
        assert json.loads(json.dumps(d)) == d


class TestRocAuc:
    def test_perfect_separation(self):
        _, auc = roc_auc([0, 0, 1, 1], [0.1, 0.2, 0.8, 0.9])
        assert auc == pytest.approx(1.0)

    def test_tied_scores_grouped(self):
        """One threshold step per unique score; hand-computed area 0.875."""
        points, auc = roc_auc([1, 1, 0, 0], [0.9, 0.5, 0.5, 0.1])
        assert points == ((0.0, 0.0), (0.0, 0.5), (0.5, 1.0), (1.0, 1.0))
        assert auc == pytest.approx(0.875)

    def test_reversal_symmetry(self):
        rng = SeededRng(9)
        labels = [rng.next_u64() & 1 for _ in range(200)]
        labels[0], labels[1] = 0, 1
        scores = rng.fill(200).tolist()
        _, forward = roc_auc(labels, scores)
        _, reverse = roc_auc(labels, [-s for s in scores])
        assert abs(forward + reverse - 1.0) < 1e-12

    def test_null_scores_near_half(self):
        """Labels independent of scores keep AUC near 0.5."""
        rng = SeededRng(123)
        labels = [rng.next_u64() & 1 for _ in range(10_000)]
        scores = rng.fill(10_000).tolist()
        _, auc = roc_auc(labels, scores)
        assert 0.47 <= auc <= 0.53

    def test_single_class_rejected(self):
        with pytest.raises(InputError, match="positive"):
            roc_auc([1, 1, 1], [0.1, 0.5, 0.9])

    @given(
        st.lists(
            st.tuples(
                st.integers(0, 1),
                st.floats(0, 1, allow_nan=False).map(lambda x: round(x, 2)),
            ),
            min_size=2,
            max_size=400,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_pairwise_oracle(self, pairs):
        """Trapezoidal AUC equals the tie-aware pairwise statistic."""
        labels = [lab for lab, _ in pairs]
        if sum(labels) in (0, len(labels)):
            return
        scores = [s for _, s in pairs]
        curve = roc_auc(labels, scores)
        assert curve[1] == pytest.approx(auc_oracle(labels, scores), abs=1e-9)
        assert curve == roc_loop_oracle(labels, scores)
        from_arrays = roc_auc(np.array(labels), np.array(scores))
        assert from_arrays == curve
        # Python floats: repr(np.float64(0.5)) is "np.float64(0.5)", which
        # would corrupt roc.csv.
        for points, auc in (curve, from_arrays):
            assert all(type(v) is float for point in points for v in point)
            assert type(auc) is float


BINARY, THREE = ("no", "yes"), ("neg", "neu", "pos")


class TestMajorityBaseline:
    def test_balanced_toy_split(self):
        report = majority_baseline([0, 1, 0, 1], [0, 1, 0, 1], BINARY)
        assert report["accuracy"] == pytest.approx(0.5)

    def test_binary_support_arithmetic(self):
        """Supports 847 vs 3679 give a modal-class accuracy of 0.8129."""
        eval_labels = [0] * 847 + [1] * 3679
        report = majority_baseline([1, 1, 0], eval_labels, BINARY)
        assert round(report["accuracy"], 4) == 0.8129

    def test_three_class_support_arithmetic(self):
        """Supports 289/22/4215 give a modal-class accuracy of 0.9313."""
        eval_labels = [0] * 289 + [1] * 22 + [2] * 4215
        report = majority_baseline([2, 2, 2, 0], eval_labels, THREE)
        assert round(report["accuracy"], 4) == 0.9313
        # The loss is summed in label order, one rounding per label.
        loss = 0.0
        for label in eval_labels:
            loss -= math.log(max((1, 0, 3)[label] / 4, 1e-12))
        assert report["mean_loss"] == loss / len(eval_labels)

    def test_mode_tie_breaks_low(self):
        report = majority_baseline([0, 1], [0, 0], BINARY)
        assert report["accuracy"] == pytest.approx(1.0)

    def test_custom_class_names(self):
        report = majority_baseline([1], [1], ("neg", "pos"))
        assert [c["name"] for c in report["classes"]] == ["neg", "pos"]

    def test_empty_splits_rejected(self):
        with pytest.raises(InputError, match="training"):
            majority_baseline([], [0], BINARY)
        with pytest.raises(InputError, match="evaluation"):
            majority_baseline([0], [], BINARY)
