"""Acceptance checks for the whole pipeline, one printed line per criterion.

Criteria 5 and 6 need the full public review dataset, which is not
bundled; point REVIEWLAB_DATASET at the CSV to enable them (and set
REVIEWLAB_FULL_SCALE=1 to run the full training check, extrapolated to
about 21 minutes per task on a 2-vCPU machine).  Criterion 4 trains and
scores through the same helper as criterion 6, so tier-1 runs its code.
"""

import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from reviewlab.analytics import describe, grouped_rating_corr, pearson, unique_counts
from reviewlab.cli import main
from reviewlab.dataset import filter_for_classification, parse_csv, split_60_20_20, write_csv
from reviewlab.metrics import build_report, majority_baseline, roc_auc
from reviewlab.nn import BiLstmClassifier, lstm_sequence_forward, softmax
from reviewlab.rng import SeededRng, init_uniform
from reviewlab.sentiment import BUILTIN_LEXICON
from reviewlab.textprep import build_vocab, random_embeddings
from toy import toy_config, toy_reviews
from reviewlab.training import TrainConfig, evaluate, tokenized_splits, train

from gradcheck import grad_check, packed

# Expected statistics for the full public dataset (criterion 5).
EXPECTED_UNIQUE_COUNTS = {
    "Clothing ID": 1172,
    "Age": 77,
    "Title": 13984,
    "Review Text": 22621,
    "Rating": 5,
    "Recommended IND": 2,
    "Positive Feedback Count": 82,
    "Division Name": 3,
    "Department Name": 6,
    "Class Name": 20,
}
EXPECTED_RATING_MEAN = 4.183092
EXPECTED_RATING_STD = 1.115911
EXPECTED_TEST_SUPPORT = 4526

# Reference per-class rows the metric arithmetic must be consistent with
# (precision, recall, printed F1), plus the class supports.
REFERENCE_BINARY_ROWS = ((0.70, 0.65, 0.68), (0.92, 0.94, 0.93))
REFERENCE_BINARY_SUPPORTS = (847, 3679)
REFERENCE_THREE_CLASS_ROWS = ((0.47, 0.50, 0.49), (0.31, 0.18, 0.23), (0.96, 0.96, 0.96))
REFERENCE_THREE_CLASS_SUPPORTS = (289, 22, 4215)


def _train_and_score(records, config, scored: int):
    """Train as `cli train` does, then evaluate on split `scored` (0 train, 1 validation,
    2 test); the records are tokenized once.  Returns (train's (model, table, history), metrics report)."""
    splits = tokenized_splits(records, config, BUILTIN_LEXICON, (0, 1, 2))[0]
    vocab, matrices = build_vocab([tokens for tokens, _ in splits], config.min_freq,
                                  config.vocab_size, config.seq_len)
    encoded = list(zip(matrices, (labels for _, labels in splits)))
    emb = random_embeddings(len(vocab) + 2, config.embedding_dim, SeededRng(config.seed + 1))
    history = []
    model, table = train(config, *encoded[:2], emb, lambda stats, *_: history.append(stats))
    report, _ = evaluate(model, table, encoded[scored],
                         config.batch_size, config.class_names)
    return (model, table, history), report


def _report(criterion: int, status: str, detail: str, capsys) -> None:
    with capsys.disabled():
        print(f"ACCEPTANCE {criterion}: {status} ({detail})", flush=True)


def _dataset_path():
    env = os.environ.get("REVIEWLAB_DATASET")
    if env and Path(env).exists():
        return Path(env)
    fallback = Path(__file__).resolve().parent.parent / "data" / "reviews.csv"
    if fallback.exists():
        return fallback
    return None


def _triple_loop_matmul(a, b):
    rows, inner, cols = len(a), len(b), len(b[0])
    out = [[0.0] * cols for _ in range(rows)]
    for i in range(rows):
        for k in range(inner):
            for j in range(cols):
                out[i][j] += a[i][k] * b[k][j]
    return out


def _lstm_oracle(W, b, xs):
    """Final hidden state of one example by the gate equations (rows f, i,
    C, o), with the fused pre-activation W.[h; x] + b from the triple loop."""
    H = len(b) // 4
    h, c = [0.0] * H, [0.0] * H
    for x in xs:
        a = [row[0] + bias for row, bias in zip(_triple_loop_matmul(W, [[v] for v in h + x]), b)]
        sig = [1.0 / (1.0 + math.exp(-v)) for v in a]
        f, i, o = sig[:H], sig[H:2 * H], sig[3 * H:]
        g = [math.tanh(v) for v in a[2 * H:3 * H]]
        c = [fv * cv + iv * gv for fv, cv, iv, gv in zip(f, c, i, g)]
        h = [ov * math.tanh(cv) for ov, cv in zip(o, c)]
    return h


def _pair_auc(labels, scores):
    pos = [s for lab, s in zip(labels, scores) if lab == 1]
    neg = [s for lab, s in zip(labels, scores) if lab == 0]
    total = 0.0
    for p in pos:
        for n in neg:
            total += 1.0 if p > n else 0.5 if p == n else 0.0
    return total / (len(pos) * len(neg))


def _two_pass_pearson(xs, ys):
    n = len(xs)
    mx, my = sum(xs) / n, sum(ys) / n
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    sxx = sum((x - mx) ** 2 for x in xs)
    syy = sum((y - my) ** 2 for y in ys)
    return sxy / math.sqrt(sxx * syy)


def _counting_prf(matrix):
    n = len(matrix)
    out = []
    for c in range(n):
        tp = matrix[c][c]
        fp = sum(matrix[r][c] for r in range(n)) - tp
        fn = sum(matrix[c]) - tp
        p = tp / (tp + fp) if tp + fp else 0.0
        r = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * p * r / (p + r) if p + r else 0.0
        out.append((p, r, f1))
    return out


class TestAcceptance:
    def test_1_gradient_fidelity(self, capsys):
        """Analytic BPTT matches central differences on 20 seeded models."""
        start = time.monotonic()
        worst = 0.0
        for seed in range(20):
            rng = SeededRng(seed)
            model = BiLstmClassifier.build(4, 3, 3, rng)
            xs = np.stack([init_uniform(1, 3, rng, 1.0) for _ in range(5)])
            target = rng.randrange(3)
            report = grad_check(model, (xs, target), epsilon=1e-5, tolerance=1e-4)
            worst = max(worst, report.max_rel_err)
            if not report.passed:
                _report(1, "FAIL", f"seed {seed} rel err {report.max_rel_err:.2e}", capsys)
                assert report.passed
        elapsed = time.monotonic() - start
        ok = elapsed < 30.0
        _report(1, "PASS" if ok else "FAIL",
                f"20 instances, worst rel err {worst:.2e}, {elapsed:.1f}s", capsys)
        assert ok

    def test_2_metric_arithmetic(self, capsys):
        """F1 recomputed from rounded P/R stays within 0.01 of each printed row."""
        rows = list(REFERENCE_BINARY_ROWS) + list(REFERENCE_THREE_CLASS_ROWS)
        worst = 0.0
        for p, r, printed_f1 in rows:
            f1 = 2 * p * r / (p + r)
            worst = max(worst, abs(f1 - printed_f1))
        weighted = sum(
            f1 * support
            for (_, _, f1), support in zip(REFERENCE_BINARY_ROWS, REFERENCE_BINARY_SUPPORTS)
        ) / sum(REFERENCE_BINARY_SUPPORTS)
        ok = worst <= 0.01 and abs(weighted - 0.883) <= 0.005 and round(weighted, 2) == 0.88
        _report(2, "PASS" if ok else "FAIL",
                f"max F1 gap {worst:.4f}, weighted {weighted:.4f}", capsys)
        assert ok

    def test_3_imbalance_baseline(self, capsys):
        """Majority baselines from the reference supports hit 0.8129 and 0.9313."""
        binary_eval = [0] * 847 + [1] * 3679
        binary = majority_baseline([1, 1, 0], binary_eval, ("no", "yes"))["accuracy"]
        three_eval = [0] * 289 + [1] * 22 + [2] * 4215
        three = majority_baseline([2, 2, 0], three_eval, ("neg", "neu", "pos"))["accuracy"]
        ok = round(binary, 4) == 0.8129 and round(three, 4) == 0.9313
        _report(3, "PASS" if ok else "FAIL",
                f"binary {binary:.4f}, three-class {three:.4f}", capsys)
        assert ok

    def test_4_desk_scale_training(self, capsys):
        """The 40-review keyword fixture trains to 95% accuracy in 30 epochs."""
        start = time.monotonic()
        (_, _, history), report = _train_and_score(toy_reviews(), toy_config(), scored=0)
        first5 = [h.train_loss for h in history[:5]]
        decreasing = all(a > b for a, b in zip(first5, first5[1:]))
        elapsed = time.monotonic() - start
        ok = report["accuracy"] >= 0.95 and decreasing and elapsed < 60.0
        _report(4, "PASS" if ok else "FAIL",
                f"train acc {report['accuracy']:.3f}, first-5 losses decreasing "
                f"{decreasing}, {elapsed:.1f}s", capsys)
        assert ok

    def test_5_dataset_reproduction(self, capsys):
        """Full-dataset statistics match the expected values when available."""
        path = _dataset_path()
        if path is None:
            _report(5, "SKIP", "real dataset not supplied; set REVIEWLAB_DATASET", capsys)
            pytest.skip("real dataset not supplied")
        records, _ = parse_csv(path)
        counts = unique_counts(records)
        count_ok = counts == EXPECTED_UNIQUE_COUNTS
        stats = describe(records, "Rating")
        rating_ok = (abs(stats.mean - EXPECTED_RATING_MEAN) <= 1e-4
                     and abs(stats.std - EXPECTED_RATING_STD) <= 1e-4)
        corr = grouped_rating_corr(records)
        corr_value = corr.rows[0][corr.header.index("mean_recommended")]  # mean_rating row
        corr_ok = corr_value != "" and abs(corr_value - 0.8) <= 0.05
        kept, _ = filter_for_classification(records)
        _, _, test_rows = split_60_20_20(kept, seed=0)
        test_support = len(test_rows)
        if test_support != EXPECTED_TEST_SUPPORT:
            _report(5, "NOTE",
                    f"filter+split rule yields test support {test_support}, "
                    f"expected {EXPECTED_TEST_SUPPORT}; discrepancy reported", capsys)
        ok = count_ok and rating_ok and corr_ok
        _report(5, "PASS" if ok else "FAIL",
                f"uniques {count_ok}, rating {stats.mean:.6f}/{stats.std:.6f}, "
                f"grouped corr {corr_value}", capsys)
        assert ok

    def test_6_full_scale_training(self, capsys):
        """Optional full run, about 21 min per task: reference settings on the real data."""
        path = _dataset_path()
        if path is None or os.environ.get("REVIEWLAB_FULL_SCALE") != "1":
            _report(6, "SKIP",
                    "set REVIEWLAB_DATASET and REVIEWLAB_FULL_SCALE=1 to run", capsys)
            pytest.skip("full-scale run not requested")
        records, _ = parse_csv(path)
        accuracies = {}
        for task, floor in (("recommendation", 0.84), ("sentiment", 0.90)):
            _, report = _train_and_score(records, TrainConfig(task=task), scored=2)
            accuracies[task] = (report["accuracy"], floor)
        ok = all(acc >= floor for acc, floor in accuracies.values())
        _report(6, "PASS" if ok else "FAIL",
                ", ".join(f"{task} {acc:.4f} (floor {floor})"
                          for task, (acc, floor) in accuracies.items()), capsys)
        assert ok

    def test_7_oracle_equivalences(self, capsys):
        """Numeric kernels agree with brute-force oracles on random inputs."""
        start = time.monotonic()
        rng = SeededRng(2024)

        W, b = BiLstmClassifier.build(3, 4, 2, rng)[:2]
        xs = init_uniform(6, 4, rng, 2.0)
        x = xs[:, None, :]
        h, _ = lstm_sequence_forward((W, b), x, *packed(x))
        want = _lstm_oracle(W.tolist(), b.tolist(), xs.tolist())
        gates_gap = max(abs(got - exp) for got, exp in zip(h[0], want))

        labels = [rng.next_u64() & 1 for _ in range(300)]
        labels[0], labels[1] = 0, 1
        scores = [round(u, 2) for u in rng.fill(300).tolist()]
        auc_gap = abs(roc_auc(labels, scores)[1] - _pair_auc(labels, scores))

        matrix = tuple(
            tuple(rng.randrange(30) for _ in range(4)) for _ in range(4)
        )
        per_class = build_report(matrix, "abcd", 0.0)["classes"]
        prf_exact = all(
            (m["precision"], m["recall"], m["f1"]) == oracle
            for m, oracle in zip(per_class, _counting_prf(matrix))
        )

        xs = [u * 10 for u in rng.fill(500).tolist()]
        ys = [x * 0.5 + u for x, u in zip(xs, rng.fill(500).tolist())]
        pearson_gap = abs(pearson(xs, ys) - _two_pass_pearson(xs, ys))

        rows = softmax(init_uniform(6, 9, rng, 3.0))
        softmax_gap = max(abs(sum(row) - 1.0) for row in rows.tolist())

        elapsed = time.monotonic() - start
        ok = (gates_gap < 1e-12 and auc_gap < 1e-9 and prf_exact
              and pearson_gap < 1e-12 and softmax_gap < 1e-12 and elapsed < 10.0)
        _report(7, "PASS" if ok else "FAIL",
                f"fused gates {gates_gap:.1e}, auc {auc_gap:.1e}, prf exact {prf_exact}, "
                f"pearson {pearson_gap:.1e}, softmax {softmax_gap:.1e}, {elapsed:.1f}s",
                capsys)
        assert ok

    def test_8_cli_determinism(self, capsys, tmp_path):
        """Rerunning each command with the same config is byte-identical."""
        data = tmp_path / "reviews.csv"
        write_csv(toy_reviews(), data)
        cfg_file = tmp_path / "toy.cfg"
        cfg_file.write_text(
            "\n".join(f"{k}={v}" for k, v in toy_config(epochs=3).as_dict().items()) + "\n"
        )
        out = tmp_path / "runs"

        def snap(run_dir):
            return {p.name: p.read_bytes() for p in sorted(run_dir.iterdir())
                    if p.is_file()}

        identical = []
        for command, extra in (
            ("analyze", []),
            ("label", []),
            ("train", ["--config", str(cfg_file)]),
        ):
            argv = [command, "--data", str(data), "--out", str(out), *extra]
            assert main(argv) == 0
            assert main(argv) == 0
            identical.append(
                snap(out / f"{command}-0001") == snap(out / f"{command}-0002")
            )
        ckpt = out / "train-0001" / "model.ckpt"
        eval_argv = ["evaluate", "--data", str(data), "--out", str(out),
                     "--config", str(cfg_file), "--checkpoint", str(ckpt)]
        assert main(eval_argv) == 0
        assert main(eval_argv) == 0
        identical.append(snap(out / "evaluate-0001") == snap(out / "evaluate-0002"))

        ok = all(identical)
        _report(8, "PASS" if ok else "FAIL",
                f"analyze/label/train/evaluate reruns identical: {identical}", capsys)
        assert ok
