"""Tests for the training loop, evaluation pass, and prediction."""

import ctypes
import sys
import tracemalloc
import weakref
from dataclasses import replace
from itertools import count
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reviewlab.cli
import reviewlab.training
from reviewlab.checkpoint import TASK_CLASSES, ModelBundle, load_checkpoint, save_checkpoint
from reviewlab.cli import main
from reviewlab.dataset import split_60_20_20, write_csv
from reviewlab.errors import InputError
from reviewlab.nn import BiLstmClassifier, softmax
from reviewlab.rng import SeededRng
from reviewlab.sentiment import BUILTIN_LEXICON
from reviewlab.textprep import (
    OOV_INDEX,
    PAD_INDEX,
    build_vocab,
    encode,
    random_embeddings,
    sorted_vocab,
    tokenize,
)
from toy import toy_config, toy_reviews

from gradcheck import grad_check, padded
from reviewlab.training import (
    TrainConfig,
    batch_gradients,
    class_probabilities,
    evaluate,
    predict,
    tokenized_splits,
    train,
)


# (train_loss, val_loss, val_acc) per epoch of 3-epoch toy runs, keyed by
# (task, dropout_rate), recorded from the float32 length-aware model, whose
# recurrence reads only each review's real tokens.
RECORDED_TOY_HISTORY = {
    ("recommendation", 0.0): (
        (0.6948291782213977, 0.7130488789263552, 0.375),
        (0.692856320867814, 0.7110900418833754, 0.375),
        (0.6913275186433139, 0.708947992124015, 0.375),
    ),
    ("sentiment", 0.0): (
        (1.2163745887017916, 1.2101461206815942, 0.0),
        (1.208753318063539, 1.2029518728360198, 0.0),
        (1.20147328179413, 1.1953411277055717, 0.0),
    ),
    ("recommendation", 0.5): (
        (0.6964430433636464, 0.7133055050904833, 0.375),
        (0.6946331125723565, 0.7119917870771216, 0.375),
        (0.6936756872307921, 0.7109391058200532, 0.375),
    ),
}
# float32 GEMM kernels sum in a CPU-dependent order. On the OpenBLAS core
# the values were recorded on they are pinned at rtol 1e-12. Forcing the
# Haswell or Prescott kernel (OPENBLAS_CORETYPE) moved them by up to 2.5e-9
# relative, so any other core compares at 4x that. The looser bound cannot
# tell these values from the float64 model's, which differ by at most
# 6.2e-9; only the pinned core can.
RECORDED_HISTORY_CORE = "SkylakeX"
RECORDED_HISTORY_RTOL = 1e-12
OTHER_CORE_HISTORY_RTOL = 1e-8


def openblas_core():
    """The core name of numpy's bundled OpenBLAS, or None if it has none."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*.so*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename",
                       "openblas_get_corename64_", "openblas_get_corename"):
            corename = getattr(lib, symbol, None)
            if corename is not None:
                corename.restype = ctypes.c_char_p
                return corename().decode()
    return None


def prepared_toy(task="recommendation", **overrides):
    """(config, the encoded (indices, labels) train, validation and test splits, the
    ranked tokens, the embedding table) of the toy fixture, built as `cli train` builds them."""
    config = toy_config(task=task)
    if overrides:
        config = TrainConfig(**{**config.as_dict(), **overrides})
    splits = tokenized_splits(toy_reviews(), config, BUILTIN_LEXICON, (0, 1, 2))[0]
    vocab, matrices = build_vocab([tokens for tokens, _ in splits], config.min_freq,
                                  config.vocab_size, config.seq_len)
    encoded = tuple(zip(matrices, (labels for _, labels in splits)))
    emb = random_embeddings(len(vocab) + 2, config.embedding_dim, SeededRng(config.seed + 1))
    return config, encoded, vocab, emb


def trained(config, train_split, validation, emb):
    """`train`'s (model, table) and the EpochStats rows its on_epoch got, in call order;
    the live arrays on_epoch is also handed are ignored."""
    rows = []
    model, table = train(config, train_split, validation, emb,
                         lambda stats, *_: rows.append(stats))
    return model, table, tuple(rows)


class TestTrainConfig:
    def test_reference_defaults(self):
        config = TrainConfig()
        assert config.batch_size == 256
        assert config.cell_size == 256
        assert config.dropout_rate == 0.50
        assert config.epochs == 32
        assert config.learning_rate == 1e-3

    def test_task_class_spaces(self):
        assert len(TrainConfig(task="recommendation").class_names) == 2
        assert len(TrainConfig(task="sentiment").class_names) == 3
        assert TrainConfig(task="sentiment").class_names == ("negative", "neutral", "positive")

    def test_invalid_fields_rejected(self):
        with pytest.raises(ValueError, match="dropout_rate"):
            TrainConfig(dropout_rate=1.0)
        with pytest.raises(ValueError, match="learning_rate"):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ValueError, match="batch_size"):
            TrainConfig(batch_size=0)
        with pytest.raises(ValueError, match="epochs"):
            TrainConfig(epochs=-1)
        with pytest.raises(ValueError, match="task"):
            TrainConfig(task="regression")

    def test_as_dict_round_trips(self):
        config = TrainConfig(seed=11, task="sentiment")
        assert TrainConfig(**config.as_dict()) == config


class TestSplitTypes:
    def test_out_of_range_label(self):
        """A label past the model's last class fails the first batch's loss."""
        config, ((indices, labels), validation, _), _, emb = prepared_toy(epochs=1)
        labels = labels.copy()
        labels[0] = 2
        with pytest.raises(IndexError, match="out of bounds"):
            trained(config, (indices, labels), validation, emb)


class TestTaskLabels:
    """The labels `tokenized_splits` gives each record, read back in record order."""

    @staticmethod
    def labels_in_record_order(task):
        records, config = toy_reviews(n=6), toy_config(task=task)
        splits = tokenized_splits(records, config, BUILTIN_LEXICON, (0, 1, 2))[0]
        labels = [None] * len(records)
        for rows, (_, split_labels) in zip(split_60_20_20(records, config.seed), splits):
            for i, label in zip(rows, split_labels.tolist()):
                labels[i] = label
        return labels, config.class_names

    def test_recommendation_uses_flag(self):
        labels, names = self.labels_in_record_order("recommendation")
        assert labels == [1, 0, 1, 0, 1, 0]
        assert [names[i] for i in labels[:2]] == ["recommended", "not_recommended"]

    def test_sentiment_uses_lexicon(self):
        labels, names = self.labels_in_record_order("sentiment")
        assert labels == [2, 0, 2, 0, 2, 0]
        assert [names[i] for i in labels[:2]] == ["positive", "negative"]


class TestBuildTrainingData:
    """What `cli train` builds from the records before it trains."""

    def test_split_sizes(self):
        _, splits, _, _ = prepared_toy()
        assert [len(labels) for _, labels in splits] == [24, 8, 8]

    def test_vocab_from_training_split_only(self, tmp_path):
        """Tokens confined to validation/test rows never enter the checkpoint's vocabulary."""
        config, records = toy_config(epochs=0), toy_reviews()
        data, cfg = tmp_path / "reviews.csv", tmp_path / "toy.cfg"
        write_csv(records, data)
        cfg.write_text("".join(f"{k}={v}\n" for k, v in config.as_dict().items()))
        assert main(["train", "--data", str(data), "--out", str(tmp_path / "runs"),
                     "--config", str(cfg)]) == 0
        vocab = load_checkpoint(tmp_path / "runs" / "train-0001" / "model.ckpt").vocab
        train_rows, _, _ = split_60_20_20(records, config.seed)
        train_tokens = set()
        for i in train_rows:
            train_tokens.update(tokenize(records[i].review_text))
        assert {word.decode() for word in vocab.tolist()} == train_tokens

    def test_dropped_records_counted(self):
        records = toy_reviews()
        records[0] = records[0]._replace(review_text=None)
        splits, dropped, _ = tokenized_splits(records, toy_config(), BUILTIN_LEXICON, (0, 1, 2))
        assert dropped == 1
        assert sum(len(labels) for _, labels in splits) == 39

    def test_sequences_padded_to_config_length(self):
        """Every split pads to the longest review, cut to seq_len."""
        longest = max(len(tokenize(r.review_text)) for r in toy_reviews())
        for seq_len in (longest + 2, longest - 2):
            _, splits, _, _ = prepared_toy(seq_len=seq_len)
            for indices, labels in splits:
                assert indices.shape == (len(labels), min(seq_len, longest))
                assert indices.dtype == np.int64
                assert labels.dtype == np.int64


class TrainingStep:
    """A model and its embedding table as the seven blocks batch_gradients differentiates."""

    def __init__(self, model, table):
        self.model, self.table = model, table

    def param_blocks(self):
        return [*self.model.param_blocks(), ("embeddings", self.table)]

    @staticmethod
    def loss_and_grads(step, instance):
        # A fresh rng per call draws the same dropout mask every time.
        idx, targets, dropout_rate = instance
        return batch_gradients(step.model, step.table, idx, targets, dropout_rate, SeededRng(7))

    @staticmethod
    def loss(step, instance):
        return TrainingStep.loss_and_grads(step, instance)[0]


class TestBatchGradients:
    # V=7: 0 pad, 1 OOV, 2..6 tokens.  Token 2 repeats within and across rows,
    # row 2 is all padding, and the last column is padding in every row.
    IDX = np.array([[2, 3, 2, 1, 0, 0],
                    [4, 5, 6, 2, 3, 0],
                    [0, 0, 0, 0, 0, 0],
                    [1, 6, 2, 0, 0, 0]])
    TARGETS = np.array([0, 2, 1, 2])

    @pytest.mark.parametrize("dropout_rate", [0.0, 0.5])
    def test_every_block_matches_central_differences(self, dropout_rate):
        """float64, table included, through the step train takes."""
        step = TrainingStep(BiLstmClassifier.build(3, 4, 3, SeededRng(11)),
                            random_embeddings(7, 4, SeededRng(12)))
        instance = (self.IDX, self.TARGETS, dropout_rate)
        report = grad_check(step, instance, epsilon=1e-4, tolerance=1e-5,
                            loss=TrainingStep.loss, loss_and_grads=TrainingStep.loss_and_grads)
        assert report.passed, report.per_block
        assert list(report.per_block) == [name for name, _ in step.param_blocks()]
        _, grads = TrainingStep.loss_and_grads(step, instance)
        assert [g.shape for g in grads] == [p.shape for _, p in step.param_blocks()]
        assert np.all(grads[-1][PAD_INDEX] == 0.0)

    def test_table_gradient_is_the_every_position_scatter(self, monkeypatch):
        """Scattering only the real tokens' dx gives the bits np.add.at over every position
        of the ragged batch gives, in float32 as train computes."""
        spent = []
        real = reviewlab.training.backward

        def backward(*args):
            grads, dx = real(*args)
            spent.append(dx)
            return grads, dx

        monkeypatch.setattr(reviewlab.training, "backward", backward)
        model = BiLstmClassifier(*(a.astype(np.float32)
                                   for a in BiLstmClassifier.build(3, 4, 3, SeededRng(11))))
        table = random_embeddings(7, 4, SeededRng(12)).astype(np.float32)
        _, grads = batch_gradients(model, table, self.IDX, self.TARGETS, 0.5, SeededRng(7))
        (dx,) = spent
        lengths = (self.IDX != PAD_INDEX).sum(axis=1)
        dx = padded(dx, lengths, lengths.max())
        full = np.zeros_like(table)
        np.add.at(full, self.IDX[:, :len(dx)].T, dx)
        assert grads[-1].tobytes() == full.tobytes()

    def test_reference_batch_traces_little_beyond_the_two_caches(self):
        """B=256, H=256, D=50, the gamma lengths of the eval-forward memory test in
        test_nn.py, float32 and dropout 0.5: one step's traced peak is at most 1.25x the two
        directions' BPTT caches, 2 N (5H + D) float32s for N real tokens (it traces about
        1.13x), so one more (N, 4H) buffer fails it."""
        rng = np.random.default_rng(132)
        lengths = np.minimum(1 + rng.gamma(3.2, 18.6, 256).astype(int), 120)
        idx = np.where(np.arange(lengths.max()) < lengths[:, None],
                       rng.integers(2, 20_000, (256, lengths.max())), PAD_INDEX)
        model = BiLstmClassifier(*(a.astype(np.float32)
                                   for a in BiLstmClassifier.build(256, 50, 2, SeededRng(133))))
        table = rng.standard_normal((20_000, 50), dtype=np.float32)
        tracemalloc.start()
        try:
            batch_gradients(model, table, idx, rng.integers(0, 2, 256), 0.5, SeededRng(7))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        caches = 2 * int(lengths.sum()) * (5 * 256 + 50) * 4
        assert peak <= 1.25 * caches, (peak, caches)

    def test_clip_sees_all_seven_blocks(self, monkeypatch):
        sizes = []
        real = reviewlab.training.clip_by_global_norm

        def clip_by_global_norm(grads, max_norm):
            sizes.append(len(grads))
            return real(grads, max_norm)

        monkeypatch.setattr(reviewlab.training, "clip_by_global_norm", clip_by_global_norm)
        config, splits, _, emb = prepared_toy(epochs=1)
        trained(config, *splits[:2], emb)
        assert sizes == [7, 7, 7]  # 24 rows in batches of 8


class TestTrain:
    def test_zero_epochs_returns_initialization(self):
        config, splits, _, emb = prepared_toy(epochs=0)
        model, table, history = trained(config, *splits[:2], emb)
        assert history == ()
        init = BiLstmClassifier.build(
            config.cell_size, config.embedding_dim, len(config.class_names),
            SeededRng(config.seed),
        )
        for (_, got), (_, want) in zip(model.param_blocks(), init.param_blocks()):
            assert got.dtype == np.float32
            assert np.array_equal(got, want.astype(np.float32))
        assert table.dtype == np.float32
        assert np.array_equal(table, emb.astype(np.float32))

    def test_deterministic_history(self):
        config, splits, _, emb = prepared_toy(epochs=3)
        first, _, first_history = trained(config, *splits[:2], emb)
        second, _, second_history = trained(config, *splits[:2], emb)
        assert first_history == second_history
        for (_, a), (_, b) in zip(first.param_blocks(), second.param_blocks()):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("task,dropout_rate", sorted(RECORDED_TOY_HISTORY))
    def test_history_matches_recorded_values(self, task, dropout_rate):
        config, splits, _, emb = prepared_toy(task=task, epochs=3, dropout_rate=dropout_rate)
        _, _, history = trained(config, *splits[:2], emb)
        got = [(h.train_loss, h.val_loss, h.val_acc) for h in history]
        want = RECORDED_TOY_HISTORY[task, dropout_rate]
        pinned = openblas_core() == RECORDED_HISTORY_CORE
        rtol = RECORDED_HISTORY_RTOL if pinned else OTHER_CORE_HISTORY_RTOL
        assert np.allclose(got, want, rtol=rtol, atol=0.0)

    def test_non_finite_gradient_norm_raises(self, monkeypatch):
        """A gradient whose squared norm overflows stops training before the update."""
        real_backward = reviewlab.training.backward
        monkeypatch.setattr(reviewlab.training, "adam_step", None)  # never reached

        def poisoned(*args):
            grads, dx = real_backward(*args)
            grads[0][0, 0] = 3e38  # finite in float32, its square is not
            return grads, dx

        monkeypatch.setattr(reviewlab.training, "backward", poisoned)
        config, splits, _, emb = prepared_toy(epochs=1)
        with pytest.raises(InputError, match=r"^training diverged: overflow encountered in "
                                             r"multiply at epoch 1, batch 1; "
                                             r"lower learning_rate \(now 0.001\)$"):
            trained(config, *splits[:2], emb)

    def test_non_finite_training_loss_raises(self, monkeypatch):
        """A reverse direction that overflows, on the worker thread, stops training
        at the batch's forward pass, before its loss and update."""
        real_forward = reviewlab.training.forward

        def poisoned(model, *args, **kwargs):
            W, b = model.bwd_W.copy(), np.full_like(model.bwd_b, 30.0)
            W[:, :model.cell_size] = 3e38  # saturated gates, then h . W_h sums H terms of 2.3e38
            return real_forward(model._replace(bwd_W=W, bwd_b=b), *args, **kwargs)

        monkeypatch.setattr(reviewlab.training, "forward", poisoned)
        config, splits, _, emb = prepared_toy(epochs=1)
        with pytest.raises(InputError, match=r"^training diverged: overflow encountered in "
                                             r"matmul at epoch 1, batch 1; lower learning_rate"):
            trained(config, *splits[:2], emb)

    def test_overflow_in_the_last_update_raises(self):
        """One batch per epoch: only the validation pass sees the overflowed weights."""
        config, splits, _, emb = prepared_toy(epochs=1, batch_size=64, learning_rate=1e30)
        with pytest.raises(InputError, match=r"^training diverged: overflow encountered in "
                                             r"\w+ at epoch 1, after its last batch; "
                                             r"lower learning_rate \(now 1e\+30\)$"):
            trained(config, *splits[:2], emb)

    def test_every_training_array_is_float32(self, monkeypatch):
        """Caches, gradients, dx, Adam moments and the result are float32."""
        seen = {"probs": []}
        real = {name: getattr(reviewlab.training, name)
                for name in ("forward", "backward", "adam_step")}

        def forward(*args, **kwargs):
            probs, cache = real["forward"](*args, **kwargs)
            seen["probs"].append(probs)
            if kwargs.get("training"):
                seen["cache"] = [*cache.fwd[:2], *cache.bwd[:2], cache.features, cache.mask]
            return probs, cache

        def backward(*args):
            grads, dx = real["backward"](*args)
            seen["grads"] = [*grads, dx]
            return grads, dx

        def adam_step(params, grads, moments, t, lr):
            real["adam_step"](params, grads, moments, t, lr)
            seen["adam"] = [*params, *grads, *(a for pair in moments for a in pair)]

        for name, fn in [("forward", forward), ("backward", backward), ("adam_step", adam_step)]:
            monkeypatch.setattr(reviewlab.training, name, fn)
        config, splits, _, emb = prepared_toy(epochs=1, dropout_rate=0.5)
        model, table, _ = trained(config, *splits[:2], emb)
        for key in ("cache", "grads", "adam"):
            assert {a.dtype for a in seen[key]} == {np.dtype(np.float32)}, key
        assert {p.dtype for p in seen["probs"]} == {np.dtype(np.float64)}
        assert [a.dtype for a in (*model, table)] == [np.float32] * 7

    def test_caller_embeddings_untouched(self):
        """Training fine-tunes a copy of the embedding table."""
        config, splits, _, emb = prepared_toy(epochs=1)
        before = emb.copy()
        _, table, _ = trained(config, *splits[:2], emb)
        assert np.array_equal(emb, before)
        assert not np.array_equal(table, before)

    def test_toy_fixture_converges(self):
        """Separable keyword reviews reach 95% training accuracy in 30 epochs."""
        config, splits, _, emb = prepared_toy()
        model, table, history = trained(config, *splits[:2], emb)
        report, _ = evaluate(model, table, splits[0],
                             config.batch_size, config.class_names)
        assert report["accuracy"] >= 0.95
        first5 = [h.train_loss for h in history[:5]]
        assert all(a > b for a, b in zip(first5, first5[1:]))

    def test_history_rows_numbered_from_one(self):
        config, splits, _, emb = prepared_toy(epochs=2)
        _, _, history = trained(config, *splits[:2], emb)
        assert [h.epoch for h in history] == [1, 2]

    def test_padding_row_stays_zero(self):
        config, splits, _, emb = prepared_toy(epochs=2)
        _, table, _ = trained(config, *splits[:2], emb)
        assert np.all(table[PAD_INDEX] == 0.0)

    def test_class_count_mismatch_rejected(self):
        """Three-class sentiment labels do not fit a two-class recommendation model."""
        config, _, _, emb = prepared_toy()
        _, sentiment, _, _ = prepared_toy(task="sentiment")
        with pytest.raises(IndexError, match="out of bounds for axis 1 with size 2"):
            trained(config, *sentiment[:2], emb)

    def test_adam_update_numbers_run_across_epochs(self, monkeypatch):
        """Adam's bias correction counts updates from 1 over the whole run, not per epoch."""
        numbers = []
        real = reviewlab.training.adam_step

        def adam_step(params, grads, moments, t, lr):
            numbers.append(t)
            real(params, grads, moments, t, lr)

        monkeypatch.setattr(reviewlab.training, "adam_step", adam_step)
        config, splits, _, emb = prepared_toy(epochs=3)
        trained(config, *splits[:2], emb)
        assert numbers == list(range(1, 3 * 3 + 1))  # 24 rows in batches of 8


def at_epoch(config, train_split, validation, emb, epoch):
    """A `train` run's EpochStats rows, and its seven arrays (the model's blocks, then the
    table) as they stood after `epoch`, copied from the live arrays on_epoch is handed,
    which the next epoch updates in place."""
    arrays, rows = [], []

    def on_epoch(stats, model, table):
        rows.append(stats)
        if stats.epoch == epoch:
            arrays.extend(a.copy() for a in (*model, table))

    train(config, train_split, validation, emb, on_epoch)
    return tuple(rows), arrays


class TestEpochPrefix:
    @pytest.mark.parametrize("epoch", [1, 3])
    @pytest.mark.parametrize("task", sorted(TASK_CLASSES))
    def test_a_shorter_run_is_the_prefix_of_a_longer_one(self, task, epoch):
        """An `epoch`-epoch run's rows, model and table are those of a 5-epoch run at that
        epoch, dropout included: the epoch count draws nothing from the rng.  Epoch 1 holds
        Adam's first bias-corrected steps."""
        config, splits, _, emb = prepared_toy(task=task, epochs=epoch, dropout_rate=0.3)
        model, table, rows = trained(config, *splits[:2], emb)
        longer, copied = at_epoch(replace(config, epochs=5), *splits[:2], emb, epoch)
        assert len(longer) == 5
        assert longer[:epoch] == rows
        arrays = [a for _, a in model.param_blocks()] + [table]
        assert len(copied) == len(arrays) == 7
        for got, want in zip(copied, arrays):
            assert got.dtype == want.dtype and np.array_equal(got, want)

    @pytest.mark.parametrize("task", sorted(TASK_CLASSES))
    def test_a_checkpoint_taken_at_epoch_3_is_a_3_epoch_runs(self, task, tmp_path):
        """The arrays of a 5-epoch run at epoch 3, saved with the run's ranked tokens and
        data fingerprint, are byte for byte the model.ckpt `cli train` writes at epochs=3:
        an epoch picked within one run needs no retraining to be checkpointed."""
        config, splits, tokens, emb = prepared_toy(task=task, epochs=3, dropout_rate=0.3)
        _, arrays = at_epoch(replace(config, epochs=5), *splits[:2], emb, 3)
        words, table = sorted_vocab(tokens, arrays[-1])
        data_sha256 = tokenized_splits(toy_reviews(), config, BUILTIN_LEXICON, ())[2]
        save_checkpoint(ModelBundle(task=task, seq_len=config.seq_len, seed=config.seed,
                                    vocab=words, model=BiLstmClassifier(*arrays[:-1]),
                                    embeddings=table, data_sha256=data_sha256),
                        tmp_path / "at_epoch_3.ckpt")
        data, cfg = tmp_path / "reviews.csv", tmp_path / "toy.cfg"
        write_csv(toy_reviews(), data)
        cfg.write_text("".join(f"{k}={v}\n" for k, v in config.as_dict().items()))
        assert main(["train", "--data", str(data), "--out", str(tmp_path / "runs"),
                     "--config", str(cfg)]) == 0
        assert ((tmp_path / "at_epoch_3.ckpt").read_bytes()
                == (tmp_path / "runs" / "train-0001" / "model.ckpt").read_bytes())


class TestEvaluate:
    def test_report_totals_match_split(self):
        config, splits, _, emb = prepared_toy(epochs=1)
        model, table, _ = trained(config, *splits[:2], emb)
        report, probs = evaluate(model, table, splits[2],
                                 config.batch_size, config.class_names)
        assert report["total"] == len(splits[2][1]) == 8
        assert probs.shape == (8, 2)
        assert tuple(c["name"] for c in report["classes"]) == TASK_CLASSES["recommendation"]

    def test_batch_size_does_not_change_probabilities(self):
        """Within 1e-12 in float64.  In float32, GEMMs of other shapes round
        differently, so within 1e-6, about 8 machine epsilons (1.2e-7)."""
        config, splits, _, emb = prepared_toy(epochs=1)
        model, table, _ = trained(config, *splits[:2], emb)
        test_indices = splits[2][0]
        for net, weights, atol in [
            (BiLstmClassifier(*(a.astype(np.float64) for a in model)),
             table.astype(np.float64), 1e-12),
            (model, table, 1e-6),
        ]:
            one = class_probabilities(net, weights, test_indices, batch_size=1)
            many = class_probabilities(net, weights, test_indices, batch_size=5)
            assert one.shape == (len(test_indices), 2)
            assert np.allclose(one, many, atol=atol, rtol=0.0)

    @given(rows=st.lists(st.lists(st.integers(1, 9), max_size=8), min_size=1, max_size=6),
           seq_len=st.integers(1, 10), batch_size=st.integers(1, 6))
    @settings(max_examples=30, deadline=None)
    def test_rows_depend_only_on_their_own_tokens(self, rows, seq_len, batch_size):
        """A review's probabilities depend neither on seq_len beyond truncation
        nor on the reviews that share its batch."""
        model = BiLstmClassifier.build(3, 4, 2, SeededRng(5))
        table = random_embeddings(10, 4, SeededRng(6))
        padded = np.array([(r + [PAD_INDEX] * seq_len)[:seq_len] for r in rows])
        probs = class_probabilities(model, table, padded, batch_size)
        for row, got in zip(rows, probs):
            alone = class_probabilities(model, table, np.array([row[:seq_len] or [PAD_INDEX]]), 1)
            assert np.abs(got - alone[0]).max() <= 1e-12

    def test_float32_rows_agree_up_to_blas_rounding(self):
        """In float32 a batch (GEMM) and one row (GEMV) round differently, so a review's
        probabilities move with its batch by a few 1e-9, and its label only at a near-tie."""
        model = BiLstmClassifier(*(a.astype(np.float32)
                                   for a in BiLstmClassifier.build(64, 16, 2, SeededRng(7))))
        table = random_embeddings(50, 16, SeededRng(8)).astype(np.float32)
        rng = np.random.default_rng(9)
        lengths = rng.integers(0, 30, 60)
        padded = np.where(np.arange(30) < lengths[:, None], rng.integers(1, 50, (60, 30)),
                          PAD_INDEX)
        alone = class_probabilities(model, table, padded, batch_size=1)
        top_two = np.sort(alone, axis=1)[:, -2:]
        near_tie = top_two[:, 1] - top_two[:, 0] <= 2e-6
        for batch_size in (60, 16, 3):
            probs = class_probabilities(model, table, padded, batch_size)
            assert np.abs(probs - alone).max() <= 1e-6
            assert ((probs.argmax(1) == alone.argmax(1)) | near_tie).all()


class TestPredict:
    def bundle(self):
        config, splits, vocab, emb = prepared_toy(epochs=2)
        model, table, _ = trained(config, *splits[:2], emb)
        words, table = sorted_vocab(vocab, table)
        bundle = ModelBundle(
            task=config.task,
            seq_len=config.seq_len,
            seed=config.seed,
            vocab=words,
            model=model,
            embeddings=table,
            data_sha256="",  # predict never reads the data fingerprint
        )
        return bundle

    def test_saved_model_scores_bit_identically(self, tmp_path):
        """Through save -> load (sorted words, permuted rows) every text scores exactly as
        with a dict of the ranked tokens and the training-order table, out-of-vocabulary
        tokens included."""
        config, splits, vocab, emb = prepared_toy(epochs=2)
        model, table, _ = trained(config, *splits[:2], emb)
        words, sorted_table = sorted_vocab(vocab, table)
        path = tmp_path / "model.ckpt"
        save_checkpoint(ModelBundle(task=config.task, seq_len=config.seq_len, seed=config.seed,
                                    vocab=words, model=model, embeddings=sorted_table,
                                    data_sha256=""), path)
        loaded = load_checkpoint(path)
        longest = max(vocab, key=len)
        long_token = longest + "s"  # its first word_bytes bytes are a word
        assert len(long_token) > loaded.vocab.dtype.itemsize
        assert long_token not in vocab
        texts = ["really good dress love it", "zebra quokka good", "bad skirt, returned it!",
                 f"{long_token} {longest} good", long_token, "!!!"]
        token_lists = [tokenize(text) for text in texts]
        index = dict(zip(vocab, count(2)))  # ranked token i is row i + 2 of the training table
        assert "zebra" not in index
        assert encode([[long_token]], loaded.vocab, 1)[0, 0] == OOV_INDEX

        def dict_encode(lists, width):
            rows = [[index.get(t, OOV_INDEX) for t in tokens[:width]] for tokens in lists]
            return np.array([row + [PAD_INDEX] * (width - len(row)) for row in rows], np.int64)

        expected = class_probabilities(model, table, dict_encode(token_lists, config.seq_len), 4)
        got = class_probabilities(loaded.model, loaded.embeddings,
                                  encode(token_lists, loaded.vocab, config.seq_len), 4)
        assert np.array_equal(got, expected)
        for text, tokens in zip(texts, token_lists):
            alone = class_probabilities(model, table,
                                        dict_encode([tokens], max(1, len(tokens))), 1)[0]
            assert list(predict(loaded, text)["probabilities"].values()) == alone.tolist()

    def test_identical_text_identical_probabilities(self):
        bundle = self.bundle()
        a = predict(bundle, "really good dress love it")
        b = predict(bundle, "really good dress love it")
        assert a == b

    def test_probabilities_sum_to_one(self):
        bundle = self.bundle()
        p = predict(bundle, "bad skirt returned it")
        assert sorted(p) == ["empty_input", "label", "label_index", "probabilities"]
        assert sum(p["probabilities"].values()) == pytest.approx(1.0, abs=1e-12)
        assert p["label"] == bundle.class_names[p["label_index"]]

    def test_float32_model_gives_float64_probabilities(self):
        """Probabilities are float64 and sum to 1 within 1e-12, although the model is float32."""
        _, splits, _, _ = prepared_toy()
        bundle = self.bundle()
        assert bundle.model.head_W.dtype == np.float32
        probs = class_probabilities(bundle.model, bundle.embeddings, splits[2][0], 3)
        assert probs.dtype == np.float64
        assert np.abs(probs.sum(axis=1) - 1.0).max() <= 1e-12
        for text in ("bad skirt returned it", "good", "!!!"):
            assert abs(sum(predict(bundle, text)["probabilities"].values()) - 1.0) <= 1e-12

    def test_empty_text_flagged(self):
        bundle = self.bundle()
        p = predict(bundle, "!!!")
        assert p["empty_input"]
        assert sum(p["probabilities"].values()) == pytest.approx(1.0, abs=1e-12)
        # Zero features: the head bias alone decides.
        want = softmax(bundle.model.head_b[None])[0]
        assert np.abs(np.array(list(p["probabilities"].values())) - want).max() <= 1e-15

    def test_probabilities_do_not_depend_on_seq_len(self):
        """A 3-token review is scored alike whether padded to 3, 10 or 120 steps."""
        bundle = self.bundle()
        got = {n: predict(replace(bundle, seq_len=n), "very good dress")["probabilities"]
               for n in (3, 10, 120)}
        assert got[3] == got[10] == got[120]


class TestHistoryCsv:
    def test_header_and_rows(self, tmp_path):
        """`cli train` writes one row per epoch holding the exact EpochStats values."""
        config, splits, _, emb = prepared_toy(epochs=2)
        _, _, history = trained(config, *splits[:2], emb)
        data, cfg = tmp_path / "reviews.csv", tmp_path / "toy.cfg"
        write_csv(toy_reviews(), data)
        cfg.write_text("".join(f"{k}={v}\n" for k, v in config.as_dict().items()))
        assert main(["train", "--data", str(data), "--out", str(tmp_path / "runs"),
                     "--config", str(cfg)]) == 0
        lines = (tmp_path / "runs" / "train-0001" / "history.csv").read_text().splitlines()
        assert lines[0] == "epoch,train_loss,val_loss,val_acc"
        assert len(lines) == 3
        cells = lines[1].split(",")
        assert int(cells[0]) == 1
        assert float(cells[1]) == history[0].train_loss
        assert lines[1:] == [",".join(map(str, row)) for row in history]


class TestOnEpoch:
    def test_called_once_per_epoch_with_the_rows_history_csv_gets(self, tmp_path, monkeypatch):
        """`cli train` writes history.csv from exactly the rows its on_epoch is handed."""
        calls = []
        real = reviewlab.cli.train

        def recorded(config, train_split, validation, emb, on_epoch):
            def record(stats, *arrays):
                calls.append(stats)
                on_epoch(stats, *arrays)
            return real(config, train_split, validation, emb, record)

        monkeypatch.setattr(reviewlab.cli, "train", recorded)
        data, cfg = tmp_path / "reviews.csv", tmp_path / "toy.cfg"
        write_csv(toy_reviews(), data)
        cfg.write_text("".join(f"{k}={v}\n" for k, v in toy_config(epochs=3).as_dict().items()))
        assert main(["train", "--data", str(data), "--out", str(tmp_path / "runs"),
                     "--config", str(cfg)]) == 0
        lines = (tmp_path / "runs" / "train-0001" / "history.csv").read_text().splitlines()
        assert [stats.epoch for stats in calls] == [1, 2, 3]
        assert lines[1:] == [",".join(map(str, stats)) for stats in calls]

    @pytest.mark.parametrize("task", sorted(TASK_CLASSES))
    def test_handed_the_live_arrays_train_returns(self, task):
        """Each call gets the very model and table `train` returns, not copies: the hook
        copies nothing, and a caller that keeps them must copy them."""
        config, splits, _, emb = prepared_toy(task=task, epochs=3)
        handed = []
        model, table = train(config, *splits[:2], emb,
                             lambda stats, model, table: handed.append((model, table)))
        assert len(handed) == 3
        for got_model, got_table in handed:
            assert got_model is model and got_table is table

    def test_callback_sees_the_callers_float_settings(self):
        """The epoch's np.errstate(over="raise", invalid="raise") is left before on_epoch."""
        config, splits, _, emb = prepared_toy(epochs=2)
        seen = []
        with np.errstate(all="ignore"):
            outer = np.geterr()
            train(config, *splits[:2], emb, lambda stats, *_: seen.append(np.geterr()))
        assert seen == [outer, outer]

    def test_callbacks_float_error_is_not_a_diverged_run(self):
        """A FloatingPointError of on_epoch's own propagates as itself, after one epoch."""
        config, splits, _, emb = prepared_toy(epochs=3)
        calls = []

        def on_epoch(stats, *_):
            calls.append(stats)
            with np.errstate(over="raise"):
                np.float32(3e38) * np.float32(10)

        with pytest.raises(FloatingPointError, match="overflow") as raised:
            train(config, *splits[:2], emb, on_epoch)
        assert type(raised.value) is FloatingPointError
        assert [stats.epoch for stats in calls] == [1]


# CPython 3.10 keeps a call's arguments on the caller's stack until the call returns.
@pytest.mark.skipif(sys.version_info < (3, 11), reason="a 3.10 call holds its arguments")
class TestFloat64TableFreed:
    def test_dead_at_every_on_epoch(self):
        """A table the caller hands over, keeping only a weakref, is freed once train has
        cast it: the reference is dead at every on_epoch."""
        config, splits, vocab, _ = prepared_toy(epochs=3)
        tables = [random_embeddings(len(vocab) + 2, config.embedding_dim, SeededRng(5))]
        table = weakref.ref(tables[0])
        alive = []
        # No *args: a call through an argument tuple holds the table until it returns.
        train(config, splits[0], splits[1], tables.pop(),
              lambda stats, *_: alive.append(table() is not None))
        assert alive == [False] * 3

    def test_cli_train_holds_no_name_to_it(self, tmp_path, monkeypatch):
        """`cli train` keeps no name bound to its float64 table: at every Adam step the
        table `random_embeddings` drew is dead."""
        drawn, alive = [], []
        real_draw, real_step = reviewlab.cli.random_embeddings, reviewlab.training.adam_step

        def draw(*args):
            table = real_draw(*args)
            drawn.append(weakref.ref(table))
            return table

        def adam_step(*args):
            alive.append(drawn[0]() is not None)
            real_step(*args)

        monkeypatch.setattr(reviewlab.cli, "random_embeddings", draw)
        monkeypatch.setattr(reviewlab.training, "adam_step", adam_step)
        data, cfg = tmp_path / "reviews.csv", tmp_path / "toy.cfg"
        write_csv(toy_reviews(), data)
        cfg.write_text("".join(f"{k}={v}\n" for k, v in toy_config(epochs=2).as_dict().items()))
        assert main(["train", "--data", str(data), "--out", str(tmp_path / "runs"),
                     "--config", str(cfg)]) == 0
        assert len(drawn) == 1 and alive and not any(alive)
