"""Training loop, evaluation pass, and inference entry points.

`tokenized_splits` gives each split of the 60/20/20 split as its token
lists and labels, tokenizing only the splits its caller reads. A split
that `train` or `evaluate` reads is a plain (indices, labels) pair: an
(N, width) int64 index matrix from `textprep.build_vocab` (training,
validation) or `textprep.encode`, post-padded with PAD_INDEX to its
longest row, and an (N,) int64 label array. Every batch is cut to its
longest review before it is embedded. The class names come from
TrainConfig. `evaluate` returns the `metrics.json` report dict and
`predict` the `prediction.json` dict, which the CLI writes as they are.

`tokenized_splits` also returns `data_sha256`, the sha256 of the kept
records' (row_id, review_text, label) in file order; a checkpoint stores
it, so `evaluate` can refuse another CSV or sentiment lexicon.

One seeded RNG drives everything in a fixed order: parameter
initialization first, then per-epoch shuffles interleaved with
per-batch dropout masks. Single-threaded runs with the same config,
data, and seed therefore reproduce losses bit-for-bit. The embedding
table is fine-tuned alongside the recurrent weights; its padding row
receives no gradient and stays zero.

`batch_gradients` is one batch's step: the mean loss and the seven gradients, the
table's last.  `train` loops it over shuffled batches, then clips and steps Adam, and
hands on_epoch the live model and table, which the next epoch updates in place (copy
them to keep them).  Its epochs, `evaluate` and `predict` compute under
np.errstate(over="raise", invalid="raise"), so an overflow raises InputError there.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass
from itertools import chain, count
from typing import NamedTuple

import numpy as np

from .checkpoint import TASK_CLASSES, ModelBundle
from .dataset import filter_for_classification, split_60_20_20
from .errors import InputError
from .metrics import build_report, confusion_matrix
from .nn import (
    BiLstmClassifier,
    adam_step,
    backward,
    batch_cross_entropy,
    batch_cross_entropy_grad,
    clip_by_global_norm,
    forward,
)
from .rng import SeededRng
from .sentiment import auto_label_dataset
from .textprep import PAD_INDEX, embed_batch, encode, tokenize

__all__ = [
    "EpochStats",
    "TrainConfig",
    "batch_gradients",
    "class_probabilities",
    "evaluate",
    "predict",
    "tokenized_splits",
    "train",
]

@dataclass(frozen=True)
class TrainConfig:
    """Hyper-parameters; the defaults are the full-scale reference setting."""

    batch_size: int = 256
    cell_size: int = 256
    dropout_rate: float = 0.50
    epochs: int = 32
    learning_rate: float = 1e-3
    seq_len: int = 120
    vocab_size: int = 20_000
    min_freq: int = 2
    embedding_dim: int = 50
    seed: int = 0
    task: str = "recommendation"
    grad_clip: float = 5.0

    def __post_init__(self):
        for field in ("batch_size", "cell_size", "seq_len", "embedding_dim", "min_freq"):
            if getattr(self, field) < 1:
                raise ValueError(f"{field} must be >= 1, got {getattr(self, field)}")
        if self.vocab_size < 2:
            raise ValueError(f"vocab_size must be >= 2, got {self.vocab_size}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(
                f"learning_rate must be finite and positive, got {self.learning_rate}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError(f"dropout_rate must lie in [0, 1), got {self.dropout_rate}")
        if not self.grad_clip > 0:  # inf turns clipping off; NaN fails
            raise ValueError(f"grad_clip must be positive, got {self.grad_clip}")
        if self.task not in TASK_CLASSES:
            raise ValueError(f"unknown task {self.task!r}, expected one of {tuple(TASK_CLASSES)}")

    @property
    def class_names(self) -> tuple:
        return TASK_CLASSES[self.task]

    def as_dict(self) -> dict:
        return asdict(self)


class EpochStats(NamedTuple):
    epoch: int
    train_loss: float
    val_loss: float
    val_acc: float


def tokenized_splits(records, config: TrainConfig, lexicon: dict, reads):
    """Filter, split 60/20/20 with config.seed, and label each review.

    reads numbers the splits (0 train, 1 validation, 2 test) whose token
    lists the caller reads; each of their reviews is tokenized once, and
    the other splits carry None for their token lists.  Recommendation
    labels need no tokens; sentiment labels tokenize every review and are
    each `auto_label_dataset` label's index in config.class_names.
    Returns ((token_lists, labels) of train, validation and test, dropped, data_sha256).
    """
    kept, dropped = filter_for_classification(records)
    split_rows = split_60_20_20(kept, config.seed)
    token_lists = [None] * len(kept)
    tokenized = (range(len(kept)) if config.task == "sentiment"
                 else chain.from_iterable(split_rows[i] for i in reads))
    for i in tokenized:
        token_lists[i] = tokenize(kept[i].review_text)
    labels = ([config.class_names.index(y) for y in auto_label_dataset(token_lists, lexicon)[0]]
              if config.task == "sentiment" else [r.recommended for r in kept])
    identity = [(r.row_id, r.review_text, y) for r, y in zip(kept, labels)]
    data_sha256 = hashlib.sha256(json.dumps(identity).encode("utf-8")).hexdigest()
    labels = np.asarray(labels, dtype=np.int64)
    splits = tuple(([token_lists[i] for i in rows] if number in reads else None,
                    labels[list(rows)]) for number, rows in enumerate(split_rows))
    return splits, dropped, data_sha256


def _trimmed(idx: np.ndarray):
    """A batch cut to its longest row (at least one step), and each row's length."""
    lengths = (idx != PAD_INDEX).sum(axis=1)
    return idx[:, :max(1, lengths.max())], lengths


def class_probabilities(model: BiLstmClassifier, table: np.ndarray, indices: np.ndarray,
                        batch_size: int) -> np.ndarray:
    """Eval-mode softmax outputs (N, C) for an (N, T) index matrix, in row order."""
    out = np.empty((len(indices), model.n_classes))
    for start in range(0, len(indices), batch_size):
        idx, lengths = _trimmed(indices[start:start + batch_size])
        out[start:start + len(idx)] = forward(model, embed_batch(idx, table), lengths)[0]
    return out


def batch_gradients(model: BiLstmClassifier, table: np.ndarray, idx: np.ndarray, targets,
                    dropout_rate: float, rng: SeededRng):
    """One training batch's mean loss and gradients: (loss, grads).

    idx is the batch's (B, T) index matrix, cut here to its longest row,
    and rng draws the dropout mask.  grads is the six param_blocks()
    gradients followed by the table's, whose padding row is zero.
    """
    idx, lengths = _trimmed(idx)
    probs, cache = forward(model, embed_batch(idx, table), lengths,
                           dropout_rate=dropout_rate, rng=rng, training=True)
    grads, dx = backward(model, cache, batch_cross_entropy_grad(probs, targets))
    del cache  # the forward activations, freed before the table-sized dE allocates
    dE = np.zeros_like(table)
    words = idx.T.ravel()  # step-major, as backward orders dx; PAD_INDEX's row stays zero
    np.add.at(dE, words[words != PAD_INDEX], dx)
    return batch_cross_entropy(probs, targets), grads + [dE]


def train(config: TrainConfig, train_split, validation, embeddings: np.ndarray, on_epoch):
    """Mini-batch training with Adam and global-norm gradient clipping.

    train_split and validation are (indices, labels) pairs, and embeddings is a
    (vocab_size, config.embedding_dim) table.  The model and a float32 copy of the table
    are trained; losses and probabilities are float64.  embeddings is released once cast,
    before the Adam moments allocate, so a caller that holds no other reference to it
    frees it for the run.  After each epoch, outside its np.errstate, train calls
    on_epoch(stats, model, table) with the EpochStats row and the live arrays it returns,
    not copies: the next epoch updates them in place, so a caller that keeps them copies
    them.  Returns the final-epoch model (no early stopping) and the trained table.  An
    overflow or invalid value raises InputError naming numpy's message, the epoch, the
    batch (or the validation pass after the epoch's last batch) and learning_rate,
    rather than letting a diverged run continue silently.
    """
    (idx_all, labels_all), (val_idx, val_labels) = train_split, validation

    rng = SeededRng(config.seed)
    # The float64 draws are cast once; every buffer then follows the arrays' float32.
    model = BiLstmClassifier(*(a.astype(np.float32) for a in BiLstmClassifier.build(
        config.cell_size, config.embedding_dim, len(config.class_names), rng
    )))
    table = embeddings.astype(np.float32)
    del embeddings  # freed here unless the caller holds it: not counted by _check_memory
    params = [p for _, p in model.param_blocks()] + [table]
    moments = [(np.zeros_like(p), np.zeros_like(p)) for p in params]
    updates = count(1)

    n = len(labels_all)
    for epoch in range(1, config.epochs + 1):
        try:
            with np.errstate(over="raise", invalid="raise"):
                order = list(range(n))
                rng.shuffle(order)
                epoch_loss = 0.0
                for number, start in enumerate(range(0, n, config.batch_size), start=1):
                    where = f"batch {number}"
                    batch = order[start:start + config.batch_size]
                    loss, grads = batch_gradients(model, table, idx_all[batch],
                                                  labels_all[batch], config.dropout_rate, rng)
                    clipped, _ = clip_by_global_norm(grads, config.grad_clip)
                    adam_step(params, clipped, moments, next(updates), config.learning_rate)
                    del grads, clipped  # freed before the next batch's forward pass allocates
                    epoch_loss += loss * len(batch)
                where = "after its last batch"
                val_probs = class_probabilities(model, table, val_idx, config.batch_size)
                stats = EpochStats(
                    epoch=epoch, train_loss=epoch_loss / n,
                    val_loss=batch_cross_entropy(val_probs, val_labels),
                    val_acc=float(np.mean(val_probs.argmax(axis=1) == val_labels)))
        except FloatingPointError as exc:
            raise InputError(f"training diverged: {exc} at epoch {epoch}, {where}; "
                             f"lower learning_rate (now {config.learning_rate!r})") from exc
        on_epoch(stats, model, table)
    return model, table


def _scored(model, table: np.ndarray, indices: np.ndarray, batch_size: int) -> np.ndarray:
    """class_probabilities, refusing a model whose finite weights overflow."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            return class_probabilities(model, table, indices, batch_size)
    except FloatingPointError as exc:
        raise InputError("the model's probabilities are not finite: its weights overflow") from exc


def evaluate(model, embeddings: np.ndarray, split,
             batch_size: int, class_names) -> tuple[dict, np.ndarray]:
    """Argmax predictions over an (indices, labels) split: (metrics report dict,
    probabilities (N, C))."""
    indices, labels = split
    probs = _scored(model, embeddings, indices, batch_size)
    confusion = confusion_matrix(labels, probs.argmax(axis=1), len(class_names))
    report = build_report(confusion, class_names, batch_cross_entropy(probs, labels))
    return report, probs


def predict(bundle: ModelBundle, text: str) -> dict:
    """Label one raw text with the bundle's model and vocabulary.

    Returns the `prediction.json` dict: label, label_index, probabilities
    per class name, and empty_input. Text with no tokens is still scored
    (an all-padding sequence) but flagged as empty input.
    """
    tokens = tokenize(text)
    indices = encode([tokens], bundle.vocab, bundle.seq_len)
    probs = _scored(bundle.model, bundle.embeddings, indices, batch_size=1)[0].tolist()
    label_index = int(np.argmax(probs))
    return {
        "label": bundle.class_names[label_index],
        "label_index": label_index,
        "probabilities": dict(zip(bundle.class_names, probs)),
        "empty_input": not tokens,
    }
