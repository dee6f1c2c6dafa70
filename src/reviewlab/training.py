"""Training loop, evaluation pass, and inference entry points.

Each split holds its encoded reviews as one (N, seq_len) int64 index
matrix, post-padded with PAD_INDEX, next to an (N,) int64 label array;
`textprep.encode` builds the matrix for training, evaluation and
`predict` alike. Every batch is cut to its longest review before it is
embedded. The class count and class names come from TrainConfig.
`evaluate` returns the `metrics.json` report dict and `predict` the
`prediction.json` dict, which the CLI writes as they are.

`tokenized_splits` also returns `data_sha256`, the sha256 of the kept
records' (row_id, review_text, label) in file order; a checkpoint stores
it, so `evaluate` can refuse another CSV or sentiment lexicon.

One seeded RNG drives everything in a fixed order: parameter
initialization first, then per-epoch shuffles interleaved with
per-batch dropout masks. Single-threaded runs with the same config,
data, and seed therefore reproduce losses bit-for-bit. The embedding
table is fine-tuned alongside the recurrent weights; its padding row
receives no gradient and stays zero.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from .checkpoint import TASK_CLASSES, ModelBundle
from .dataset import filter_for_classification, split_60_20_20
from .errors import InputError
from .metrics import build_report, confusion_matrix
from .nn import (
    AdamState,
    BiLstmClassifier,
    adam_step,
    backward,
    batch_cross_entropy,
    batch_cross_entropy_grad,
    clip_by_global_norm,
    forward,
)
from .rng import SeededRng
from .sentiment import BUILTIN_LEXICON, score_text
from .textprep import (
    PAD_INDEX,
    Vocab,
    build_vocab,
    embed_batch,
    encode,
    tokenize,
)

__all__ = [
    "EpochStats",
    "LabeledSplit",
    "PreparedData",
    "TrainConfig",
    "TrainResult",
    "build_training_data",
    "class_probabilities",
    "evaluate",
    "predict",
    "task_labels",
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
    def n_classes(self) -> int:
        return len(self.class_names)

    @property
    def class_names(self) -> tuple:
        return TASK_CLASSES[self.task]

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class LabeledSplit:
    """Encoded reviews: an (N, seq_len) int64 index matrix and (N,) int64 labels."""

    indices: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        if self.indices.ndim != 2:
            raise ValueError(f"indices must be 2-D, got shape {self.indices.shape}")
        if self.labels.ndim != 1:
            raise ValueError(f"labels must be 1-D, got shape {self.labels.shape}")
        if len(self.indices) != len(self.labels):
            raise ValueError(f"{len(self.indices)} index rows but {len(self.labels)} labels")

    def __len__(self) -> int:
        return len(self.labels)


class EpochStats(NamedTuple):
    epoch: int
    train_loss: float
    val_loss: float
    val_acc: float


@dataclass(frozen=True)
class TrainResult:
    model: BiLstmClassifier
    embeddings: np.ndarray
    history: tuple


def task_labels(records, token_lists, task: str, lexicon=BUILTIN_LEXICON) -> np.ndarray:
    """(N,) int64 class index per record: recommendation flag, or lexicon sentiment.

    The sentiment of record i is scored from token_lists[i], its tokenized
    review text.  Index i names TASK_CLASSES[task][i].
    """
    if task == "recommendation":
        labels = [int(r.recommended) for r in records]
    elif task == "sentiment":
        labels = [TASK_CLASSES[task].index(score_text(t, lexicon).label) for t in token_lists]
    else:
        raise ValueError(f"unknown task {task!r}, expected one of {tuple(TASK_CLASSES)}")
    return np.asarray(labels, dtype=np.int64)


@dataclass(frozen=True)
class PreparedData:
    """Everything `train` needs, derived from raw records; the test split is left out."""

    train: LabeledSplit
    validation: LabeledSplit
    vocab: Vocab
    dropped: int
    data_sha256: str


def tokenized_splits(records, config: TrainConfig, lexicon=BUILTIN_LEXICON):
    """Filter, split 60/20/20 with config.seed, and tokenize and label each review once.

    Returns ((token_lists, labels) of train, validation and test, dropped,
    data_sha256).
    """
    kept, dropped = filter_for_classification(records)
    token_lists = [tokenize(r.review_text) for r in kept]
    labels = task_labels(kept, token_lists, config.task, lexicon)
    identity = [(r.row_id, r.review_text, y) for r, y in zip(kept, labels.tolist())]
    data_sha256 = hashlib.sha256(json.dumps(identity).encode("utf-8")).hexdigest()
    splits = tuple(([token_lists[i] for i in rows], labels[list(rows)])
                   for rows in split_60_20_20(kept, config.seed))
    return splits, dropped, data_sha256


def build_training_data(records, config: TrainConfig, lexicon=BUILTIN_LEXICON) -> PreparedData:
    """Tokenize and split the records, build the vocabulary, and encode the
    training and validation splits.

    The vocabulary is built from the training split only, so validation
    and test tokens unseen in training map to the out-of-vocabulary index.
    """
    splits, dropped, data_sha256 = tokenized_splits(records, config, lexicon)
    vocab = build_vocab(splits[0][0], min_freq=config.min_freq, max_size=config.vocab_size)
    encoded = [LabeledSplit(encode(tokens, vocab, config.seq_len), labels)
               for tokens, labels in splits[:2]]
    return PreparedData(*encoded, vocab=vocab, dropped=dropped, data_sha256=data_sha256)


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


def train(config: TrainConfig, prep: PreparedData, embeddings: np.ndarray) -> TrainResult:
    """Mini-batch training with Adam and global-norm gradient clipping.

    The model and a copy of the caller's embedding table are trained in
    float32; losses and probabilities are float64.  Returns the
    final-epoch model (no early stopping) plus one EpochStats row per
    epoch.  A non-finite loss or gradient norm raises InputError naming
    the epoch, the batch and learning_rate, rather than letting a
    diverged run continue silently.
    """
    if len(prep.train) == 0:
        raise InputError("training split is empty")
    if len(prep.validation) == 0:
        raise InputError("validation split is empty")
    if embeddings.shape[1] != config.embedding_dim:
        raise ValueError(
            f"embedding dim {embeddings.shape[1]} does not match config "
            f"embedding_dim {config.embedding_dim}"
        )

    rng = SeededRng(config.seed)
    # The float64 draws are cast once; every buffer then follows the arrays' float32.
    model = BiLstmClassifier(*(a.astype(np.float32) for a in BiLstmClassifier.build(
        config.cell_size, config.embedding_dim, config.n_classes, rng
    )))
    table = embeddings.astype(np.float32)
    params = [p for _, p in model.param_blocks()] + [table]
    adam = AdamState.for_params(params)
    idx_all, labels_all = prep.train.indices, prep.train.labels
    val = prep.validation

    def diverged(what: str, value: float, where: str) -> InputError:
        return InputError(f"training diverged: non-finite {what} {value!r} at {where}; "
                          f"lower learning_rate (now {config.learning_rate!r})")

    def step(batch, where: str) -> float:
        # One update. The BPTT cache and gradients are locals, so they are
        # freed before the next batch's forward pass allocates its own.
        (idx, lengths), targets = _trimmed(idx_all[batch]), labels_all[batch]
        probs, cache = forward(
            model, embed_batch(idx, table), lengths, dropout_rate=config.dropout_rate,
            rng=rng, training=True,
        )
        loss = batch_cross_entropy(probs, targets)
        if not math.isfinite(loss):
            raise diverged("training loss", loss, where)
        grads, dx = backward(model, cache, batch_cross_entropy_grad(probs, targets))
        dE = np.zeros_like(table)
        np.add.at(dE, idx.T, dx)
        dE[PAD_INDEX] = 0.0
        clipped, norm = clip_by_global_norm(grads + [dE], config.grad_clip)
        if not math.isfinite(norm):
            raise diverged("gradient norm", norm, where)
        adam_step(params, clipped, adam, config.learning_rate)
        return loss

    n = len(prep.train)
    history = []
    for epoch in range(1, config.epochs + 1):
        order = list(range(n))
        rng.shuffle(order)
        epoch_loss = 0.0
        for number, start in enumerate(range(0, n, config.batch_size), start=1):
            batch = order[start:start + config.batch_size]
            epoch_loss += step(batch, f"epoch {epoch}, batch {number}") * len(batch)
        val_probs = class_probabilities(model, table, val.indices, config.batch_size)
        val_loss = batch_cross_entropy(val_probs, val.labels)
        if not math.isfinite(val_loss):  # the epoch's last update overflowed
            raise diverged("validation loss", val_loss, f"epoch {epoch}, after its last batch")
        history.append(
            EpochStats(
                epoch=epoch,
                train_loss=epoch_loss / n,
                val_loss=val_loss,
                val_acc=float(np.mean(val_probs.argmax(axis=1) == val.labels)),
            )
        )

    return TrainResult(
        model=model,
        embeddings=table,
        history=tuple(history),
    )


def evaluate(model, embeddings: np.ndarray, split: LabeledSplit,
             batch_size: int, class_names) -> tuple[dict, np.ndarray]:
    """Argmax predictions over a split: (metrics report dict, probabilities (N, C))."""
    if len(split) == 0:
        raise InputError("evaluation split is empty")
    probs = class_probabilities(model, embeddings, split.indices, batch_size)
    confusion = confusion_matrix(split.labels, probs.argmax(axis=1), len(class_names))
    report = build_report(confusion, class_names, batch_cross_entropy(probs, split.labels))
    return report, probs


def predict(bundle: ModelBundle, text: str) -> dict:
    """Label one raw text with the bundle's model and vocabulary.

    Returns the `prediction.json` dict: label, label_index, probabilities
    per class name, and empty_input. Text with no tokens is still scored
    (an all-padding sequence) but flagged as empty input.
    """
    tokens = tokenize(text)[:bundle.seq_len]
    probs = class_probabilities(
        bundle.model, bundle.embeddings,
        encode([tokens], bundle.vocab, max(1, len(tokens))), batch_size=1,
    )[0].tolist()
    label_index = int(np.argmax(probs))
    return {
        "label": bundle.class_names[label_index],
        "label_index": label_index,
        "probabilities": dict(zip(bundle.class_names, probs)),
        "empty_input": not tokens,
    }
