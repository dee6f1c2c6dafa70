"""Deterministic model checkpoints: one file holds the whole model.

A checkpoint is a single binary file: a magic line, one JSON metadata
line, one vocabulary line, then the seven model arrays as raw
little-endian float32 bytes, the dtype `training.train` computes in.
Format 7's metadata holds only what the arrays cannot: the task, seq_len,
the seed of the 60/20/20 split the model was trained on, cell_size,
embedding_dim and `data_sha256`, the fingerprint of the data the model
was trained on (`training.tokenized_splits`); a `vocab` field, where
format 6 kept the words, is refused. The vocabulary line joins
its words (every token after `<pad>` and `<oov>`, in index order) with
single spaces, in UTF-8, so no word may be empty or hold whitespace;
`textprep.tokenize` makes none that is. The file stores no layout: the
arrays are the (len(vocab), embedding_dim) embedding table and then the
model's six arrays in `BiLstmClassifier` field order, whose shapes
`nn.block_shapes` derives from cell_size, embedding_dim and the task's
class count; the loaded model is those six arrays, in float32.  Other
formats, such as format 6 with its vocabulary in the metadata, are
rejected; retrain to upgrade. Saving the same bundle twice produces
byte-identical files.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .nn import BiLstmClassifier, block_shapes
from .sentiment import SENTIMENT_CLASSES
from .textprep import PAD_INDEX, vocab_index

__all__ = ["MAGIC", "TASK_CLASSES", "ModelBundle", "load_checkpoint", "save_checkpoint"]

# The container's magic line; the metadata's "format" versions its contents.
MAGIC = b"reviewlab-checkpoint-v1\n"
FORMAT = 7

# Each task and the names of its classes, in label-index order.
TASK_CLASSES = {
    "recommendation": ("not_recommended", "recommended"),
    "sentiment": SENTIMENT_CLASSES,
}


@dataclass(frozen=True)
class ModelBundle:
    """Everything inference and evaluation need: model, embedding table, vocabulary, split seed."""

    task: str
    seq_len: int
    seed: int
    vocab: dict  # token -> index, in index order (`textprep.vocab_index`)
    model: BiLstmClassifier
    embeddings: np.ndarray  # (len(vocab), D); the PAD_INDEX row is zero
    data_sha256: str

    @property
    def class_names(self) -> tuple:
        return TASK_CLASSES[self.task]


def save_checkpoint(bundle: ModelBundle, path) -> None:
    """Write the bundle to `path`; a word the vocabulary line cannot hold raises ValueError."""
    words = list(bundle.vocab)[2:]
    if bad := [w for w in words if w.split() != [w]]:
        raise ValueError(f"vocabulary word {bad[0]!r} is empty or holds whitespace")
    meta = {
        "format": FORMAT,
        "task": bundle.task,
        "seq_len": bundle.seq_len,
        "seed": bundle.seed,
        "cell_size": bundle.model.cell_size,
        "embedding_dim": bundle.embeddings.shape[1],
        "data_sha256": bundle.data_sha256,
    }
    # Encoded before the file is opened: a word UTF-8 cannot hold raises with no file left.
    head = MAGIC + f"{json.dumps(meta, sort_keys=True)}\n{' '.join(words)}\n".encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(head)
        for a in (bundle.embeddings, *(a for _, a in bundle.model.param_blocks())):
            fh.write(np.ascontiguousarray(a).astype("<f4", copy=False).tobytes())


def _is_size(value) -> bool:
    return type(value) is int and value >= 1


# Metadata field -> (check, what the field must be).
_FIELDS = {
    "task": (lambda v: isinstance(v, str) and v in TASK_CLASSES,
             f"one of {', '.join(TASK_CLASSES)}"),
    "seq_len": (_is_size, "an integer >= 1"),
    "seed": (lambda v: type(v) is int, "an integer"),
    "cell_size": (_is_size, "an integer >= 1"),
    "embedding_dim": (_is_size, "an integer >= 1"),
    "data_sha256": (lambda v: isinstance(v, str), "a string"),
}


def load_checkpoint(path) -> ModelBundle:
    """Read a checkpoint, validating its metadata and its arrays.

    Every field is checked before anything is allocated, and the file
    size against the shapes the fields give. The arrays are then read
    straight into one float32 buffer and returned as views of it, with
    no copy of the whole file: a load makes one allocation of the
    model's size, so repeated loads in one process reuse the same memory
    instead of faulting in fresh pages for each copy.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if fh.read(len(MAGIC)) != MAGIC:
            raise InputError(f"{path}: not a checkpoint file (bad magic)")
        header = fh.readline()
        if not header.endswith(b"\n"):
            raise InputError(f"{path}: truncated checkpoint header")
        try:
            meta = json.loads(header.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
            raise InputError(f"{path}: unreadable checkpoint metadata: {exc}") from exc
        if not isinstance(meta, dict):
            raise InputError(f"{path}: checkpoint metadata must be a JSON object")
        if meta.get("format") != FORMAT:
            raise InputError(f"{path}: unsupported checkpoint format {meta.get('format')!r}; "
                             f"retrain to upgrade to format {FORMAT}")
        if "vocab" in meta:  # format 6's field: relabelling such a file does not upgrade it
            raise InputError(f"{path}: inconsistent checkpoint contents: 'vocab' must be "
                             f"absent; format {FORMAT} keeps the vocabulary on its own line")
        for field, (ok, what) in _FIELDS.items():
            if not ok(meta.get(field)):
                raise InputError(
                    f"{path}: inconsistent checkpoint contents: {field!r} must be "
                    f"{what}, got {meta.get(field)!r:.60}"
                )
        try:  # a line cut short leaves no payload, which the size check refuses
            vocab = vocab_index(fh.readline().decode("utf-8").split())
        except ValueError as exc:  # UnicodeDecodeError included
            raise InputError(f"{path}: bad checkpoint vocabulary line: {exc}") from exc

        task, H, D = meta["task"], meta["cell_size"], meta["embedding_dim"]
        shapes = [(len(vocab), D), *block_shapes(H, D, len(TASK_CLASSES[task]))]
        sizes = [math.prod(shape) for shape in shapes]
        need, left = 4 * sum(sizes), size - fh.tell()
        if need != left:
            raise InputError(
                f"{path}: {'truncated' if left < need else 'trailing bytes in'} checkpoint "
                f"payload: {left} bytes, where vocab, embedding_dim, cell_size and "
                f"task give {need}"
            )
        flat = np.empty(sum(sizes), dtype="<f4")
        if fh.readinto(flat) != need:
            raise InputError(f"{path}: truncated checkpoint payload")

    arrays, start = [], 0
    for shape, n in zip(shapes, sizes):
        arrays.append(flat[start:start + n].reshape(shape))
        start += n
    table = arrays[0]
    model = BiLstmClassifier(*arrays[1:])
    for name, a in [("embeddings", table), *model.param_blocks()]:
        if not np.isfinite(a).all():
            raise InputError(f"{path}: block {name!r} contains non-finite values")
    if np.any(table[PAD_INDEX] != 0.0):
        raise InputError(f"{path}: the padding row of block 'embeddings' must be zero")
    return ModelBundle(task=task, seq_len=meta["seq_len"], seed=meta["seed"], vocab=vocab,
                       model=model, embeddings=table, data_sha256=meta["data_sha256"])
