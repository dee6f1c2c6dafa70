"""Deterministic model checkpoints: one file holds the whole model.

A checkpoint is a single binary file: a magic line, one JSON metadata
line, then the seven model arrays as raw little-endian float32 bytes,
the dtype `training.train` computes in.
Format 6's metadata holds only what the arrays cannot: the task, seq_len,
the seed of the 60/20/20 split the model was trained on, cell_size,
embedding_dim, the vocabulary's words (every token after `<pad>` and
`<oov>`, in index order), and `data_sha256`, the fingerprint of the data
the model was trained on (`training.tokenized_splits`). The file stores
no layout: the arrays are the (len(vocab), embedding_dim) embedding
table and then the model's six arrays in `BiLstmClassifier` field order,
whose shapes `nn.block_shapes` derives from cell_size, embedding_dim and
the task's class count; the loaded model is those six arrays, in
float32.  Other formats, such as format 5 with its float64 blocks, are
rejected; retrain to upgrade. The format contains no
timestamps, so saving the same bundle twice produces byte-identical
files.
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
from .textprep import PAD_INDEX, Vocab

__all__ = ["MAGIC", "TASK_CLASSES", "ModelBundle", "load_checkpoint", "save_checkpoint"]

# The container's magic line; the metadata's "format" versions its contents.
MAGIC = b"reviewlab-checkpoint-v1\n"
FORMAT = 6

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
    vocab: Vocab
    model: BiLstmClassifier
    embeddings: np.ndarray  # (len(vocab), D); the PAD_INDEX row is zero
    data_sha256: str

    @property
    def class_names(self) -> tuple:
        return TASK_CLASSES[self.task]


def save_checkpoint(bundle: ModelBundle, path) -> None:
    """Write the bundle to `path`; identical bundles give identical bytes."""
    meta = {
        "format": FORMAT,
        "task": bundle.task,
        "seq_len": bundle.seq_len,
        "seed": bundle.seed,
        "cell_size": bundle.model.cell_size,
        "embedding_dim": bundle.embeddings.shape[1],
        "vocab": bundle.vocab.tokens()[2:],
        "data_sha256": bundle.data_sha256,
    }
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(json.dumps(meta, sort_keys=True).encode("utf-8"))
        fh.write(b"\n")
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
    "vocab": (lambda v: isinstance(v, list) and set(map(type, v)) <= {str}, "a list of strings"),
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
        for field, (ok, what) in _FIELDS.items():
            if not ok(meta.get(field)):
                raise InputError(
                    f"{path}: inconsistent checkpoint contents: {field!r} must be "
                    f"{what}, got {meta.get(field)!r:.60}"
                )
        try:
            vocab = Vocab(meta["vocab"])
        except ValueError as exc:
            raise InputError(f"{path}: inconsistent checkpoint contents: {exc}") from exc

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
