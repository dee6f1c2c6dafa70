"""Deterministic model checkpoints: one file holds the whole model.

A checkpoint is a single binary file: a magic line, one JSON metadata
line (format, task, class names, sizes, split seed, vocabulary, block
shapes), then the parameter blocks as raw little-endian float64 bytes in
the order the metadata declares. Format 4 stores the vocabulary's words
(every token after `<pad>` and `<oov>`, in index order) and the seed of
the 60/20/20 split the model was trained on, so evaluation can rebuild
that split. It holds seven blocks: the embedding table and the six model
arrays (per LSTM direction one fused W and b, then the head's W and b);
a 1-D bias is listed as n rows by 1 column. Format 3 kept the vocabulary
in a separate file; it and other formats are rejected. The format
contains no timestamps, so saving the same bundle twice produces
byte-identical files.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .nn import BiLstmClassifier, DenseParams, LstmParams
from .textprep import EmbeddingMatrix, Vocab

__all__ = ["MAGIC", "ModelBundle", "load_checkpoint", "save_checkpoint"]

# The container's magic line; the metadata's "format" versions its contents.
MAGIC = b"reviewlab-checkpoint-v1\n"
FORMAT = 4

TASKS = ("recommendation", "sentiment")


@dataclass(frozen=True)
class ModelBundle:
    """Everything inference and evaluation need: model, embeddings, vocabulary, split seed."""

    task: str
    class_names: tuple
    seq_len: int
    seed: int
    vocab: Vocab
    model: BiLstmClassifier
    embeddings: EmbeddingMatrix

    def __post_init__(self):
        if self.task not in TASKS:
            raise ValueError(f"unknown task {self.task!r}, expected one of {TASKS}")
        if len(self.class_names) != self.model.head.n_classes:
            raise ValueError(
                f"{len(self.class_names)} class names for a "
                f"{self.model.head.n_classes}-class head"
            )
        if self.seq_len < 1:
            raise ValueError(f"seq_len must be >= 1, got {self.seq_len}")
        if self.embeddings.dim != self.model.input_size:
            raise ValueError(
                f"embedding dim {self.embeddings.dim} does not match model "
                f"input size {self.model.input_size}"
            )
        if len(self.vocab) != self.embeddings.vocab_size:
            raise ValueError(
                f"{len(self.vocab)} vocabulary tokens for "
                f"{self.embeddings.vocab_size} embedding rows"
            )

    @property
    def cell_size(self) -> int:
        return self.model.cell_size

    @property
    def embedding_dim(self) -> int:
        return self.embeddings.dim

    @property
    def n_classes(self) -> int:
        return self.model.head.n_classes


def save_checkpoint(bundle: ModelBundle, path) -> None:
    """Write the bundle to `path`; identical bundles give identical bytes."""
    blocks = [("embeddings", bundle.embeddings.table), *bundle.model.param_blocks()]
    meta = {
        "format": FORMAT,
        "task": bundle.task,
        "class_names": list(bundle.class_names),
        "seq_len": bundle.seq_len,
        "cell_size": bundle.cell_size,
        "embedding_dim": bundle.embedding_dim,
        "seed": bundle.seed,
        "vocab": bundle.vocab.tokens()[2:],
        "blocks": [[name, len(a), a.shape[1] if a.ndim == 2 else 1] for name, a in blocks],
    }
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(json.dumps(meta, sort_keys=True).encode("utf-8"))
        fh.write(b"\n")
        for _, a in blocks:
            fh.write(np.ascontiguousarray(a).astype("<f8", copy=False).tobytes())


_BLOCK_NAMES = ("embeddings", "fwd.W", "fwd.b", "bwd.W", "bwd.b", "head.W", "head.b")


def _is_block_entry(entry) -> bool:
    return (
        isinstance(entry, list) and len(entry) == 3 and isinstance(entry[0], str)
        and all(type(n) is int and n >= 0 for n in entry[1:])
    )


def _is_str_list(value) -> bool:
    return isinstance(value, list) and all(isinstance(s, str) for s in value)


# Metadata field -> (check, what the field must be).
_FIELDS = {
    "seq_len": (lambda v: type(v) is int and v >= 1, "an integer >= 1"),
    "seed": (lambda v: type(v) is int, "an integer"),
    "class_names": (lambda v: _is_str_list(v) and 0 < len(v) == len(set(v)),
                    "a non-empty list of distinct strings"),
    "vocab": (_is_str_list, "a list of strings"),
}


def load_checkpoint(path) -> ModelBundle:
    """Read a checkpoint, validating its metadata and its blocks.

    The blocks are read straight into one float64 buffer and returned as
    views of it, with no copy of the whole file: a load makes one
    allocation of the model's size, so repeated loads in one process reuse
    the same memory instead of faulting in fresh pages for each copy.
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
            raise InputError(f"{path}: unsupported checkpoint format {meta.get('format')!r}")
        blocks = meta.get("blocks")
        if not isinstance(blocks, list) or not all(_is_block_entry(e) for e in blocks):
            raise InputError(
                f"{path}: checkpoint metadata 'blocks' must be a list of "
                f"[name, rows, cols] entries with non-negative integer sizes"
            )

        count = sum(rows * cols for _, rows, cols in blocks)
        left = size - fh.tell()
        if 8 * count > left:
            raise InputError(f"{path}: truncated checkpoint blocks")
        if 8 * count < left:
            raise InputError(f"{path}: {left - 8 * count} trailing bytes after last block")
        flat = np.empty(count, dtype="<f8")
        if fh.readinto(flat) != 8 * count:
            raise InputError(f"{path}: truncated checkpoint blocks")

    arrays = {}
    start = 0
    for name, rows, cols in blocks:
        if name in arrays:
            raise InputError(f"{path}: duplicate block {name!r}")
        try:
            arrays[name] = flat[start:start + rows * cols].reshape(rows, cols)
        except ValueError:  # an empty block may still declare a dimension numpy cannot hold
            raise InputError(f"{path}: block {name!r} cannot be {rows} x {cols}") from None
        start += rows * cols

    if set(arrays) != set(_BLOCK_NAMES):
        missing = sorted(set(_BLOCK_NAMES) - set(arrays))
        extra = sorted(set(arrays) - set(_BLOCK_NAMES))
        raise InputError(f"{path}: unexpected block layout (missing {missing}, extra {extra})")
    for name in _BLOCK_NAMES[1:]:  # the embedding table checks itself
        if not np.isfinite(arrays[name]).all():
            raise InputError(f"{path}: block {name!r} contains non-finite values")

    for field, (ok, what) in _FIELDS.items():
        if not ok(meta.get(field)):
            raise InputError(
                f"{path}: inconsistent checkpoint contents: {field!r} must be "
                f"{what}, got {meta.get(field)!r:.60}"
            )
    try:
        model = BiLstmClassifier(
            fwd=LstmParams(arrays["fwd.W"], arrays["fwd.b"].reshape(-1)),
            bwd=LstmParams(arrays["bwd.W"], arrays["bwd.b"].reshape(-1)),
            head=DenseParams(W=arrays["head.W"], b=arrays["head.b"].reshape(-1)),
        )
        bundle = ModelBundle(
            task=meta["task"],
            class_names=tuple(meta["class_names"]),
            seq_len=meta["seq_len"],
            seed=meta["seed"],
            vocab=Vocab(meta["vocab"]),
            model=model,
            embeddings=EmbeddingMatrix(arrays["embeddings"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"{path}: inconsistent checkpoint contents: {exc}") from exc

    for field in ("cell_size", "embedding_dim"):
        if meta.get(field) != getattr(bundle, field):
            raise InputError(
                f"{path}: metadata says {field}={meta.get(field)} but blocks give "
                f"{getattr(bundle, field)}"
            )
    return bundle
