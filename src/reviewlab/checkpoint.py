"""Deterministic model checkpoints.

A checkpoint is a single binary file: a magic line, one JSON metadata
line (format, task, class names, sizes, vocabulary fingerprint, block
shapes), then the parameter blocks as raw little-endian float64 bytes in
the order the metadata declares. Format 3 holds seven blocks: the
embedding table and the six model arrays (per LSTM direction one fused
W and b, then the head's W and b); a 1-D bias is listed as n rows by 1
column. Format 2 had the same layout, but for a model that also stepped
over padding; it and other formats are rejected. The format contains no timestamps,
so saving the same bundle twice produces byte-identical files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .nn import BiLstmClassifier, DenseParams, LstmParams
from .textprep import EmbeddingMatrix

__all__ = ["MAGIC", "ModelBundle", "load_checkpoint", "save_checkpoint"]

# The container's magic line; the metadata's "format" versions its contents.
MAGIC = b"reviewlab-checkpoint-v1\n"
FORMAT = 3

TASKS = ("recommendation", "sentiment")


@dataclass(frozen=True)
class ModelBundle:
    """Everything inference needs: model, embeddings, and their pedigree."""

    task: str
    class_names: tuple
    seq_len: int
    vocab_fingerprint: str
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
        "vocab_size": bundle.embeddings.vocab_size,
        "vocab_fingerprint": bundle.vocab_fingerprint,
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


def load_checkpoint(path, vocab=None) -> ModelBundle:
    """Read a checkpoint; with a vocab given, verify its fingerprint matches."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if not raw.startswith(MAGIC):
        raise InputError(f"{path}: not a checkpoint file (bad magic)")
    header_end = raw.find(b"\n", len(MAGIC))
    if header_end < 0:
        raise InputError(f"{path}: truncated checkpoint header")
    try:
        meta = json.loads(raw[len(MAGIC):header_end].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
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

    arrays = {}
    offset = header_end + 1
    for name, rows, cols in blocks:
        if name in arrays:
            raise InputError(f"{path}: duplicate block {name!r}")
        nbytes = 8 * rows * cols
        chunk = raw[offset:offset + nbytes]
        if len(chunk) != nbytes:
            raise InputError(f"{path}: truncated checkpoint in block {name!r}")
        arrays[name] = np.frombuffer(chunk, dtype="<f8").reshape(rows, cols)
        offset += nbytes
    if offset != len(raw):
        raise InputError(f"{path}: {len(raw) - offset} trailing bytes after last block")

    if set(arrays) != set(_BLOCK_NAMES):
        missing = sorted(set(_BLOCK_NAMES) - set(arrays))
        extra = sorted(set(arrays) - set(_BLOCK_NAMES))
        raise InputError(f"{path}: unexpected block layout (missing {missing}, extra {extra})")
    for name in _BLOCK_NAMES[1:]:  # the embedding table checks itself
        if not np.isfinite(arrays[name]).all():
            raise InputError(f"{path}: block {name!r} contains non-finite values")

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
            vocab_fingerprint=meta["vocab_fingerprint"],
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
    if meta.get("vocab_size") != bundle.embeddings.vocab_size:
        raise InputError(
            f"{path}: metadata says vocab_size={meta.get('vocab_size')} but the "
            f"embedding table has {bundle.embeddings.vocab_size} rows"
        )
    if vocab is not None and vocab.fingerprint() != bundle.vocab_fingerprint:
        raise InputError(
            "vocabulary fingerprint mismatch: checkpoint was trained with a "
            "different vocabulary than the one supplied"
        )
    return bundle
