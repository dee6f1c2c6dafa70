"""Deterministic model checkpoints: one file holds the whole model.

A checkpoint is a single binary file: a magic line, one JSON metadata
line, the vocabulary block, then the seven model arrays as raw
little-endian float32 bytes, the dtype `training.train` computes in.
The metadata line ends in the spaces that start the float payload at a
multiple of 64 bytes.  Format 9's metadata holds only what the payload
cannot: the task, seq_len, the seed of the 60/20/20 split the model was
trained on, cell_size, embedding_dim, `data_sha256`, the fingerprint of
the data the model was trained on (`training.tokenized_splits`), and
the block's `words` entries of `word_bytes` bytes each. An entry is a
`textprep.tokenize` token ([a-z0-9']+), NUL-padded; the entries ascend
strictly bytewise, so a load checks them with array comparisons and
hashes none, and `word_bytes` is the longest word's length (1 for no
words). The file stores no layout: the arrays are the (words + 2,
embedding_dim) embedding table, entry i's row at i + 2, and then the
model's six arrays in `BiLstmClassifier` field order, whose shapes
`nn.block_shapes` derives from cell_size, embedding_dim and the task's
class count; the loaded model is those six arrays, in float32.  Other
formats, such as format 8 with its unpadded metadata line, are rejected;
retrain to upgrade. Saving the same bundle twice produces byte-identical files.
"""

from __future__ import annotations

import json
import math
import mmap
import os
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .nn import BiLstmClassifier, block_shapes
from .sentiment import SENTIMENT_CLASSES
from .textprep import PAD_INDEX, TOKEN_BYTES

__all__ = ["MAGIC", "TASK_CLASSES", "ModelBundle", "load_checkpoint", "save_checkpoint"]

# The container's magic line; the metadata's "format" versions its contents.
MAGIC = b"reviewlab-checkpoint-v1\n"
FORMAT = 9

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
    vocab: np.ndarray  # ascending S{word_bytes} words; entry i is embedding row i + 2
    model: BiLstmClassifier
    embeddings: np.ndarray  # (len(vocab) + 2, D); the PAD_INDEX row is zero
    data_sha256: str

    @property
    def class_names(self) -> tuple:
        return TASK_CLASSES[self.task]


def _words(block: bytes, width: int) -> np.ndarray:
    """The vocabulary block as an S{width} array; a malformed one raises ValueError."""
    # No words leave the width unchecked by the file size: it must then be 1.
    words = np.frombuffer(block, f"S{width}") if block else np.empty(0, "S1")
    lengths = np.char.str_len(words)  # each entry's length up to its last non-NUL byte
    if lengths.max(initial=1) != width:
        raise ValueError(f"'word_bytes' {width} is not the longest word's length (1 for none)")
    # Each entry is [a-z0-9']+ then NULs: no other byte, no empty entry, every NUL trailing.
    # Strictly ascending refuses a repeat, and '<pad>' or '<oov>' fail the alphabet.
    if (block.translate(None, TOKEN_BYTES + b"\0") or not lengths.all()
            or block.count(0) != len(block) - lengths.sum() or not (words[1:] > words[:-1]).all()):
        listed = words.tolist()
        i = next(i for i, (before, word) in enumerate(zip([b""] + listed, listed))
                 if word <= before or word.translate(None, TOKEN_BYTES))
        raise ValueError(f"entry {i} {block[i * width:(i + 1) * width]!r} is not a [a-z0-9']+ "
                         f"word padded with NULs and sorting after the one before")
    return words


def save_checkpoint(bundle: ModelBundle, path) -> None:
    """Write the bundle to `path`; a vocabulary a load would refuse raises ValueError.

    The file is written beside `path` and then renamed over it, so a
    bundle loaded from `path` keeps its mapping when saved back there.
    """
    block, width = bundle.vocab.tobytes(), bundle.vocab.dtype.itemsize
    _words(block, width)
    meta = {"format": FORMAT, **{field: value(bundle) for field, (value, _, _) in _FIELDS.items()}}
    head = MAGIC + json.dumps(meta, sort_keys=True).encode()
    head += b" " * (-(len(head) + 1 + len(block)) % 64) + b"\n" + block
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(head)
            for a in (bundle.embeddings, *(a for _, a in bundle.model.param_blocks())):
                fh.write(np.ascontiguousarray(a).astype("<f4", copy=False).tobytes())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _is_size(value) -> bool:
    return type(value) is int and value >= 1


# Metadata field -> (its value in a bundle, check, what the field must be).
_FIELDS = {
    "task": (lambda b: b.task, lambda v: isinstance(v, str) and v in TASK_CLASSES,
             f"one of {', '.join(TASK_CLASSES)}"),
    "seq_len": (lambda b: b.seq_len, _is_size, "an integer >= 1"),
    "seed": (lambda b: b.seed, lambda v: type(v) is int, "an integer"),
    "cell_size": (lambda b: b.model.cell_size, _is_size, "an integer >= 1"),
    "embedding_dim": (lambda b: b.embeddings.shape[1], _is_size, "an integer >= 1"),
    "data_sha256": (lambda b: b.data_sha256, lambda v: isinstance(v, str), "a string"),
    "words": (lambda b: len(b.vocab), lambda v: type(v) is int and v >= 0, "an integer >= 0"),
    "word_bytes": (lambda b: b.vocab.dtype.itemsize, _is_size, "an integer >= 1"),
}


def load_checkpoint(path) -> ModelBundle:
    """Read a checkpoint, validating its metadata and its arrays.

    Every field is checked before anything is allocated, and the file
    size against the shapes the fields give, so a malformed file is
    refused before it is mapped. The float payload is then mapped
    read-only, and the seven arrays are read-only views of the mapping:
    a load copies no weights, and a bundle holds the mapping (and the
    duplicate descriptor Python's mmap keeps) until it is freed.  The
    one limit: if another process truncates the file while a bundle maps
    it, the next touch of a page past the new end raises SIGBUS.
    `save_checkpoint` renames a new file over the old one, and so never
    truncates a mapped file.
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
        for field, (_, ok, what) in _FIELDS.items():
            if not ok(meta.get(field)):
                raise InputError(
                    f"{path}: inconsistent checkpoint contents: {field!r} must be "
                    f"{what}, got {meta.get(field)!r:.60}"
                )
        task, H, D = meta["task"], meta["cell_size"], meta["embedding_dim"]
        n_words, width = meta["words"], meta["word_bytes"]
        shapes = [(n_words + 2, D), *block_shapes(H, D, len(TASK_CLASSES[task]))]
        sizes = [math.prod(shape) for shape in shapes]
        need, left = n_words * width + 4 * sum(sizes), size - fh.tell()
        if need != left:
            raise InputError(
                f"{path}: {'truncated' if left < need else 'trailing bytes in'} checkpoint "
                f"payload: {left} bytes, where words, word_bytes, embedding_dim, cell_size "
                f"and task give {need}"
            )
        try:
            vocab = _words(fh.read(n_words * width), width)
        except ValueError as exc:
            raise InputError(f"{path}: bad checkpoint vocabulary: {exc}") from exc
        flat = np.frombuffer(mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ), "<f4",
                             sum(sizes), fh.tell())

    table, *blocks = map(np.reshape, np.split(flat, np.cumsum(sizes[:-1])), shapes)
    model = BiLstmClassifier(*blocks)
    for name, a in [("embeddings", table), *model.param_blocks()]:
        a = a.reshape(-1)  # checked in slices: no block-sized boolean array
        if not all(np.isfinite(a[i:i + 65536]).all() for i in range(0, a.size, 65536)):
            raise InputError(f"{path}: block {name!r} contains non-finite values")
    if np.any(table[PAD_INDEX] != 0.0):
        raise InputError(f"{path}: the padding row of block 'embeddings' must be zero")
    return ModelBundle(task=task, seq_len=meta["seq_len"], seed=meta["seed"], vocab=vocab,
                       model=model, embeddings=table, data_sha256=meta["data_sha256"])
