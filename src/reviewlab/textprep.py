"""Tokenization, vocabulary, encoding, and embedding lookup.

`tokenize` is the one tokenizer: it lowercases the text and returns its
maximal runs of [a-z0-9'] in order; every other character, line breaks
and non-ASCII letters included, separates tokens.  Apostrophes are kept
so contractions like "don't" reach the sentiment lexicon as single
tokens.

Index 0 of every vocabulary is the padding token and index 1 is the
out-of-vocabulary token; a trained model's vocabulary is saved inside
its checkpoint.  `encode` turns N token lists into one (N, seq_len)
int64 index matrix: each row holds its review's first seq_len tokens,
post-padded with index 0.  No real token maps to index 0, so the model
counts a row's non-pad indices as its length and steps over those
tokens only.  An embedding table is a plain (vocab_size, dim) array,
built in float64 and trained and stored in float32; its padding row is
all-zero and kept out of gradient updates.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import chain, islice, repeat

import numpy as np

from .errors import InputError, input_lines
from .rng import SeededRng, init_uniform

PAD_INDEX = 0
OOV_INDEX = 1
PAD_TOKEN = "<pad>"
OOV_TOKEN = "<oov>"
EMBEDDING_SCALE = 0.25  # half-width of the uniform draw for rows not read from a file

# Byte table for `tokenize`: [a-z0-9'] map to themselves, every other byte to a space.
_KEEP = bytes(b if chr(b) in "abcdefghijklmnopqrstuvwxyz0123456789'" else 0x20
              for b in range(256))


def tokenize(raw: str) -> list[str]:
    """Lowercase, then split into the maximal runs of [a-z0-9']; "" gives [].

    Lowercasing comes first because a few non-ASCII letters lowercase to
    ASCII (KELVIN SIGN to "k", "İ" to "i" plus a combining dot); every
    code point still outside ASCII, a lone surrogate included, encodes
    as "?" and so separates tokens.
    """
    return raw.lower().encode("ascii", "replace").translate(_KEEP).decode("ascii").split()


class Vocab:
    """Immutable token -> index map with reserved padding and OOV slots.

    Built from its tokens in index order; the pad and oov tokens take
    indices 0 and 1 and are not part of `words`.
    """

    __slots__ = ("_index", "_tokens")

    def __init__(self, words=()):
        self._tokens = (PAD_TOKEN, OOV_TOKEN, *words)
        self._index = dict(zip(self._tokens, range(len(self._tokens))))
        if len(self._index) != len(self._tokens):
            repeat = next(t for i, t in enumerate(self._tokens) if self._index[t] != i)
            raise ValueError(f"vocabulary tokens must be distinct, {repeat!r} repeats")

    def __len__(self) -> int:
        return len(self._tokens)

    def index_of(self, token: str) -> int:
        """Index for a token; unknown tokens map to the OOV slot."""
        return self._index.get(token, OOV_INDEX)

    def tokens(self) -> list[str]:
        return list(self._tokens)


def build_vocab(corpus, min_freq: int, max_size: int) -> Vocab:
    """Rank tokens by (frequency desc, token asc); keep at most max_size - 2.

    Tokens below min_freq are dropped.
    """
    if min_freq < 1:
        raise ValueError(f"min_freq must be >= 1, got {min_freq}")
    if max_size < 2:
        raise ValueError(f"max_size must leave room for pad/oov, got {max_size}")
    counts = Counter(chain.from_iterable(corpus))
    ranked = sorted(t for t, c in counts.items() if c >= min_freq)
    ranked.sort(key=counts.__getitem__, reverse=True)  # stable: ties stay token-ascending
    return Vocab(ranked[: max_size - 2])


def encode(token_lists, vocab: Vocab, seq_len: int) -> np.ndarray:
    """(N, seq_len) int64 index matrix: each list's first seq_len tokens, post-padded."""
    if seq_len < 1:
        raise ValueError(f"sequence length must be >= 1, got {seq_len}")
    lengths = np.fromiter(map(len, token_lists), np.int64, len(token_lists))
    np.minimum(lengths, seq_len, out=lengths)
    kept = chain.from_iterable(islice(tokens, seq_len) for tokens in token_lists)
    ids = np.fromiter(map(vocab._index.get, kept, repeat(OOV_INDEX)), np.int64, lengths.sum())
    out = np.full((len(token_lists), seq_len), PAD_INDEX, dtype=np.int64)
    # A boolean mask fills row-major, so each row takes its own ids, left-aligned.
    out[np.arange(seq_len) < lengths[:, None]] = ids
    return out


def random_embeddings(vocab_size: int, dim: int, rng: SeededRng) -> np.ndarray:
    """(vocab_size, dim) uniform random table, scale EMBEDDING_SCALE, padding row zeroed."""
    base = init_uniform(vocab_size, dim, rng, EMBEDDING_SCALE)
    base[PAD_INDEX] = 0.0
    return base


def load_glove(path, vocab: Vocab, rng: SeededRng) -> np.ndarray:
    """Read a GloVe text file (one `token v1 ... vd` entry per line) as a (len(vocab), d) table.

    Rows for in-vocabulary tokens come from the file.  Tokens the file
    lacks, and the OOV row, are drawn uniform with scale EMBEDDING_SCALE
    from rng; the padding row is zero.  The dimensionality is inferred
    from the first line and enforced on every later line.  Later
    duplicate tokens overwrite earlier ones.
    """
    dim = None
    found: dict[int, list[float]] = {}
    for line_num, line in enumerate(input_lines(path), start=1):
        stripped = line.rstrip("\n")
        if not stripped.strip():
            raise InputError(f"{path}: line {line_num}: empty line")
        parts = stripped.split(" ")
        token, raw_vals = parts[0], parts[1:]
        if dim is None:
            if not raw_vals:
                raise InputError(f"{path}: line 1: no vector components")
            dim = len(raw_vals)
        if len(raw_vals) != dim:
            raise InputError(
                f"{path}: line {line_num}: expected {dim} components, got {len(raw_vals)}"
            )
        try:
            vec = [float(v) for v in raw_vals]
        except ValueError:
            raise InputError(f"{path}: line {line_num}: non-numeric component") from None
        if not all(map(math.isfinite, vec)):
            raise InputError(f"{path}: line {line_num}: non-finite component")
        idx = vocab.index_of(token)
        if idx > OOV_INDEX:
            found[idx] = vec
    if dim is None:
        raise InputError(f"{path}: empty embeddings file")
    # One table-sized draw keeps the rows for absent tokens independent of
    # which tokens happen to be present in the file.
    base = init_uniform(len(vocab), dim, rng, EMBEDDING_SCALE)
    base[PAD_INDEX] = 0.0
    for idx, vec in found.items():
        base[idx] = vec
    return base


def embed_batch(index_matrix, table: np.ndarray) -> np.ndarray:
    """Batch lookup: (B, T) indices into a (vocab_size, dim) table -> (T, B, dim)."""
    idx = np.asarray(index_matrix, dtype=np.int64)
    if idx.ndim != 2:
        raise ValueError(f"index matrix must be 2-D, got {idx.ndim}-D")
    if idx.size and (idx.min() < 0 or idx.max() >= len(table)):
        raise ValueError(
            f"token index out of range for vocab size {len(table)}"
        )
    return table[idx.T]
