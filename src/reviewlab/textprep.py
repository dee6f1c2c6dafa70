"""Tokenization, vocabulary, encoding, and embedding lookup.

`tokenize` is the one tokenizer: it lowercases the text and returns its
maximal runs of [a-z0-9'] in order; every other character, line breaks
and non-ASCII letters included, separates tokens.  Apostrophes are kept
so contractions like "don't" reach the sentiment lexicon as single
tokens.

A vocabulary is a plain token -> index dict in index order: index 0 is
the padding token, index 1 the out-of-vocabulary token, and a token
the dict lacks maps to index 1.  A checkpoint keeps the words as the
ascending byte-string array `sorted_vocab` makes, entry i at index i + 2,
and `word_index` gives `encode` the dict for just the tokens looked up.
`encode` turns N token lists into one (N, seq_len)
int64 index matrix: each row holds its review's first seq_len tokens,
post-padded with index 0.  `build_vocab` returns the vocabulary with
its own corpus already in that matrix form: it gives each distinct
token a provisional id as it counts, so one pass over the tokens both
counts and encodes them.  No real token maps to index 0, so the model
counts a row's non-pad indices as its length and steps over those
tokens only.  An embedding table is a plain (vocab_size, dim) array,
built in float64 and trained and stored in float32; its padding row is
all-zero and kept out of gradient updates.
"""

from __future__ import annotations

import math
from collections import defaultdict
from itertools import chain, compress, count, islice, repeat

import numpy as np

from .errors import InputError, input_lines
from .rng import SeededRng, init_uniform

PAD_INDEX = 0
OOV_INDEX = 1
PAD_TOKEN = "<pad>"
OOV_TOKEN = "<oov>"
EMBEDDING_SCALE = 0.25  # half-width of the uniform draw for rows not read from a file

# Every token is a maximal run of these bytes; `tokenize` maps every other byte to a space.
TOKEN_BYTES = b"abcdefghijklmnopqrstuvwxyz0123456789'"
_KEEP = bytes(b if b in TOKEN_BYTES else 0x20 for b in range(256))


def tokenize(raw: str) -> list[str]:
    """Lowercase, then split into the maximal runs of [a-z0-9']; "" gives [].

    Lowercasing comes first because a few non-ASCII letters lowercase to
    ASCII (KELVIN SIGN to "k", "İ" to "i" plus a combining dot); every
    code point still outside ASCII, a lone surrogate included, encodes
    as "?" and so separates tokens.
    """
    return raw.lower().encode("ascii", "replace").translate(_KEEP).decode("ascii").split()


def build_vocab(corpus, min_freq: int, max_size: int, seq_len: int) -> tuple[dict, np.ndarray]:
    """Rank tokens by (frequency desc, token asc); keep at most max_size - 2.

    Tokens below min_freq are dropped.  Returns the vocabulary and the
    corpus encoded with it, the (N, seq_len) matrix `encode` would give,
    from one pass over the tokens; tokens past seq_len still count.
    """
    lengths = np.fromiter(map(len, corpus), np.int64, len(corpus))
    ids = defaultdict(count().__next__)  # provisional ids, in order of first appearance
    flat = np.fromiter(map(ids.__getitem__, chain.from_iterable(corpus)), np.int64,
                       lengths.sum())
    counts = np.bincount(flat, minlength=len(ids))
    tokens = list(ids)
    ranked = np.array(sorted(np.flatnonzero(counts >= min_freq).tolist(),
                             key=tokens.__getitem__), np.int64)
    # stable: ties stay token-ascending
    ranked = ranked[np.argsort(-counts[ranked], kind="stable")][: max_size - 2]
    vocab = dict(zip((PAD_TOKEN, OOV_TOKEN, *map(tokens.__getitem__, ranked.tolist())), count()))
    lookup = np.full(len(tokens), OOV_INDEX, np.int64)
    lookup[ranked] = np.arange(2, len(ranked) + 2)
    # Each token's place in its own row.
    position = np.arange(len(flat)) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    return vocab, _rows(lookup[flat[position < seq_len]], np.minimum(lengths, seq_len), seq_len)


def sorted_vocab(vocab: dict, table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The dict's words as an ascending byte-string array, entry i at the table's row i + 2."""
    words = np.array(list(vocab)[2:], dtype="S")
    order = np.argsort(words)
    return words[order], np.concatenate([table[:2], table[2:][order]])


def word_index(words: np.ndarray, token_lists) -> dict:
    """Token -> index dict of the tokens in token_lists that `sorted_vocab`'s words hold."""
    tokens = [t for t in set(chain.from_iterable(token_lists)) if len(t) <= words.itemsize]
    query = np.array(tokens, dtype="S")
    # Words cut in place one byte past the longest token: still sorted, and no longer word matches.
    cut = np.ndarray(len(words), f"S{min(query.itemsize + 1, words.itemsize)}", words,
                     strides=words.strides)
    at = np.searchsorted(cut, query)
    found = at < len(words)
    found[found] = cut[at[found]] == query[found]
    return dict(zip(compress(tokens, found), (at[found] + 2).tolist()))


def encode(token_lists, vocab: dict, seq_len: int) -> np.ndarray:
    """(N, seq_len) int64 index matrix: each list's first seq_len tokens, post-padded."""
    lengths = np.fromiter(map(len, token_lists), np.int64, len(token_lists))
    np.minimum(lengths, seq_len, out=lengths)
    kept = chain.from_iterable(islice(tokens, seq_len) for tokens in token_lists)
    ids = np.fromiter(map(vocab.get, kept, repeat(OOV_INDEX)), np.int64, lengths.sum())
    return _rows(ids, lengths, seq_len)


def _rows(ids: np.ndarray, lengths: np.ndarray, seq_len: int) -> np.ndarray:
    """(N, seq_len) matrix whose row i takes the next lengths[i] of ids, post-padded."""
    out = np.full((len(lengths), seq_len), PAD_INDEX, dtype=np.int64)
    # A boolean mask fills row-major, so each row takes its own ids, left-aligned.
    out[np.arange(seq_len) < lengths[:, None]] = ids
    return out


def random_embeddings(vocab_size: int, dim: int, rng: SeededRng) -> np.ndarray:
    """(vocab_size, dim) uniform random table, scale EMBEDDING_SCALE, padding row zeroed."""
    base = init_uniform(vocab_size, dim, rng, EMBEDDING_SCALE)
    base[PAD_INDEX] = 0.0
    return base


def load_glove(path, vocab: dict, rng: SeededRng) -> np.ndarray:
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
        idx = vocab.get(token, OOV_INDEX)
        if idx > OOV_INDEX:
            found[idx] = vec
    if dim is None:
        raise InputError(f"{path}: empty embeddings file")
    # One table-sized draw keeps the rows for absent tokens independent of
    # which tokens happen to be present in the file.
    base = random_embeddings(len(vocab), dim, rng)
    for idx, vec in found.items():
        base[idx] = vec
    return base


def embed_batch(index_matrix, table: np.ndarray) -> np.ndarray:
    """Batch lookup: (B, T) indices into a (vocab_size, dim) table -> (T, B, dim)."""
    return table[index_matrix.T]
