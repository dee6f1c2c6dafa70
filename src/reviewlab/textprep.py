"""Tokenization, vocabulary, encoding, and embedding lookup.

`tokenize` is the one tokenizer: it lowercases the text and returns its
maximal runs of [a-z0-9'] in order; every other character, line breaks
and non-ASCII letters included, separates tokens.  Apostrophes are kept
so contractions like "don't" reach the sentiment lexicon as single
tokens.

A vocabulary is its ranked token list: index 0 is padding, index 1 is
out-of-vocabulary, and ranked token i is index i + 2.  `build_vocab`
ranks the training split's tokens, and returns every split it is given as
an (N, width) int64 index matrix: each row holds its review's first
seq_len tokens, post-padded with index 0 to the longest row.  A
checkpoint keeps the words as the ascending byte-string array
`sorted_vocab` makes, entry i at index i + 2, and `encode` turns later
token lists into the same matrix form against those words.  Both give
each distinct token a provisional id in one pass over the tokens, then
find each distinct token's index once, by rank or by binary search.  No
real token maps to index 0, so the model counts a row's non-pad indices
as its length and steps over those tokens only.  An embedding table is a
plain (vocab_size, dim) array, built in float64 and trained and stored in
float32; its padding row is all-zero and kept out of gradient updates.
"""

from __future__ import annotations

import math
from collections import defaultdict
from itertools import chain, count

import numpy as np

from .errors import InputError, input_lines
from .rng import SeededRng, init_uniform

PAD_INDEX = 0
OOV_INDEX = 1
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


def build_vocab(splits, min_freq: int, max_size: int, seq_len: int) -> tuple[list, list]:
    """Rank the first split's tokens by (frequency desc, token asc); keep at most max_size - 2.

    Returns the ranked tokens (min_freq or more uses; tokens past seq_len
    count) and each split's (N, width) matrix, from one pass over all
    splits' tokens.  A token only later splits hold counts 0: it is OOV.
    """
    tokens, flat, lengths = _provisional(list(chain.from_iterable(splits)))
    counts = np.bincount(flat[:lengths[:len(splits[0])].sum()], minlength=len(tokens))
    ranked = np.array(sorted(np.flatnonzero(counts >= min_freq).tolist(),
                             key=tokens.__getitem__), np.int64)
    # stable: ties stay token-ascending
    ranked = ranked[np.argsort(-counts[ranked], kind="stable")][: max_size - 2]
    lookup = np.full(len(tokens), OOV_INDEX, np.int64)
    lookup[ranked] = np.arange(2, len(ranked) + 2)
    return (list(map(tokens.__getitem__, ranked.tolist())),
            np.split(_rows(lookup, flat, lengths, seq_len), np.cumsum(list(map(len, splits[:-1])))))


def sorted_vocab(tokens: list, table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ranked tokens as an ascending byte-string array, entry i at the table's row i + 2."""
    words = np.array(tokens, dtype="S")
    order = np.argsort(words)
    return words[order], np.concatenate([table[:2], table[2:][order]])


def encode(token_lists, words: np.ndarray, seq_len: int) -> np.ndarray:
    """(N, width) int64 index matrix of token_lists against `sorted_vocab`'s words:
    each list's first seq_len tokens, post-padded; a token the words lack is OOV_INDEX."""
    tokens, flat, lengths = _provisional(token_lists)
    # A token longer than every word matches none; "" keeps its place without widening the query.
    query = np.array([t if len(t) <= words.itemsize else "" for t in tokens], dtype="S")
    # Words cut in place one byte past the longest token: still sorted, and no longer word matches.
    cut = np.ndarray(len(words), f"S{min(query.itemsize + 1, words.itemsize)}", words,
                     strides=words.strides)
    at = np.searchsorted(cut, query)
    found = at < len(words)
    found[found] = cut[at[found]] == query[found]
    return _rows(np.where(found, at + 2, OOV_INDEX), flat, lengths, seq_len)


def _provisional(token_lists) -> tuple[list, np.ndarray, np.ndarray]:
    """(distinct tokens in order of first use, each token's id among them, list lengths)."""
    lengths = np.fromiter(map(len, token_lists), np.int64, len(token_lists))
    ids = defaultdict(count().__next__)
    flat = np.fromiter(map(ids.__getitem__, chain.from_iterable(token_lists)), np.int64,
                       lengths.sum())
    return list(ids), flat, lengths


def _rows(lookup: np.ndarray, flat: np.ndarray, lengths: np.ndarray, seq_len: int) -> np.ndarray:
    """Row i of the (N, width) matrix maps list i's first seq_len ids through lookup."""
    # Each token's place in its own list.
    position = np.arange(len(flat)) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    width = max(1, min(seq_len, lengths.max(initial=0)))
    out = np.full((len(lengths), width), PAD_INDEX, dtype=np.int64)
    # A boolean mask fills row-major, so each row takes its own ids, left-aligned.
    out[np.arange(width) < lengths[:, None]] = lookup[flat[position < seq_len]]
    return out


def random_embeddings(vocab_size: int, dim: int, rng: SeededRng) -> np.ndarray:
    """(vocab_size, dim) uniform random table, scale EMBEDDING_SCALE, padding row zeroed."""
    base = init_uniform(vocab_size, dim, rng, EMBEDDING_SCALE)
    base[PAD_INDEX] = 0.0
    return base


def load_glove(path, tokens: list, rng: SeededRng) -> np.ndarray:
    """Read a GloVe text file (one `token v1 ... vd` entry per line) as a (len(tokens) + 2, d)
    table, row i + 2 for ranked token i.

    Rows for in-vocabulary tokens come from the file.  Tokens the file
    lacks, and the OOV row, are drawn uniform with scale EMBEDDING_SCALE
    from rng; the padding row is zero.  The dimensionality is inferred
    from the first line and enforced on every later line.  Later
    duplicate tokens overwrite earlier ones.
    """
    dim = None
    index = dict(zip(tokens, count(2)))
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
        if token in index:
            found[index[token]] = vec
    if dim is None:
        raise InputError(f"{path}: empty embeddings file")
    # One table-sized draw keeps the rows for absent tokens independent of
    # which tokens happen to be present in the file.
    base = random_embeddings(len(tokens) + 2, dim, rng)
    for idx, vec in found.items():
        base[idx] = vec
    return base


def embed_batch(index_matrix, table: np.ndarray) -> np.ndarray:
    """Batch lookup: (B, T) indices into a (vocab_size, dim) table -> (T, B, dim)."""
    return table[index_matrix.T]
