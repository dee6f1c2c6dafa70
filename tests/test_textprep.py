"""Tests for tokenization, vocabulary, encoding, and embeddings."""

import json
import re
from collections import Counter
from itertools import chain, count

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reviewlab.checkpoint import MAGIC, ModelBundle, load_checkpoint, save_checkpoint
from reviewlab.errors import InputError
from reviewlab.nn import BiLstmClassifier
from reviewlab.rng import SeededRng
from reviewlab.textprep import (
    OOV_INDEX,
    PAD_INDEX,
    build_vocab,
    embed_batch,
    encode,
    load_glove,
    random_embeddings,
    sorted_vocab,
    tokenize,
)
from reviewlab.training import TrainConfig


def vocab_of(corpus, min_freq, max_size):
    """`build_vocab`'s ranked tokens alone, for one split."""
    return build_vocab([corpus], min_freq, max_size, seq_len=1)[0]


def words_of(corpus):
    """`sorted_vocab`'s words for the ranked tokens of one split."""
    tokens = vocab_of(corpus, min_freq=1, max_size=100)
    return sorted_vocab(tokens, np.zeros((len(tokens) + 2, 1)))[0]


def index_of(words):
    """The sorted words' own token -> index dict: entry i is index i + 2."""
    return {w.decode(): i + 2 for i, w in enumerate(words.tolist())}


def width(token_lists, L):
    """The matrix width `encode` gives: the longest row's first L tokens, at least 1."""
    return max(1, min(L, max(map(len, token_lists), default=0)))


def dict_encode(token_lists, index, L, T=None):
    """Reference encoder: each row's first L ids from the dict, then padding to T columns
    (by default, these rows' width)."""
    T = width(token_lists, L) if T is None else T
    rows = []
    for tokens in token_lists:
        ids = [index.get(t, OOV_INDEX) for t in tokens[:L]]
        rows.append(ids + [PAD_INDEX] * (T - len(ids)))
    return rows


def regex_tokenize(raw: str) -> list[str]:
    """The two-regex cleaning pipeline `tokenize` replaced, kept as its oracle."""
    s = raw.replace("\r", " ").replace("\n", " ").lower()
    s = re.sub(r"[^a-z0-9' ]", " ", s)
    s = re.sub(r" {2,}", " ", s)
    return s.strip().split()


class TestCleanText:
    """The cleaning rule inside `tokenize`."""

    def test_punctuation_and_delimiters(self):
        assert tokenize("Love it!\r\n") == ["love", "it"]

    def test_empty_string(self):
        assert tokenize("") == []

    def test_cr_lf_become_spaces(self):
        assert tokenize("A\nB\rC") == ["a", "b", "c"]

    def test_apostrophes_survive(self):
        assert tokenize("Don't stop") == ["don't", "stop"]

    def test_digits_survive(self):
        assert tokenize("Size 8 fits") == ["size", "8", "fits"]

    def test_unicode_replaced(self):
        assert tokenize("café £10") == ["caf", "10"]

    @given(st.text(max_size=200))
    @settings(max_examples=80, deadline=None)
    def test_output_alphabet_and_spacing(self, raw):
        for token in tokenize(raw):
            assert token and set(token) <= set("abcdefghijklmnopqrstuvwxyz0123456789'")

    @given(st.text(max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_idempotent(self, raw):
        """Every token tokenizes to itself."""
        tokens = tokenize(raw)
        assert [tokenize(t) for t in tokens] == [[t] for t in tokens]


class TestTokenize:
    def test_basic_split(self):
        assert tokenize("love it") == ["love", "it"]

    def test_empty(self):
        assert tokenize("") == []

    @given(st.text(max_size=120))
    @settings(max_examples=50, deadline=None)
    def test_clean_tokenize_fixpoint(self, raw):
        """Re-tokenizing the joined tokens changes nothing."""
        tokens = tokenize(raw)
        assert tokenize(" ".join(tokens)) == tokens

    @pytest.mark.parametrize("raw, tokens", [
        ("\u212a", ["k"]),  # KELVIN SIGN lowercases to ASCII "k"
        ("\u0130x", ["i", "x"]),  # "İ" lowercases to "i" plus a combining dot
        ("a\ud800b", ["a", "b"]),  # a lone surrogate separates tokens
        ("ÀB\u00a0c\td\x1fe\u2028f", ["b", "c", "d", "e", "f"]),
        ("it's\x00ok", ["it's", "ok"]),
    ])
    def test_lowercase_and_non_ascii_cases(self, raw, tokens):
        assert tokenize(raw) == tokens == regex_tokenize(raw)

    def test_every_code_point_matches_regex_oracle(self):
        """Each code point, with letters on both sides, tokenizes as the regex pipeline does."""
        raw = " ".join(f"a{chr(c)}b" for c in range(0x110000))
        assert tokenize(raw) == regex_tokenize(raw)

    @given(st.text(st.characters(exclude_categories=())))
    @settings(max_examples=300, deadline=None)
    def test_matches_regex_oracle(self, raw):
        """Any text, lone surrogates included, tokenizes as the regex pipeline does."""
        assert tokenize(raw) == regex_tokenize(raw)


class TestVocab:
    def test_reserved_slots(self):
        """An empty corpus ranks no token: only padding 0 and OOV 1 remain."""
        assert vocab_of([], min_freq=1, max_size=10) == []
        assert (PAD_INDEX, OOV_INDEX) == (0, 1)

    def test_build_simple_corpus(self):
        v = vocab_of([["a", "a", "b"]], min_freq=1, max_size=100)
        assert v == ["a", "b"]

    def test_min_freq_filters(self):
        v = vocab_of([["a", "a", "b"]], min_freq=2, max_size=100)
        assert v == ["a"]

    def test_tie_broken_lexicographically(self):
        v = vocab_of([["delta", "alpha"], ["beta", "delta"]], min_freq=1, max_size=100)
        # delta appears twice; alpha and beta once each, alpha first by name.
        assert v == ["delta", "alpha", "beta"]

    def test_max_size_caps_after_reserved(self):
        corpus = [[f"tok{i}" for i in range(10)]]
        v = vocab_of(corpus, min_freq=1, max_size=5)
        assert len(v) + 2 == 5

    def test_built_from_ordered_words(self):
        """A checkpoint's words are the ranked tokens in ascending order, each with its own
        row."""
        v = vocab_of([["bb", "bb", "a"]], min_freq=1, max_size=10)
        assert v == ["bb", "a"]
        table = np.arange(8.0).reshape(4, 2)
        words, rows = sorted_vocab(v, table)
        assert words.dtype == np.dtype("S2")
        assert words.tolist() == [b"a", b"bb"]
        assert np.array_equal(rows, table[[0, 1, 3, 2]])
        assert encode([["bb", "c"], ["a", "bb"]], words, 2).tolist() == [[3, 1], [2, 3]]

    def test_deterministic_construction(self):
        corpus = [["x", "y", "x"], ["z", "y", "w"]]
        a = vocab_of(corpus, min_freq=1, max_size=50)
        b = vocab_of(corpus, min_freq=1, max_size=50)
        assert a == b

    @given(st.lists(st.lists(st.sampled_from(["a", "b", "c", "d", "e", "aa", "B"]),
                             max_size=8), max_size=6),
           st.integers(1, 4), st.integers(2, 7))
    @settings(max_examples=100, deadline=None)
    def test_matches_sorted_counter(self, corpus, min_freq, max_size):
        counts = Counter(t for tokens in corpus for t in tokens)
        ranked = sorted((t for t, c in counts.items() if c >= min_freq),
                        key=lambda t: (-counts[t], t))
        vocab = vocab_of(corpus, min_freq=min_freq, max_size=max_size)
        assert vocab == ranked[:max_size - 2]

    @given(st.lists(st.lists(st.text("abc'", min_size=1, max_size=3), max_size=12), max_size=10),
           st.lists(st.lists(st.text("abcd", min_size=1, max_size=3), max_size=12), max_size=6),
           st.integers(1, 4), st.integers(2, 40), st.integers(1, 8))
    @settings(max_examples=300, deadline=None)
    def test_one_pass_matches_counter_then_encode(self, corpus, later, min_freq, max_size,
                                                  seq_len):
        """The first split ranks as Counter and the two sorts do, and each split's matrix is
        a dict encoder's with that ranking: frequency ties, min_freq and max_size cuts, rows
        longer than seq_len, empty rows and the empty corpus alike.  Tokens that only the
        later split holds are never ranked and encode as OOV_INDEX."""
        counts = Counter(chain.from_iterable(corpus))
        ranked = sorted(t for t, c in counts.items() if c >= min_freq)
        ranked.sort(key=counts.__getitem__, reverse=True)
        reference = dict(zip(ranked[:max_size - 2], count(2)))
        tokens, matrices = build_vocab((corpus, later), min_freq, max_size, seq_len)
        assert tokens == list(reference)
        T = width(corpus + later, seq_len)  # one matrix, split
        assert [m.shape for m in matrices] == [(len(corpus), T), (len(later), T)]
        for indices, token_lists in zip(matrices, (corpus, later)):
            assert indices.dtype == np.int64
            assert indices.tolist() == dict_encode(token_lists, reference, seq_len, T)
        unseen = [[t not in counts for t in row[:seq_len]] for row in later]
        assert all(i == OOV_INDEX for row, mask in zip(matrices[1].tolist(), unseen)
                   for i, new in zip(row, mask) if new)

    def test_invalid_arguments(self):
        """TrainConfig, where build_vocab's arguments come from, refuses these."""
        with pytest.raises(ValueError, match="min_freq"):
            TrainConfig(min_freq=0)
        with pytest.raises(ValueError, match="vocab_size"):
            TrainConfig(vocab_size=1)


class TestEncodePad:
    """encode: token lists -> one (N, width) int64 index matrix, post-padded to the
    longest row's first L tokens."""

    def make_vocab(self):
        return words_of([["a", "b", "c"]])

    def test_short_sequence_padded(self):
        enc = encode([["a"], ["b", "c", "a"]], self.make_vocab(), 3)
        assert enc.dtype == np.int64
        assert enc.tolist() == [[2, 0, 0], [3, 4, 2]]

    def test_unknown_token_maps_to_oov(self):
        enc = encode([["zzz"], ["a", "b"]], self.make_vocab(), 2)
        assert enc.tolist() == [[OOV_INDEX, PAD_INDEX], [2, 3]]

    def test_long_sequence_keeps_first(self):
        enc = encode([["a", "b", "c", "a", "b"], []], self.make_vocab(), 3)
        assert enc.tolist() == [[2, 3, 4], [0, 0, 0]]

    def test_invalid_length(self):
        """TrainConfig refuses seq_len 0; a checkpoint's is checked on load (test_checkpoint)."""
        with pytest.raises(ValueError, match="seq_len"):
            TrainConfig(seq_len=0)

    @given(st.lists(st.lists(st.sampled_from(["a", "b", "c", "q"]), max_size=20), max_size=5),
           st.integers(1, 8))
    @settings(max_examples=50, deadline=None)
    def test_output_length_exact(self, token_lists, L):
        words = self.make_vocab()
        enc = encode(token_lists, words, L)
        assert enc.shape == (len(token_lists), width(token_lists, L))
        assert enc.tolist() == dict_encode(token_lists, index_of(words), L)

    @pytest.mark.parametrize("token_lists, L", [
        ([], 3),
        ([[], [], []], 4),
        ([["a", "b", "c", "a", "b", "c"], ["c", "b", "a", "q"]], 2),
        ([["b", "c"], [], ["q", "a"]], 1),
        ([["q", "zz"], ["x"], []], 3),
    ], ids=["no-rows", "all-rows-empty", "rows-longer-than-L", "L-1", "only-oov"])
    def test_edge_cases_match_row_by_row(self, token_lists, L):
        words = self.make_vocab()
        enc = encode(token_lists, words, L)
        assert enc.dtype == np.int64 and enc.shape == (len(token_lists), width(token_lists, L))
        assert enc.tolist() == dict_encode(token_lists, index_of(words), L)


class TestRandomEmbeddings:
    def test_zero_pad_row(self):
        emb = random_embeddings(5, 4, SeededRng(1))
        assert emb.shape == (5, 4)
        assert np.all(emb[0] == 0.0)
        assert np.all(np.abs(emb) <= 0.25)


class TestLoadGlove:
    def write(self, tmp_path, text):
        p = tmp_path / "vectors.txt"
        p.write_text(text, encoding="utf-8")
        return p

    def vocab_with(self, *tokens):
        return vocab_of([list(tokens)], min_freq=1, max_size=100)

    @staticmethod
    def row(tokens, token):
        """Ranked token i is row i + 2."""
        return tokens.index(token) + 2

    def test_direct_parse(self, tmp_path):
        path = self.write(tmp_path, "the 0.1 0.2\n")
        vocab = self.vocab_with("the")
        emb = load_glove(path, vocab, SeededRng(0))
        assert emb.shape == (len(vocab) + 2, 2)
        assert np.allclose(emb[self.row(vocab, "the")], [0.1, 0.2])

    def test_pad_row_zero_regardless(self, tmp_path):
        path = self.write(tmp_path, "the 0.1 0.2\n")
        emb = load_glove(path, self.vocab_with("the"), SeededRng(0))
        assert np.all(emb[PAD_INDEX] == 0.0)

    def test_dimension_mismatch_names_line(self, tmp_path):
        path = self.write(tmp_path, "a 0.1 0.2\nb 0.1 0.2 0.3\n")
        with pytest.raises(InputError, match="line 2"):
            load_glove(path, self.vocab_with("a", "b"), SeededRng(0))

    def test_non_numeric_names_line(self, tmp_path):
        path = self.write(tmp_path, "a 0.1 0.2\nb 0.1 oops\n")
        with pytest.raises(InputError, match="line 2"):
            load_glove(path, self.vocab_with("a", "b"), SeededRng(0))

    def test_empty_file_rejected(self, tmp_path):
        path = self.write(tmp_path, "")
        with pytest.raises(InputError, match="empty"):
            load_glove(path, self.vocab_with("a"), SeededRng(0))

    def test_missing_file_raises_io_error(self, tmp_path):
        vocab = self.vocab_with("a")
        with pytest.raises(OSError):
            load_glove(tmp_path / "absent.txt", vocab, SeededRng(0))

    def test_missing_tokens_seeded_uniform(self, tmp_path):
        """Rows absent from the file depend only on the seed."""
        path = self.write(tmp_path, "a 0.5 0.5\n")
        vocab = self.vocab_with("a", "b")
        e1 = load_glove(path, vocab, SeededRng(7))
        e2 = load_glove(path, vocab, SeededRng(7))
        bi = self.row(vocab, "b")
        assert np.array_equal(e1[bi], e2[bi])
        assert np.all(np.abs(e1[bi]) <= 0.25)
        assert np.any(e1[bi] != 0.0)

    def test_oov_row_initialized(self, tmp_path):
        path = self.write(tmp_path, "a 0.5 0.5\n")
        emb = load_glove(path, self.vocab_with("a"), SeededRng(3))
        assert np.any(emb[OOV_INDEX] != 0.0)

    def test_later_duplicates_overwrite(self, tmp_path):
        path = self.write(tmp_path, "a 0.1 0.1\na 0.9 0.9\n")
        vocab = self.vocab_with("a")
        emb = load_glove(path, vocab, SeededRng(0))
        assert np.allclose(emb[self.row(vocab, "a")], [0.9, 0.9])


class TestEmbed:
    def setup_method(self):
        self.words = words_of([["a", "b"]])
        arr = np.zeros((4, 3))
        arr[1] = [0.1, 0.1, 0.1]
        arr[2] = [1.0, 2.0, 3.0]
        arr[3] = [4.0, 5.0, 6.0]
        self.table = arr

    def embed(self, tokens, L):
        """One review's vectors, (T, 1, dim)."""
        return embed_batch(encode([tokens], self.words, L), self.table)

    def test_all_pad_gives_zero_vectors(self):
        vectors = self.embed([], 3)
        assert vectors.shape == (1, 1, 3)
        assert np.all(vectors == 0.0)

    def test_single_token_row_as_column(self):
        vectors = self.embed(["a"], 1)
        assert np.array_equal(vectors[0, 0], [1.0, 2.0, 3.0])

    def test_round_trip_matches_row_lookup(self):
        vectors = self.embed(["b", "a"], 2)
        for pos, idx in enumerate(encode([["b", "a"]], self.words, 2)[0]):
            assert np.array_equal(vectors[pos, 0], self.table[idx])

    def test_embed_batch_matches_single(self):
        batched = embed_batch(encode([["a", "b"], ["b"]], self.words, 2), self.table)
        assert batched.shape == (2, 2, 3)
        assert np.array_equal(batched[:, :1], self.embed(["a", "b"], 2))
        assert np.array_equal(batched[:1, 1:], self.embed(["b"], 2))
        assert np.all(batched[1:, 1:] == 0.0)


class TestVocabRoundTrip:
    """A trained model's vocabulary is saved and loaded inside its checkpoint."""

    def save(self, tmp_path, tokens):
        path = tmp_path / "model.ckpt"
        words, table = sorted_vocab(tokens, random_embeddings(len(tokens) + 2, 3, SeededRng(2)))
        save_checkpoint(ModelBundle(
            task="recommendation", seq_len=4, seed=0, vocab=words,
            model=BiLstmClassifier.build(2, 3, 2, SeededRng(1)),
            embeddings=table, data_sha256="",
        ), path)
        return path

    def block(self, path):
        """The checkpoint's bytes and the start and end of its vocabulary block."""
        raw = path.read_bytes()
        start = raw.find(b"\n", len(MAGIC)) + 1
        meta = json.loads(raw[len(MAGIC):start])
        return raw, start, start + meta["words"] * meta["word_bytes"]

    def test_save_load_round_trip(self, tmp_path):
        v = vocab_of([["b", "a", "b", "c"]], min_freq=1, max_size=10)
        loaded = load_checkpoint(self.save(tmp_path, v)).vocab
        assert loaded.tolist() == [b"a", b"b", b"c"]

    def test_export_format(self, tmp_path):
        """The block lists the words after <pad> and <oov> ascending, each NUL-padded to
        the longest word's length."""
        v = vocab_of([["bb", "a", "bb"]], min_freq=1, max_size=10)
        raw, start, end = self.block(self.save(tmp_path, v))
        assert raw[start:end] == b"a\0bb"
        meta = json.loads(raw[len(MAGIC):start])
        assert (meta["words"], meta["word_bytes"]) == (2, 2)
        assert "vocab" not in meta

    def test_load_rejects_malformed_line(self, tmp_path):
        """A block entry that is not a tokenizer token is refused."""
        path = self.save(tmp_path, vocab_of([["a", "b"]], min_freq=1, max_size=10))
        raw, start, end = self.block(path)
        path.write_bytes(raw[:start] + b"a\xff" + raw[end:])
        with pytest.raises(InputError, match=re.escape(
                "bad checkpoint vocabulary: entry 1 b'\\xff' is not a [a-z0-9']+ word")):
            load_checkpoint(path)


class TestEncode:
    """`encode` maps tokens as the sorted words' own dict would."""

    @given(st.lists(st.text("ab'z", min_size=1, max_size=4), max_size=12),
           st.lists(st.lists(st.text("ab'z", min_size=1, max_size=6), max_size=6), max_size=4),
           st.integers(1, 6))
    @settings(max_examples=200, deadline=None)
    def test_matches_the_dict_of_the_sorted_words(self, words, token_lists, L):
        sorted_words = words_of([words])
        reference = index_of(sorted_words)
        assert encode(token_lists, sorted_words, L).tolist() == dict_encode(token_lists,
                                                                            reference, L)
        # At a width that holds every token, each token's index is the dict's.
        full = encode(token_lists, sorted_words, 6)
        assert all(i == reference.get(t, OOV_INDEX) for row, tokens in zip(full, token_lists)
                   for i, t in zip(row.tolist(), tokens))

    def test_longer_token_is_out_of_vocabulary(self):
        """A token longer than every word cannot truncate into a match."""
        words = words_of([["abc", "ab"]])
        assert words.dtype == np.dtype("S3")
        assert encode([["abcd", "abcde", "abc", "ab", "a"]], words, 5).tolist() == [
            [OOV_INDEX, OOV_INDEX, 3, 2, OOV_INDEX]]
        assert encode([["abcd"]], words, 1)[0, 0] == OOV_INDEX

    def test_empty_vocabulary(self):
        words = words_of([])
        assert encode([["a"], [], ["b", "a"]], words, 2).tolist() == [
            [OOV_INDEX, PAD_INDEX], [PAD_INDEX, PAD_INDEX], [OOV_INDEX, OOV_INDEX]]
