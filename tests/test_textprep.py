"""Tests for tokenization, vocabulary, encoding, and embeddings."""

import json
import re
from collections import Counter

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
    Vocab,
    build_vocab,
    embed_batch,
    encode,
    load_glove,
    random_embeddings,
    tokenize,
)
from reviewlab.training import TrainConfig


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
        v = Vocab()
        assert len(v) == 2
        assert v.index_of("<pad>") == PAD_INDEX
        assert v.index_of("<oov>") == OOV_INDEX

    def test_build_simple_corpus(self):
        v = build_vocab([["a", "a", "b"]], min_freq=1, max_size=100)
        assert v.index_of("a") == 2
        assert v.index_of("b") == 3
        assert len(v) == 4

    def test_min_freq_filters(self):
        v = build_vocab([["a", "a", "b"]], min_freq=2, max_size=100)
        assert v.index_of("a") == 2
        assert v.index_of("b") == OOV_INDEX
        assert len(v) == 3

    def test_tie_broken_lexicographically(self):
        v = build_vocab([["delta", "alpha"], ["beta", "delta"]], min_freq=1, max_size=100)
        # delta appears twice; alpha and beta once each, alpha first by name.
        assert v.index_of("delta") == 2
        assert v.index_of("alpha") == 3
        assert v.index_of("beta") == 4

    def test_max_size_caps_after_reserved(self):
        corpus = [[f"tok{i}" for i in range(10)]]
        v = build_vocab(corpus, min_freq=1, max_size=5)
        assert len(v) == 5

    def test_built_from_ordered_words(self):
        v = Vocab(["b", "a"])
        assert v.tokens() == ["<pad>", "<oov>", "b", "a"]
        assert v.index_of("a") == 3
        assert v.index_of("b") == 2 and v.index_of("c") == OOV_INDEX
        with pytest.raises(ValueError, match="distinct"):
            Vocab(["a", "a"])
        with pytest.raises(ValueError, match="distinct"):
            Vocab(["<pad>"])

    def test_deterministic_construction(self):
        corpus = [["x", "y", "x"], ["z", "y", "w"]]
        a = build_vocab(corpus, min_freq=1, max_size=50)
        b = build_vocab(corpus, min_freq=1, max_size=50)
        assert a.tokens() == b.tokens()

    @given(st.lists(st.lists(st.sampled_from(["a", "b", "c", "d", "e", "aa", "B"]),
                             max_size=8), max_size=6),
           st.integers(1, 4), st.integers(2, 7))
    @settings(max_examples=100, deadline=None)
    def test_matches_sorted_counter(self, corpus, min_freq, max_size):
        counts = Counter(t for tokens in corpus for t in tokens)
        ranked = sorted((t for t, c in counts.items() if c >= min_freq),
                        key=lambda t: (-counts[t], t))
        vocab = build_vocab(corpus, min_freq=min_freq, max_size=max_size)
        assert vocab.tokens()[2:] == ranked[:max_size - 2]

    def test_invalid_arguments(self):
        """TrainConfig, where build_vocab's arguments come from, refuses these."""
        with pytest.raises(ValueError, match="min_freq"):
            TrainConfig(min_freq=0)
        with pytest.raises(ValueError, match="vocab_size"):
            TrainConfig(vocab_size=1)


class TestEncodePad:
    """encode: token lists -> one post-padded (N, L) int64 index matrix."""

    def make_vocab(self):
        return build_vocab([["a", "b", "c"]], min_freq=1, max_size=10)

    def test_short_sequence_padded(self):
        enc = encode([["a"]], self.make_vocab(), 3)
        assert enc.dtype == np.int64
        assert enc.tolist() == [[2, 0, 0]]

    def test_unknown_token_maps_to_oov(self):
        enc = encode([["zzz"]], self.make_vocab(), 2)
        assert enc.tolist() == [[OOV_INDEX, PAD_INDEX]]

    def test_long_sequence_keeps_first(self):
        enc = encode([["a", "b", "c", "a", "b"], []], self.make_vocab(), 3)
        assert enc.tolist() == [[2, 3, 4], [0, 0, 0]]

    def test_invalid_length(self):
        """TrainConfig refuses seq_len 0; a checkpoint's is checked on load (test_checkpoint)."""
        with pytest.raises(ValueError, match="seq_len"):
            TrainConfig(seq_len=0)

    @staticmethod
    def row_by_row(token_lists, vocab, L):
        """Reference: each row's first L ids, then padding."""
        rows = []
        for tokens in token_lists:
            ids = [vocab.index_of(t) for t in tokens[:L]]
            rows.append(ids + [PAD_INDEX] * (L - len(ids)))
        return rows

    @given(st.lists(st.lists(st.sampled_from(["a", "b", "c", "q"]), max_size=20), max_size=5),
           st.integers(1, 8))
    @settings(max_examples=50, deadline=None)
    def test_output_length_exact(self, token_lists, L):
        vocab = self.make_vocab()
        enc = encode(token_lists, vocab, L)
        assert enc.shape == (len(token_lists), L)
        assert enc.tolist() == self.row_by_row(token_lists, vocab, L)

    @pytest.mark.parametrize("token_lists, L", [
        ([], 3),
        ([[], [], []], 4),
        ([["a", "b", "c", "a", "b", "c"], ["c", "b", "a", "q"]], 2),
        ([["b", "c"], [], ["q", "a"]], 1),
        ([["q", "zz"], ["x"], []], 3),
    ], ids=["no-rows", "all-rows-empty", "rows-longer-than-L", "L-1", "only-oov"])
    def test_edge_cases_match_row_by_row(self, token_lists, L):
        vocab = self.make_vocab()
        enc = encode(token_lists, vocab, L)
        assert enc.dtype == np.int64 and enc.shape == (len(token_lists), L)
        assert enc.tolist() == self.row_by_row(token_lists, vocab, L)


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
        return build_vocab([list(tokens)], min_freq=1, max_size=100)

    def test_direct_parse(self, tmp_path):
        path = self.write(tmp_path, "the 0.1 0.2\n")
        vocab = self.vocab_with("the")
        emb = load_glove(path, vocab, SeededRng(0))
        assert emb.shape == (len(vocab), 2)
        assert np.allclose(emb[vocab.index_of("the")], [0.1, 0.2])

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
        bi = vocab.index_of("b")
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
        assert np.allclose(emb[vocab.index_of("a")], [0.9, 0.9])


class TestEmbed:
    def setup_method(self):
        self.vocab = build_vocab([["a", "b"]], min_freq=1, max_size=10)
        arr = np.zeros((4, 3))
        arr[1] = [0.1, 0.1, 0.1]
        arr[2] = [1.0, 2.0, 3.0]
        arr[3] = [4.0, 5.0, 6.0]
        self.table = arr

    def embed(self, tokens, L):
        """One review's vectors, (T, 1, dim)."""
        return embed_batch(encode([tokens], self.vocab, L), self.table)

    def test_all_pad_gives_zero_vectors(self):
        vectors = self.embed([], 3)
        assert vectors.shape == (3, 1, 3)
        assert np.all(vectors == 0.0)

    def test_single_token_row_as_column(self):
        vectors = self.embed(["a"], 1)
        assert np.array_equal(vectors[0, 0], [1.0, 2.0, 3.0])

    def test_round_trip_matches_row_lookup(self):
        vectors = self.embed(["b", "a"], 2)
        for pos, idx in enumerate(encode([["b", "a"]], self.vocab, 2)[0]):
            assert np.array_equal(vectors[pos, 0], self.table[idx])

    def test_embed_batch_matches_single(self):
        batched = embed_batch(encode([["a", "b"], ["b"]], self.vocab, 2), self.table)
        assert batched.shape == (2, 2, 3)
        assert np.array_equal(batched[:, :1], self.embed(["a", "b"], 2))
        assert np.array_equal(batched[:, 1:], self.embed(["b"], 2))


class TestVocabRoundTrip:
    """A trained model's vocabulary is saved and loaded inside its checkpoint."""

    def save(self, tmp_path, vocab):
        path = tmp_path / "model.ckpt"
        save_checkpoint(ModelBundle(
            task="recommendation", seq_len=4, seed=0, vocab=vocab,
            model=BiLstmClassifier.build(2, 3, 2, SeededRng(1)),
            embeddings=random_embeddings(len(vocab), 3, SeededRng(2)), data_sha256="",
        ), path)
        return path

    def vocab_line(self, path):
        """The checkpoint's bytes and the start and end of its vocabulary line."""
        raw = path.read_bytes()
        start = raw.find(b"\n", len(MAGIC)) + 1
        return raw, start, raw.find(b"\n", start)

    def test_save_load_round_trip(self, tmp_path):
        v = build_vocab([["b", "a", "b", "c"]], min_freq=1, max_size=10)
        loaded = load_checkpoint(self.save(tmp_path, v)).vocab
        assert loaded.tokens() == v.tokens()
        assert [loaded.index_of(t) for t in v.tokens()] == list(range(len(v)))

    def test_export_format(self, tmp_path):
        """The vocabulary line lists the words after <pad> and <oov>, in index order."""
        v = build_vocab([["b", "a", "b"]], min_freq=1, max_size=10)
        raw, start, end = self.vocab_line(self.save(tmp_path, v))
        assert raw[start:end] == b"b a"
        assert "vocab" not in json.loads(raw[len(MAGIC):start])

    def test_load_rejects_malformed_line(self, tmp_path):
        """A vocabulary line that is not UTF-8 is refused."""
        path = self.save(tmp_path, build_vocab([["a", "b"]], min_freq=1, max_size=10))
        raw, start, end = self.vocab_line(path)
        path.write_bytes(raw[:start] + b"a \xff" + raw[end:])
        with pytest.raises(InputError, match="bad checkpoint vocabulary line: 'utf-8' codec can't decode"):
            load_checkpoint(path)
