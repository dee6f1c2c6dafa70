"""Tests for the deterministic checkpoint container."""

import dataclasses
import functools
import hashlib
import json
import re
import tempfile
import tracemalloc
from itertools import accumulate
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reviewlab.training
from reviewlab.checkpoint import MAGIC, ModelBundle, load_checkpoint, save_checkpoint
from reviewlab.cli import main
from reviewlab.dataset import write_csv
from reviewlab.errors import InputError
from reviewlab.nn import BiLstmClassifier
from reviewlab.rng import SeededRng
from reviewlab.textprep import build_vocab, encode, random_embeddings, sorted_vocab
from toy import toy_config_file, toy_reviews

from gradcheck import toy_classifier

DATA_SHA256 = "5" * 64
# The bytes of `tokenize`'s tokens, ascending.
ALPHABET = "'0123456789abcdefghijklmnopqrstuvwxyz"
# The small bundle's words as its vocabulary block holds them, ascending.
WORDS = [f"tok{i}".encode() for i in range(10)]
# The sha256 of test_format_9_bytes_pinned's checkpoint file.
FORMAT_9_SHA256 = "d9ed148046bb8789cb09c7a0222351cf50ecdb8e3688d381b3febe31e17f5f7f"


def small_bundle(dim=6):
    """A float32 bundle, as `cli train` builds it from `training.train`'s model and table.

    Returns (bundle, the ranked tokens, the training-order table). The
    counts rank tok9 first, so sorting the words reverses them.  dim is
    the embedding width.
    """
    vocab, _ = build_vocab([[[f"tok{i}"] * (i + 1) for i in range(10)]], min_freq=1,
                           max_size=20, seq_len=1)
    model = toy_classifier(1, cell=4, inp=dim, n_classes=2, dtype=np.float32)
    table = random_embeddings(len(vocab) + 2, dim, SeededRng(2)).astype(np.float32)
    words, emb = sorted_vocab(vocab, table)
    bundle = ModelBundle(
        task="recommendation",
        seq_len=12,
        seed=3,
        vocab=words,
        model=model,
        embeddings=emb,
        data_sha256=DATA_SHA256,
    )
    return bundle, vocab, table


class TestBundleValidation:
    """A loaded bundle is consistent: the metadata fixes every array's shape."""

    def test_properties(self, tmp_path):
        bundle = load_checkpoint(saved_checkpoint(tmp_path))
        assert bundle.model.cell_size == 4
        assert bundle.embeddings.shape == (12, 6)
        assert bundle.class_names == ("not_recommended", "recommended")
        assert bundle.data_sha256 == DATA_SHA256

    def test_unknown_task_rejected(self, tmp_path):
        path = saved_checkpoint(tmp_path)
        edit_metadata(path, lambda meta: meta.update(task="ranking"))
        with pytest.raises(InputError, match="'task' must be one of recommendation, sentiment"):
            load_checkpoint(path)

    def test_class_name_count_enforced(self, tmp_path):
        """The task's class count sizes the head: a 2-class head is no sentiment model."""
        path = saved_checkpoint(tmp_path)
        edit_metadata(path, lambda meta: meta.update(task="sentiment"))
        with pytest.raises(InputError, match="truncated checkpoint payload: .* and task give"):
            load_checkpoint(path)

    def test_embedding_dim_mismatch_rejected(self, tmp_path):
        path = saved_checkpoint(tmp_path)
        edit_metadata(path, lambda meta: meta.update(embedding_dim=7))
        with pytest.raises(InputError, match="truncated checkpoint payload: .*embedding_dim"):
            load_checkpoint(path)

    def test_vocab_size_must_match_embedding_rows(self, tmp_path):
        """One entry fewer, with the table's rows unchanged, leaves bytes over."""
        path = saved_checkpoint(tmp_path)
        rewrite_block(path, WORDS[:-1])
        with pytest.raises(InputError, match="trailing bytes in checkpoint payload: .*words"):
            load_checkpoint(path)


class TestRoundTrip:
    def test_blocks_bit_exact(self, tmp_path):
        bundle, vocab, table = small_bundle()
        path = tmp_path / "model.ckpt"
        save_checkpoint(bundle, path)
        loaded = load_checkpoint(path)
        assert loaded.task == bundle.task
        assert loaded.class_names == bundle.class_names
        assert loaded.seq_len == bundle.seq_len
        assert loaded.seed == 3
        assert loaded.vocab.dtype == bundle.vocab.dtype == np.dtype("S4")
        assert loaded.vocab.tolist() == bundle.vocab.tolist() == WORDS
        for (name_a, a), (name_b, b) in zip(bundle.model.param_blocks(),
                                            loaded.model.param_blocks()):
            assert name_a == name_b
            assert b.dtype == np.float32
            assert np.array_equal(a, b)
        assert loaded.embeddings.dtype == np.float32
        assert np.array_equal(bundle.embeddings, loaded.embeddings)
        # Each word keeps the row it trained with: entry i is row i + 2.
        assert np.array_equal(loaded.embeddings[:2], table[:2])
        for i, word in enumerate(WORDS):
            assert np.array_equal(loaded.embeddings[i + 2], table[vocab.index(word.decode()) + 2])
        assert [n for n, _ in loaded.model.param_blocks()] == [
            "fwd.W", "fwd.b", "bwd.W", "bwd.b", "head.W", "head.b"]
        assert sorted(read_metadata(path)) == METADATA_FIELDS
        meta = read_metadata(path)
        assert (meta["format"], meta["words"], meta["word_bytes"]) == (9, 10, 4)
        assert block(path) == b"".join(WORDS)

    def test_four_bytes_per_value(self, tmp_path):
        """The payload after the vocabulary block is every value as one little-endian
        float32, in block order."""
        bundle = small_bundle()[0]
        path = saved_checkpoint(tmp_path)
        blocks = [bundle.embeddings, *(a for _, a in bundle.model.param_blocks())]
        payload = path.read_bytes()[payload_start(path):]
        assert len(payload) == 4 * sum(a.size for a in blocks)
        assert payload == b"".join(a.astype("<f4").tobytes() for a in blocks)

    def test_save_twice_byte_identical(self, tmp_path):
        bundle = small_bundle()[0]
        first = tmp_path / "a.ckpt"
        second = tmp_path / "b.ckpt"
        save_checkpoint(bundle, first)
        save_checkpoint(bundle, second)
        assert first.read_bytes() == second.read_bytes()
        save_checkpoint(load_checkpoint(first), second)  # a loaded bundle saves the same bytes
        assert first.read_bytes() == second.read_bytes()

    def test_loads_are_read_only_and_independent(self, tmp_path):
        """Every loaded block is a read-only view; live loads share no memory, and each
        keeps its values through a later load."""
        path = saved_checkpoint(tmp_path)
        first, second = load_checkpoint(path), load_checkpoint(path)
        for bundle in (first, second):
            for name, a in [("embeddings", bundle.embeddings), *bundle.model.param_blocks()]:
                assert not a.flags.writeable, name
                with pytest.raises(ValueError, match="read-only"):
                    a[...] = 0.0
        assert not np.shares_memory(first.embeddings, second.embeddings)
        want = small_bundle()[0]
        third = load_checkpoint(path)
        for bundle in (first, second, third):
            for (_, a), (_, b) in zip(bundle.model.param_blocks(), want.model.param_blocks()):
                assert np.array_equal(a, b)
            assert np.array_equal(bundle.embeddings, want.embeddings)

    def test_save_over_the_mapped_file(self, tmp_path):
        """Saving a loaded bundle over its own file leaves the bytes as they were and the
        bundle readable: the save renames a new file over the old one, where writing the
        mapped file in place would truncate it under the mapping (SIGBUS)."""
        path = saved_checkpoint(tmp_path)
        raw = path.read_bytes()
        bundle = load_checkpoint(path)
        save_checkpoint(bundle, path)
        assert path.read_bytes() == raw
        assert sorted(tmp_path.iterdir()) == [path]
        blocks = [bundle.embeddings, *(a for _, a in bundle.model.param_blocks())]
        assert b"".join(a.tobytes() for a in blocks) == raw[payload_start(path):]

    def test_failed_save_leaves_no_file(self, tmp_path):
        """A save whose rename fails removes the file it wrote beside `path`."""
        (tmp_path / "model.ckpt").mkdir()
        with pytest.raises(OSError):
            save_checkpoint(small_bundle()[0], tmp_path / "model.ckpt")
        assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]

    def test_format_9_bytes_pinned(self, tmp_path):
        """A fixed 3-word, H=1, D=2 bundle saves to the same bytes as ever."""
        ramp = np.arange(-16, 16, dtype=np.float32) / 8  # exact in float32
        model = BiLstmClassifier(ramp[:12].reshape(4, 3), ramp[12:16], ramp[16:28].reshape(4, 3),
                                 ramp[28:32], np.float32([[0.5, -1], [2, 0.25]]),
                                 np.float32([-0.75, 3]))
        embeddings = np.float32([[0, 0], [0.5, -0.5], [1, 2], [-1.5, 0.25], [3, -4]])
        bundle = ModelBundle(task="recommendation", seq_len=7, seed=5,
                             vocab=np.array([b"a", b"it's", b"z9"], "S4"), model=model,
                             embeddings=embeddings, data_sha256=DATA_SHA256)
        path = tmp_path / "model.ckpt"
        save_checkpoint(bundle, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == FORMAT_9_SHA256
        assert load_checkpoint(path).vocab.tolist() == [b"a", b"it's", b"z9"]

    @pytest.mark.parametrize("n_words, word_bytes", [
        (0, 1), *((n, width) for n in (1, len(ALPHABET)) for width in range(1, 18))])
    def test_payload_starts_at_a_multiple_of_64(self, tmp_path, n_words, word_bytes):
        """The metadata line's trailing spaces align the float payload, whatever the
        vocabulary block's size."""
        words = [c * word_bytes for c in ALPHABET[:n_words]]
        bundle = small_bundle()[0]
        bundle = dataclasses.replace(bundle, vocab=np.array(words, dtype=f"S{word_bytes}"),
                                     embeddings=np.zeros((n_words + 2, 6), np.float32))
        path = tmp_path / "model.ckpt"
        save_checkpoint(bundle, path)
        assert payload_start(path) % 64 == 0
        assert read_metadata(path)["words"] == n_words
        loaded = load_checkpoint(path)
        assert loaded.vocab.tolist() == [w.encode() for w in words]
        assert loaded.embeddings.ctypes.data % 64 == 0

METADATA_FIELDS = ["cell_size", "data_sha256", "embedding_dim", "format",
                   "seed", "seq_len", "task", "word_bytes", "words"]


def read_metadata(path):
    raw = path.read_bytes()
    return json.loads(raw[len(MAGIC):raw.find(b"\n", len(MAGIC))])


def block_span(raw):
    """(start, end) of the vocabulary block, between the metadata line and the float32s."""
    start = raw.find(b"\n", len(MAGIC)) + 1
    meta = json.loads(raw[len(MAGIC):start - 1])
    return start, start + meta["words"] * meta["word_bytes"]


def block(path):
    raw = path.read_bytes()
    return raw[slice(*block_span(raw))]


def payload_start(path):
    """Offset of the first float32 after the vocabulary block."""
    return block_span(path.read_bytes())[1]


def unpadded(raw):
    """A checkpoint's bytes without the spaces that end its metadata line."""
    header_end = raw.find(b"\n", len(MAGIC))
    return raw[:header_end].rstrip(b" ") + raw[header_end:]


def replace_block(raw, new_block, words, word_bytes):
    """A checkpoint's bytes with its block replaced and `words`/`word_bytes` set as given."""
    start, end = block_span(raw)
    meta = json.loads(raw[len(MAGIC):start - 1])
    meta.update(words=words, word_bytes=word_bytes)
    return MAGIC + json.dumps(meta, sort_keys=True).encode() + b"\n" + new_block + raw[end:]


def with_words(words, width=None):
    """A corruption that rewrites the vocabulary block as `words`, each NUL-padded to
    `width` (by default the longest word's length), and the metadata to match."""
    def corrupt(raw):
        width_ = width or max(map(len, words))
        new_block = b"".join(word.ljust(width_, b"\0") for word in words)
        return replace_block(raw, new_block, len(words), width_)
    return corrupt


def rewrite_block(path, words, width=None):
    path.write_bytes(with_words(words, width)(path.read_bytes()))


def edit_metadata(path, edit):
    """Rewrite a checkpoint's JSON metadata line in place with edit(meta)."""
    raw = path.read_bytes()
    header_end = raw.find(b"\n", len(MAGIC))
    meta = json.loads(raw[len(MAGIC):header_end])
    edit(meta)
    path.write_bytes(MAGIC + json.dumps(meta, sort_keys=True).encode() + b"\n"
                     + raw[header_end + 1:])


def saved_checkpoint(tmp_path, dim=6):
    path = tmp_path / "model.ckpt"
    save_checkpoint(small_bundle(dim)[0], path)
    return path


def predict_exit_code(tmp_path, path):
    return main(["predict", "--out", str(tmp_path / "runs"),
                 "--checkpoint", str(path), "--text", "tok1"])


class TestRejections:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"not a checkpoint at all\n")
        with pytest.raises(InputError, match=r"not a checkpoint file \(bad magic\)"):
            load_checkpoint(path)

    def test_truncated_blocks(self, tmp_path):
        path = saved_checkpoint(tmp_path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-16])
        with pytest.raises(InputError, match="truncated checkpoint payload"):
            load_checkpoint(path)

    def test_trailing_bytes(self, tmp_path):
        path = saved_checkpoint(tmp_path)
        with open(path, "ab") as fh:
            fh.write(b"\x00" * 8)
        with pytest.raises(InputError, match="trailing bytes in checkpoint payload"):
            load_checkpoint(path)

    def test_tampered_metadata(self, tmp_path):
        path = saved_checkpoint(tmp_path)
        edit_metadata(path, lambda meta: meta.update(cell_size=99))
        with pytest.raises(InputError, match="cell_size"):
            load_checkpoint(path)

    def test_format_four_exits_two(self, tmp_path, capsys):
        """Format 4 stored its own block layout and class names; retrain to upgrade."""
        path = saved_checkpoint(tmp_path)

        def as_format_four(meta):
            del meta["data_sha256"]
            meta.update(format=4, class_names=["not_recommended", "recommended"],
                        blocks=[["embeddings", 12, 6], ["fwd.W", 16, 10], ["fwd.b", 16, 1],
                                ["bwd.W", 16, 10], ["bwd.b", 16, 1], ["head.W", 2, 8],
                                ["head.b", 2, 1]])

        edit_metadata(path, as_format_four)
        assert predict_exit_code(tmp_path, path) == 2
        assert "unsupported checkpoint format 4" in capsys.readouterr().err

    def test_format_five_exits_two(self, tmp_path, capsys):
        """Format 5 had format 6's layout but stored float64 blocks; retrain to upgrade."""
        bundle = small_bundle()[0]
        path = saved_checkpoint(tmp_path)
        path.write_bytes(as_format(6, path.read_bytes()))
        edit_metadata(path, lambda meta: meta.update(format=5))
        blocks = [bundle.embeddings, *(a for _, a in bundle.model.param_blocks())]
        raw = path.read_bytes()
        raw = raw[:raw.find(b"\n", len(MAGIC)) + 1]
        path.write_bytes(raw + b"".join(a.astype("<f8").tobytes() for a in blocks))
        assert predict_exit_code(tmp_path, path) == 2
        assert ("unsupported checkpoint format 5; retrain to upgrade to format 9"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("field, value", [("cell_size", 10**30), ("embedding_dim", 10**18),
                                              ("words", 10**30), ("word_bytes", 10**30)],
                             ids=["cell_size", "embedding_dim", "words", "word_bytes"])
    def test_huge_size_exits_two_without_allocating(self, tmp_path, capsys, monkeypatch,
                                                    field, value):
        """The size check is made in Python ints, before the buffer is allocated."""
        path = saved_checkpoint(tmp_path)
        edit_metadata(path, lambda meta: meta.update({field: value}))
        monkeypatch.setattr(np, "empty", None)  # any allocation attempt would exit 1
        assert predict_exit_code(tmp_path, path) == 2
        err = capsys.readouterr().err
        payload = path.stat().st_size - block_span(path.read_bytes())[0]  # block included
        assert f"truncated checkpoint payload: {payload} bytes" in err
        assert "words, word_bytes, embedding_dim, cell_size and task give" in err

    def test_non_zero_pad_row_exits_two(self, tmp_path, capsys):
        path = saved_checkpoint(tmp_path)
        raw = bytearray(path.read_bytes())
        start = payload_start(path)
        raw[start:start + 4] = np.array([1.0], dtype="<f4").tobytes()
        path.write_bytes(bytes(raw))
        assert predict_exit_code(tmp_path, path) == 2
        assert "padding row of block 'embeddings' must be zero" in capsys.readouterr().err

    def test_non_object_metadata_exits_two(self, tmp_path, capsys):
        path = saved_checkpoint(tmp_path)
        raw = path.read_bytes()
        header_end = raw.find(b"\n", len(MAGIC))
        path.write_bytes(MAGIC + b"[1, 2]\n" + raw[header_end + 1:])
        assert predict_exit_code(tmp_path, path) == 2
        assert "JSON object" in capsys.readouterr().err

    def test_deeply_nested_metadata_exits_two(self, tmp_path, capsys):
        path = tmp_path / "nested.ckpt"
        path.write_bytes(MAGIC + b"[" * 100_000 + b"\n")
        assert predict_exit_code(tmp_path, path) == 2
        assert "unreadable checkpoint metadata" in capsys.readouterr().err

    # A load checks finiteness in 65,536-element slices; at dim 8192 the table's
    # 98,304 elements span two: element 65,535 ends the first, and 65,536 starts the second.
    @pytest.mark.parametrize("block, element, value, dim", [
        *(pytest.param(block, -1, np.nan, 6, id=block)
          for block in ["embeddings", "fwd.W", "fwd.b", "bwd.W", "bwd.b", "head.W", "head.b"]),
        pytest.param("embeddings", 65535, np.inf, 8192, id="embeddings-slice-end"),
        pytest.param("embeddings", 65536, np.inf, 8192, id="embeddings-slice-start"),
        pytest.param("embeddings", -1, np.nan, 8192, id="embeddings-past-a-slice"),
        pytest.param("head.b", -1, -np.inf, 8192, id="head.b-past-a-slice"),
    ])
    def test_non_finite_weights_exit_two(self, tmp_path, capsys, block, element, value, dim):
        path = saved_checkpoint(tmp_path, dim)
        bundle = small_bundle(dim)[0]
        blocks = [("embeddings", bundle.embeddings), *bundle.model.param_blocks()]
        ends = dict(zip([name for name, _ in blocks], accumulate(a.size for _, a in blocks)))
        sizes = {name: a.size for name, a in blocks}
        offset = payload_start(path) + 4 * (ends[block] - sizes[block] + element % sizes[block])
        raw = bytearray(path.read_bytes())
        raw[offset:offset + 4] = np.array([value], dtype="<f4").tobytes()
        path.write_bytes(bytes(raw))
        assert predict_exit_code(tmp_path, path) == 2
        assert f"block {block!r} contains non-finite values" in capsys.readouterr().err

    def test_finiteness_check_allocates_no_block_sized_array(self, tmp_path):
        """A load checks each block in slices, so its traced peak stays far below the
        boolean array a whole-block check of the 524,352-element fwd.W would take."""
        path = saved_checkpoint(tmp_path, 2**15)
        tracemalloc.start()
        try:
            bundle = load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert bundle.model.fwd_W.size == 524_352
        assert peak < 2**18, peak

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_checkpoint(tmp_path / "absent.ckpt")


class TestMetadataFields:
    """Each malformed metadata field exits 2 with a message that names it."""

    @pytest.mark.parametrize("field, value", [
        ("seq_len", True),
        ("seq_len", 1.5),
        ("seq_len", 0),
        ("seed", True),
        ("seed", "3"),
        ("seed", None),
        ("embedding_dim", 0),
        ("data_sha256", 5),
        ("task", ["sentiment"]),
        ("task", None),
        ("cell_size", 4.0),
        ("cell_size", 0),
        ("embedding_dim", True),
        ("data_sha256", None),
        ("words", -1),
        ("words", 10.0),
        ("words", None),
        ("word_bytes", 0),
        ("word_bytes", True),
        ("word_bytes", "4"),
        ("seq_len", "twelve"),
    ])
    def test_wrong_type_exits_two(self, tmp_path, capsys, field, value):
        path = saved_checkpoint(tmp_path)
        edit_metadata(path, lambda meta: meta.update({field: value}))
        assert predict_exit_code(tmp_path, path) == 2
        assert f"{field!r} must be" in capsys.readouterr().err

    def test_huge_seq_len_predicts(self, tmp_path, capsys):
        """predict pads only to the text's own length, so seq_len may be any size."""
        path = saved_checkpoint(tmp_path)
        assert predict_exit_code(tmp_path, path) == 0
        expected = capsys.readouterr().out
        edit_metadata(path, lambda meta: meta.update(seq_len=10**12))
        assert predict_exit_code(tmp_path, path) == 0
        assert capsys.readouterr().out == expected

    @staticmethod
    def toy_run(tmp_path, seq_len):
        """`train` of the toy fixture at one epoch and seq_len: (exit code, its run directory,
        the data flags)."""
        data = tmp_path / "reviews.csv"
        write_csv(toy_reviews(), data)
        cfg = toy_config_file(tmp_path / f"{seq_len}.cfg", epochs=1, seq_len=seq_len)
        out = tmp_path / f"runs-{seq_len}"
        code = main(["train", "--data", str(data), "--out", str(out), "--config", str(cfg)])
        return code, out / "train-0001", ["--data", str(data), "--out", str(out)]

    def test_huge_seq_len_trains(self, tmp_path):
        """Index matrices are only as wide as the longest review (6 toy tokens)."""
        runs = [self.toy_run(tmp_path, seq_len) for seq_len in (8, 10**12)]
        assert [code for code, _, _ in runs] == [0, 0]
        assert len({(run / "history.csv").read_bytes() for _, run, _ in runs}) == 1

    def test_huge_seq_len_evaluates(self, tmp_path):
        code, run, flags = self.toy_run(tmp_path, 8)
        assert code == 0
        reports = []
        for seq_len in (8, 10**12):
            edit_metadata(run / "model.ckpt", lambda meta: meta.update(seq_len=seq_len))
            assert main(["evaluate", *flags, "--checkpoint", str(run / "model.ckpt")]) == 0
            reports.append((run.parent / f"evaluate-{len(reports) + 1:04d}" / "metrics.json")
                           .read_bytes())
        assert reports[0] == reports[1]


def as_format(number, raw):
    """A checkpoint's bytes in the layout of format 6 (the words as a JSON list in the
    metadata) or format 7 (the words on one space-joined line after the metadata)."""
    start, end = block_span(raw)
    meta = json.loads(raw[len(MAGIC):start - 1])
    width = meta.pop("word_bytes")
    words = [raw[i:i + width].rstrip(b"\0") for i in range(start, meta.pop("words") * width
                                                             + start, width)]
    if number == 6:
        meta.update(format=6, vocab=[w.decode() for w in words])
        return MAGIC + json.dumps(meta, sort_keys=True).encode() + b"\n" + raw[end:]
    meta.update(format=number)
    return (MAGIC + json.dumps(meta, sort_keys=True).encode() + b"\n" + b" ".join(words)
            + b"\n" + raw[end:])


def relabelled(number):
    """A corruption that rewrites a checkpoint in an older format's layout, labelled 9."""
    return lambda raw: as_format(number, raw).replace(b'"format": %d' % number,
                                                      b'"format": 9', 1)


def without_words(word_bytes):
    """A corruption that empties the vocabulary block, drops the words' embedding rows and
    sets `word_bytes` as given."""
    def corrupt(raw):
        start, end = block_span(raw)
        row = 4 * json.loads(raw[len(MAGIC):start - 1])["embedding_dim"]
        return replace_block(raw[:end + 2 * row] + raw[end + (2 + len(WORDS)) * row:], b"",
                             0, word_bytes)
    return corrupt


def with_metadata(**fields):
    def corrupt(raw):
        header_end = raw.find(b"\n", len(MAGIC))
        meta = {**json.loads(raw[len(MAGIC):header_end]), **fields}
        return MAGIC + json.dumps(meta, sort_keys=True).encode() + raw[header_end:]
    return corrupt


# What a load or save says of an entry out of order or repeated.
UNSORTED = "is not a [a-z0-9']+ word padded with NULs and sorting after the one before"


class TestVocabularyLine:
    """The vocabulary block, which replaced format 7's vocabulary line: the words after
    <pad> and <oov>, ascending, each NUL-padded to word_bytes."""

    def test_empty_vocabulary_round_trip(self, tmp_path):
        """A vocabulary of only <pad> and <oov> is an empty block of width 1."""
        bundle = small_bundle()[0]
        bundle = dataclasses.replace(bundle, vocab=np.array([], dtype="S"),
                                     embeddings=bundle.embeddings[:2])
        path = tmp_path / "empty.ckpt"
        save_checkpoint(bundle, path)
        assert (read_metadata(path)["words"], read_metadata(path)["word_bytes"]) == (0, 1)
        assert block(path) == b""
        loaded = load_checkpoint(path)
        assert loaded.vocab.tolist() == []
        assert np.array_equal(loaded.embeddings, bundle.embeddings)
        assert predict_exit_code(tmp_path, path) == 0
        assert (unpadded(without_words(1)(saved_checkpoint(tmp_path).read_bytes()))
                == unpadded(path.read_bytes()))

    def test_long_word_sizes_no_lookup(self, tmp_path, monkeypatch):
        """A token longer than every word matches none, and the words are searched cut to
        the text's longest token: with a 1,000,000-byte word, a 200-token lookup stays under 1 MiB."""
        long_word = b"a" * 10**6
        bundle = small_bundle()[0]
        bundle = dataclasses.replace(bundle, seq_len=200, vocab=np.array([long_word]),
                                     embeddings=bundle.embeddings[:3])
        path = tmp_path / "long.ckpt"
        save_checkpoint(bundle, path)
        loaded = load_checkpoint(path)
        assert encode([[long_word.decode(), "a"]], loaded.vocab, 2).tolist() == [[2, 1]]
        peaks = []

        def traced(token_lists, words, seq_len):
            tracemalloc.start()
            try:
                return encode(token_lists, words, seq_len)
            finally:
                peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

        monkeypatch.setattr(reviewlab.training, "encode", traced)
        text = " ".join(f"w{i}" for i in range(200))
        assert main(["predict", "--out", str(tmp_path / "runs"), "--checkpoint", str(path),
                     "--text", text]) == 0
        assert len(peaks) == 1 and peaks[0] < 2**20

    @pytest.mark.parametrize("words, message", [
        ([b"tok0", b"two words"], "entry 1 b'two words' is not a [a-z0-9']+ word"),
        ([b"", b"tok0"], "entry 0 b'\\x00\\x00\\x00\\x00' is not a [a-z0-9']+ word"),
        ([b"tab\tword"], "entry 0 b'tab\\tword' is not"),
        ([b"line\nbreak"], "entry 0 b'line\\nbreak' is not"),
        (["no\u2028break".encode()], "entry 0 b'no\\xe2\\x80\\xa8break' is not"),
        ([b"caf\xe9"], "entry 0 b'caf\\xe9' is not"),
        ([b"Tok0"], "entry 0 b'Tok0' is not"),
        ([b"<pad>"], "entry 0 b'<pad>' is not"),
        ([b"to\0k"], "entry 0 b'to\\x00k' is not"),
        ([b"tok1", b"tok0"], "entry 1 b'tok0' " + UNSORTED),
        ([b"tok0", b"tok0"], "entry 1 b'tok0' " + UNSORTED),
        (np.array([b"tok0"], dtype="S6"), "'word_bytes' 6 is not the longest word's length"),
        (np.array([], dtype="S5"), "'word_bytes' 5 is not the longest word's length (1 for none)"),
    ], ids=["space", "empty", "tab", "newline", "unicode-separator", "not-utf8", "uppercase",
            "pad", "interior-nul", "out-of-order", "repeated", "wider-than-longest-word",
            "no-words-five-bytes-wide"])
    def test_save_refuses_word_the_line_cannot_hold(self, tmp_path, words, message):
        """save_checkpoint refuses any word `tokenize` cannot make, and an unsorted block."""
        bundle = small_bundle()[0]
        bundle = dataclasses.replace(bundle, vocab=np.array(words),
                                     embeddings=bundle.embeddings[:2 + len(words)])
        with pytest.raises(ValueError, match=re.escape(message)):
            save_checkpoint(bundle, tmp_path / "model.ckpt")
        assert not (tmp_path / "model.ckpt").exists()

    @pytest.mark.parametrize("corrupt, message", [
        (lambda raw: raw[:block_span(raw)[1] - 3],
         "truncated checkpoint payload: "),
        (with_words([b"tok\xe9", *WORDS[1:]]),
         "bad checkpoint vocabulary: entry 0 b'tok\\xe9' is not a [a-z0-9']+ word padded"),
        (with_words([WORDS[0], WORDS[0], *WORDS[2:]]),
         "bad checkpoint vocabulary: entry 1 b'tok0' " + UNSORTED),
        (with_words([*WORDS[:9], b"<pad>"]), "entry 9 b'<pad>' is not a [a-z0-9']+ word"),
        (lambda raw: as_format(6, raw),
         "unsupported checkpoint format 6; retrain to upgrade to format 9"),
        (lambda raw: as_format(7, raw),
         "unsupported checkpoint format 7; retrain to upgrade to format 9"),
        (with_metadata(format=8),
         "unsupported checkpoint format 8; retrain to upgrade to format 9"),
        (relabelled(7), "'words' must be an integer >= 0, got None"),
        (relabelled(6), "'words' must be an integer >= 0, got None"),
        (with_words([WORDS[1], WORDS[0], *WORDS[2:]]),
         "entry 1 b'tok0' " + UNSORTED),
        (with_words([*WORDS[:4], b"", *WORDS[5:]], width=4),
         "entry 4 b'\\x00\\x00\\x00\\x00' is not a [a-z0-9']+ word"),
        (with_words([*WORDS[:3], b"to\0k3", *WORDS[4:]]),
         "entry 3 b'to\\x00k3' is not a [a-z0-9']+ word"),
        (with_words([*WORDS[:5], b"Tok5", *WORDS[6:]]), "entry 5 b'Tok5' is not"),
        (with_words([*WORDS[:5], "tok\u00e9".encode(), *WORDS[6:]]),
         "entry 5 b'tok\\xc3\\xa9' is not"),
        (with_words(WORDS, width=6), "'word_bytes' 6 is not the longest word's length"),
        (with_metadata(words=11), "truncated checkpoint payload: 1808 bytes, where words, "
                                  "word_bytes, embedding_dim, cell_size and task give 1836"),
        (with_metadata(words=9), "trailing bytes in checkpoint payload: 1808 bytes, where "
                                 "words, word_bytes, embedding_dim, cell_size and task give 1780"),
        (without_words(10**9), "'word_bytes' 1000000000 is not the longest word's length"),
        (without_words(10**30), "'word_bytes' 1000000000000000000000000000000 is not the "
                                "longest word's length"),
    ], ids=["truncated", "not-utf8", "repeated-word", "pad", "format-6", "format-7", "format-8",
            "relabelled-format-7", "relabelled-format-6", "out-of-order", "empty-entry",
            "interior-nul", "uppercase", "e-acute", "wider-than-longest-word",
            "more-words-than-the-file-holds", "fewer-words-than-the-file-holds",
            "no-words-billion-bytes-wide", "no-words-1e30-bytes-wide"])
    def test_malformed_line_exits_two(self, tmp_path, capsys, corrupt, message):
        """Every malformed block exits 2, naming the entry at fault."""
        path = saved_checkpoint(tmp_path)
        path.write_bytes(corrupt(path.read_bytes()))
        assert predict_exit_code(tmp_path, path) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "runs" / "predict-0001").exists()


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=8), inner, max_size=4)),
    max_leaves=12,
)


@functools.cache
def valid_checkpoint() -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        return saved_checkpoint(Path(tmp)).read_bytes()


def predict_exit_code_for_bytes(content: bytes) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.ckpt"
        path.write_bytes(content)
        return predict_exit_code(Path(tmp), path)


class TestFuzz:
    """Whatever a checkpoint holds, `predict` exits 0 or 2, never 1."""

    @given(field=st.sampled_from(METADATA_FIELDS), value=JSON_VALUES)
    @settings(max_examples=200, deadline=None)
    def test_any_value_in_one_field(self, field, value):
        raw = valid_checkpoint()
        header_end = raw.find(b"\n", len(MAGIC))
        meta = json.loads(raw[len(MAGIC):header_end])
        meta[field] = value
        content = MAGIC + json.dumps(meta).encode() + b"\n" + raw[header_end + 1:]
        assert predict_exit_code_for_bytes(content) in (0, 2)

    @given(width=st.integers(1, 8), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_any_bytes_in_the_vocabulary_line(self, width, data):
        """Any bytes in a vocabulary block of the size its metadata gives (the block
        replaced format 7's vocabulary line)."""
        size = len(WORDS) * width
        new_block = data.draw(st.binary(min_size=size, max_size=size)
                              | st.lists(st.sampled_from(b"ab'\0<A\xe9"), min_size=size,
                                         max_size=size).map(bytes))
        content = replace_block(valid_checkpoint(), new_block, len(WORDS), width)
        assert predict_exit_code_for_bytes(content) in (0, 2)


    @given(tail=st.binary(max_size=300))
    @settings(max_examples=200, deadline=None)
    def test_any_bytes_after_the_magic_line(self, tail):
        assert predict_exit_code_for_bytes(MAGIC + tail) in (0, 2)
