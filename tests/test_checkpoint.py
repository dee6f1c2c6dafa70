"""Tests for the deterministic checkpoint container."""

import functools
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reviewlab.checkpoint import MAGIC, ModelBundle, load_checkpoint, save_checkpoint
from reviewlab.cli import main
from reviewlab.errors import InputError
from reviewlab.nn import BiLstmClassifier
from reviewlab.rng import SeededRng
from reviewlab.textprep import Vocab, build_vocab, random_embeddings


def small_bundle():
    vocab = build_vocab([[f"tok{i}"] for i in range(10)], min_freq=1, max_size=20)
    model = BiLstmClassifier.build(4, 6, 2, SeededRng(1))
    emb = random_embeddings(len(vocab), 6, SeededRng(2))
    bundle = ModelBundle(
        task="recommendation",
        class_names=("not_recommended", "recommended"),
        seq_len=12,
        seed=3,
        vocab=vocab,
        model=model,
        embeddings=emb,
    )
    return bundle, vocab


class TestBundleValidation:
    def test_properties(self):
        bundle, _ = small_bundle()
        assert bundle.cell_size == 4
        assert bundle.embedding_dim == 6
        assert bundle.n_classes == 2

    def test_unknown_task_rejected(self):
        bundle, _ = small_bundle()
        with pytest.raises(ValueError, match="task"):
            ModelBundle(task="ranking", class_names=bundle.class_names,
                        seq_len=12, seed=3, vocab=bundle.vocab,
                        model=bundle.model, embeddings=bundle.embeddings)

    def test_class_name_count_enforced(self):
        bundle, _ = small_bundle()
        with pytest.raises(ValueError, match="class names"):
            ModelBundle(task="recommendation", class_names=("only",),
                        seq_len=12, seed=3, vocab=bundle.vocab,
                        model=bundle.model, embeddings=bundle.embeddings)

    def test_embedding_dim_mismatch_rejected(self):
        bundle, _ = small_bundle()
        wrong = random_embeddings(12, 7, SeededRng(3))
        with pytest.raises(ValueError, match="dim"):
            ModelBundle(task="recommendation", class_names=bundle.class_names,
                        seq_len=12, seed=3, vocab=bundle.vocab,
                        model=bundle.model, embeddings=wrong)

    def test_vocab_size_must_match_embedding_rows(self):
        bundle, _ = small_bundle()
        with pytest.raises(ValueError, match="11 vocabulary tokens for 12 embedding rows"):
            ModelBundle(task="recommendation", class_names=bundle.class_names,
                        seq_len=12, seed=3, vocab=Vocab([f"w{i}" for i in range(9)]),
                        model=bundle.model, embeddings=bundle.embeddings)


class TestRoundTrip:
    def test_blocks_bit_exact(self, tmp_path):
        bundle, vocab = small_bundle()
        path = tmp_path / "model.ckpt"
        save_checkpoint(bundle, path)
        loaded = load_checkpoint(path)
        assert loaded.task == bundle.task
        assert loaded.class_names == bundle.class_names
        assert loaded.seq_len == bundle.seq_len
        assert loaded.seed == 3
        assert loaded.vocab.tokens() == vocab.tokens()
        for (name_a, a), (name_b, b) in zip(bundle.model.param_blocks(),
                                            loaded.model.param_blocks()):
            assert name_a == name_b
            assert np.array_equal(a, b)
        assert np.array_equal(bundle.embeddings.table, loaded.embeddings.table)
        assert [n for n, _ in loaded.model.param_blocks()] == [
            "fwd.W", "fwd.b", "bwd.W", "bwd.b", "head.W", "head.b"]
        assert sorted(read_metadata(path)) == METADATA_FIELDS
        assert read_metadata(path)["format"] == 4

    def test_save_twice_byte_identical(self, tmp_path):
        bundle, _ = small_bundle()
        first = tmp_path / "a.ckpt"
        second = tmp_path / "b.ckpt"
        save_checkpoint(bundle, first)
        save_checkpoint(bundle, second)
        assert first.read_bytes() == second.read_bytes()

METADATA_FIELDS = ["blocks", "cell_size", "class_names", "embedding_dim", "format",
                   "seed", "seq_len", "task", "vocab"]


def read_metadata(path):
    raw = path.read_bytes()
    return json.loads(raw[len(MAGIC):raw.find(b"\n", len(MAGIC))])


def edit_metadata(path, edit):
    """Rewrite a checkpoint's JSON metadata line in place with edit(meta)."""
    raw = path.read_bytes()
    header_end = raw.find(b"\n", len(MAGIC))
    meta = json.loads(raw[len(MAGIC):header_end])
    edit(meta)
    path.write_bytes(MAGIC + json.dumps(meta, sort_keys=True).encode() + b"\n"
                     + raw[header_end + 1:])


def saved_checkpoint(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(small_bundle()[0], path)
    return path


def predict_exit_code(tmp_path, path):
    return main(["predict", "--out", str(tmp_path / "runs"),
                 "--checkpoint", str(path), "--text", "tok1"])


class TestRejections:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"not a checkpoint at all\n")
        with pytest.raises(InputError, match="magic"):
            load_checkpoint(path)

    def test_truncated_blocks(self, tmp_path):
        path = saved_checkpoint(tmp_path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-16])
        with pytest.raises(InputError, match="truncated"):
            load_checkpoint(path)

    def test_trailing_bytes(self, tmp_path):
        path = saved_checkpoint(tmp_path)
        with open(path, "ab") as fh:
            fh.write(b"\x00" * 8)
        with pytest.raises(InputError, match="trailing"):
            load_checkpoint(path)

    def test_tampered_metadata(self, tmp_path):
        path = saved_checkpoint(tmp_path)
        edit_metadata(path, lambda meta: meta.update(cell_size=99))
        with pytest.raises(InputError, match="cell_size"):
            load_checkpoint(path)

    def test_unsupported_format_version(self, tmp_path, capsys):
        """Format-3 files (the vocabulary kept in a separate file) are rejected by version."""
        path = saved_checkpoint(tmp_path)
        edit_metadata(path, lambda meta: meta.update(format=3))
        assert predict_exit_code(tmp_path, path) == 2
        assert "unsupported checkpoint format 3" in capsys.readouterr().err

    def test_missing_blocks_list_exits_two(self, tmp_path, capsys):
        path = saved_checkpoint(tmp_path)
        edit_metadata(path, lambda meta: meta.pop("blocks"))
        assert predict_exit_code(tmp_path, path) == 2
        assert "blocks" in capsys.readouterr().err

    def test_float_block_size_exits_two(self, tmp_path, capsys):
        path = saved_checkpoint(tmp_path)

        def float_rows(meta):
            meta["blocks"][1][1] = float(meta["blocks"][1][1])

        edit_metadata(path, float_rows)
        assert predict_exit_code(tmp_path, path) == 2
        assert "blocks" in capsys.readouterr().err

    def test_empty_block_of_impossible_width_exits_two(self, tmp_path, capsys):
        path = saved_checkpoint(tmp_path)
        edit_metadata(path, lambda meta: meta["blocks"].append(["extra", 0, 10**30]))
        assert predict_exit_code(tmp_path, path) == 2
        assert "block 'extra' cannot be 0 x " in capsys.readouterr().err

    def test_non_integer_seq_len_rejected(self, tmp_path):
        path = saved_checkpoint(tmp_path)
        edit_metadata(path, lambda meta: meta.update(seq_len="twelve"))
        with pytest.raises(InputError, match="inconsistent"):
            load_checkpoint(path)

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

    @pytest.mark.parametrize("block", ["fwd.W", "fwd.b", "bwd.W", "bwd.b", "head.W", "head.b"])
    def test_non_finite_weights_exit_two(self, tmp_path, capsys, block):
        path = saved_checkpoint(tmp_path)
        raw = bytearray(path.read_bytes())
        header_end = raw.find(b"\n", len(MAGIC))
        offset = header_end + 1
        for name, rows, cols in json.loads(raw[len(MAGIC):header_end])["blocks"]:
            if name == block:
                break
            offset += 8 * rows * cols
        raw[offset:offset + 8] = np.array([np.nan], dtype="<f8").tobytes()
        path.write_bytes(bytes(raw))
        assert predict_exit_code(tmp_path, path) == 2
        assert f"block {block!r} contains non-finite values" in capsys.readouterr().err

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_checkpoint(tmp_path / "absent.ckpt")


def drop_rows(path, block, keep):
    """Cut a block of a checkpoint down to its first `keep` rows."""
    raw = path.read_bytes()
    header_end = raw.find(b"\n", len(MAGIC))
    meta = json.loads(raw[len(MAGIC):header_end])
    payload, offset = [], header_end + 1
    for entry in meta["blocks"]:
        name, rows, cols = entry
        nbytes = 8 * rows * cols
        if name == block:
            entry[1] = keep
            nbytes_kept = 8 * keep * cols
        else:
            nbytes_kept = nbytes
        payload.append(raw[offset:offset + nbytes_kept])
        offset += nbytes
    path.write_bytes(MAGIC + json.dumps(meta, sort_keys=True).encode() + b"\n"
                     + b"".join(payload))


class TestMetadataFields:
    """Each malformed metadata field exits 2 with a message that names it."""

    @pytest.mark.parametrize("field, value", [
        ("seq_len", True),
        ("seq_len", 1.5),
        ("seq_len", 0),
        ("seed", True),
        ("seed", "3"),
        ("seed", None),
        ("class_names", "ny"),
        ("class_names", [1, 2]),
        ("class_names", ["same", "same"]),
        ("vocab", "tok0 tok1"),
        ("vocab", None),
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

    def test_reserved_token_in_vocab_exits_two(self, tmp_path, capsys):
        """<pad> and <oov> are implied at indices 0 and 1; listing one again is a repeat."""
        path = saved_checkpoint(tmp_path)
        edit_metadata(path, lambda meta: meta["vocab"].__setitem__(0, "<oov>"))
        assert predict_exit_code(tmp_path, path) == 2
        assert "'<oov>' repeats" in capsys.readouterr().err

    def test_empty_embedding_table_exits_two(self, tmp_path, capsys):
        path = saved_checkpoint(tmp_path)
        drop_rows(path, "embeddings", 0)
        edit_metadata(path, lambda meta: meta.update(vocab=[]))
        assert predict_exit_code(tmp_path, path) == 2
        assert "embedding table must be 2-D with at least the pad and oov rows" in (
            capsys.readouterr().err)

    @pytest.mark.parametrize("class_names", [[], ["only"]])
    def test_zero_class_head_exits_two(self, tmp_path, capsys, class_names):
        path = saved_checkpoint(tmp_path)
        drop_rows(path, "head.W", 0)
        drop_rows(path, "head.b", 0)
        edit_metadata(path, lambda meta: meta.update(class_names=class_names))
        assert predict_exit_code(tmp_path, path) == 2
        assert "class" in capsys.readouterr().err


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

    @given(tail=st.binary(max_size=300))
    @settings(max_examples=200, deadline=None)
    def test_any_bytes_after_the_magic_line(self, tail):
        assert predict_exit_code_for_bytes(MAGIC + tail) in (0, 2)
