"""Tests for the deterministic checkpoint container."""

import functools
import json
import tempfile
from itertools import accumulate
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
from reviewlab.textprep import build_vocab, random_embeddings

DATA_SHA256 = "5" * 64


def small_bundle():
    """A float32 bundle, as `training.train` returns its model and table."""
    vocab = build_vocab([[f"tok{i}"] for i in range(10)], min_freq=1, max_size=20)
    model = BiLstmClassifier(*(a.astype(np.float32)
                               for a in BiLstmClassifier.build(4, 6, 2, SeededRng(1))))
    emb = random_embeddings(len(vocab), 6, SeededRng(2)).astype(np.float32)
    bundle = ModelBundle(
        task="recommendation",
        seq_len=12,
        seed=3,
        vocab=vocab,
        model=model,
        embeddings=emb,
        data_sha256=DATA_SHA256,
    )
    return bundle, vocab


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
        path = saved_checkpoint(tmp_path)
        edit_metadata(path, lambda meta: meta["vocab"].pop())
        with pytest.raises(InputError, match="trailing bytes in checkpoint payload: .*vocab"):
            load_checkpoint(path)


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
            assert b.dtype == np.float32
            assert np.array_equal(a, b)
        assert loaded.embeddings.dtype == np.float32
        assert np.array_equal(bundle.embeddings, loaded.embeddings)
        assert [n for n, _ in loaded.model.param_blocks()] == [
            "fwd.W", "fwd.b", "bwd.W", "bwd.b", "head.W", "head.b"]
        assert sorted(read_metadata(path)) == METADATA_FIELDS
        assert read_metadata(path)["format"] == 6

    def test_four_bytes_per_value(self, tmp_path):
        """The payload is every value as one little-endian float32, in block order."""
        bundle, _ = small_bundle()
        path = saved_checkpoint(tmp_path)
        blocks = [bundle.embeddings, *(a for _, a in bundle.model.param_blocks())]
        payload = path.read_bytes()[payload_start(path):]
        assert len(payload) == 4 * sum(a.size for a in blocks)
        assert payload == b"".join(a.astype("<f4").tobytes() for a in blocks)

    def test_save_twice_byte_identical(self, tmp_path):
        bundle, _ = small_bundle()
        first = tmp_path / "a.ckpt"
        second = tmp_path / "b.ckpt"
        save_checkpoint(bundle, first)
        save_checkpoint(bundle, second)
        assert first.read_bytes() == second.read_bytes()

METADATA_FIELDS = ["cell_size", "data_sha256", "embedding_dim", "format",
                   "seed", "seq_len", "task", "vocab"]


def read_metadata(path):
    raw = path.read_bytes()
    return json.loads(raw[len(MAGIC):raw.find(b"\n", len(MAGIC))])


def payload_start(path):
    """Offset of the first float32 after the metadata line."""
    return path.read_bytes().find(b"\n", len(MAGIC)) + 1


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
        """Format 5 had format 6's metadata but stored float64 blocks; retrain to upgrade."""
        bundle, _ = small_bundle()
        path = saved_checkpoint(tmp_path)
        edit_metadata(path, lambda meta: meta.update(format=5))
        blocks = [bundle.embeddings, *(a for _, a in bundle.model.param_blocks())]
        raw = path.read_bytes()[:payload_start(path)]
        path.write_bytes(raw + b"".join(a.astype("<f8").tobytes() for a in blocks))
        assert predict_exit_code(tmp_path, path) == 2
        assert ("unsupported checkpoint format 5; retrain to upgrade to format 6"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("field, value", [("cell_size", 10**30), ("embedding_dim", 10**18)],
                             ids=["cell_size", "embedding_dim"])
    def test_huge_size_exits_two_without_allocating(self, tmp_path, capsys, monkeypatch,
                                                    field, value):
        """The size check is made in Python ints, before the buffer is allocated."""
        path = saved_checkpoint(tmp_path)
        edit_metadata(path, lambda meta: meta.update({field: value}))
        monkeypatch.setattr(np, "empty", None)  # any allocation attempt would exit 1
        assert predict_exit_code(tmp_path, path) == 2
        err = capsys.readouterr().err
        payload = path.stat().st_size - payload_start(path)
        assert f"truncated checkpoint payload: {payload} bytes" in err
        assert "vocab, embedding_dim, cell_size and task give" in err

    def test_non_zero_pad_row_exits_two(self, tmp_path, capsys):
        path = saved_checkpoint(tmp_path)
        raw = bytearray(path.read_bytes())
        start = payload_start(path)
        raw[start:start + 4] = np.array([1.0], dtype="<f4").tobytes()
        path.write_bytes(bytes(raw))
        assert predict_exit_code(tmp_path, path) == 2
        assert "padding row of block 'embeddings' must be zero" in capsys.readouterr().err

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

    @pytest.mark.parametrize("block", ["embeddings", "fwd.W", "fwd.b", "bwd.W", "bwd.b",
                                       "head.W", "head.b"])
    def test_non_finite_weights_exit_two(self, tmp_path, capsys, block):
        path = saved_checkpoint(tmp_path)
        bundle = small_bundle()[0]
        blocks = [("embeddings", bundle.embeddings), *bundle.model.param_blocks()]
        ends = dict(zip([name for name, _ in blocks], accumulate(a.size for _, a in blocks)))
        offset = payload_start(path) + 4 * (ends[block] - 1)  # the block's last value
        raw = bytearray(path.read_bytes())
        raw[offset:offset + 4] = np.array([np.nan], dtype="<f4").tobytes()
        path.write_bytes(bytes(raw))
        assert predict_exit_code(tmp_path, path) == 2
        assert f"block {block!r} contains non-finite values" in capsys.readouterr().err

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
        ("vocab", "tok0 tok1"),
        ("vocab", None),
        ("task", ["sentiment"]),
        ("task", None),
        ("cell_size", 4.0),
        ("cell_size", 0),
        ("embedding_dim", True),
        ("data_sha256", None),
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
