"""Tests for the deterministic checkpoint container."""

import json

import numpy as np
import pytest

from reviewlab.checkpoint import MAGIC, ModelBundle, load_checkpoint, save_checkpoint
from reviewlab.cli import main
from reviewlab.errors import InputError
from reviewlab.nn import BiLstmClassifier
from reviewlab.rng import SeededRng
from reviewlab.textprep import build_vocab, random_embeddings, save_vocab


def small_bundle():
    vocab = build_vocab([[f"tok{i}"] for i in range(10)], min_freq=1, max_size=20)
    model = BiLstmClassifier.build(4, 6, 2, SeededRng(1))
    emb = random_embeddings(len(vocab), 6, SeededRng(2))
    bundle = ModelBundle(
        task="recommendation",
        class_names=("not_recommended", "recommended"),
        seq_len=12,
        vocab_fingerprint=vocab.fingerprint(),
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
                        seq_len=12, vocab_fingerprint=bundle.vocab_fingerprint,
                        model=bundle.model, embeddings=bundle.embeddings)

    def test_class_name_count_enforced(self):
        bundle, _ = small_bundle()
        with pytest.raises(ValueError, match="class names"):
            ModelBundle(task="recommendation", class_names=("only",),
                        seq_len=12, vocab_fingerprint=bundle.vocab_fingerprint,
                        model=bundle.model, embeddings=bundle.embeddings)

    def test_embedding_dim_mismatch_rejected(self):
        bundle, _ = small_bundle()
        wrong = random_embeddings(12, 7, SeededRng(3))
        with pytest.raises(ValueError, match="dim"):
            ModelBundle(task="recommendation", class_names=bundle.class_names,
                        seq_len=12, vocab_fingerprint=bundle.vocab_fingerprint,
                        model=bundle.model, embeddings=wrong)


class TestRoundTrip:
    def test_blocks_bit_exact(self, tmp_path):
        bundle, vocab = small_bundle()
        path = tmp_path / "model.ckpt"
        save_checkpoint(bundle, path)
        loaded = load_checkpoint(path, vocab=vocab)
        assert loaded.task == bundle.task
        assert loaded.class_names == bundle.class_names
        assert loaded.seq_len == bundle.seq_len
        assert loaded.vocab_fingerprint == bundle.vocab_fingerprint
        for (name_a, a), (name_b, b) in zip(bundle.model.param_blocks(),
                                            loaded.model.param_blocks()):
            assert name_a == name_b
            assert np.array_equal(a, b)
        assert np.array_equal(bundle.embeddings.table, loaded.embeddings.table)
        assert [n for n, _ in loaded.model.param_blocks()] == [
            "fwd.W", "fwd.b", "bwd.W", "bwd.b", "head.W", "head.b"]

    def test_save_twice_byte_identical(self, tmp_path):
        bundle, _ = small_bundle()
        first = tmp_path / "a.ckpt"
        second = tmp_path / "b.ckpt"
        save_checkpoint(bundle, first)
        save_checkpoint(bundle, second)
        assert first.read_bytes() == second.read_bytes()

    def test_load_without_vocab_skips_fingerprint_check(self, tmp_path):
        bundle, _ = small_bundle()
        path = tmp_path / "model.ckpt"
        save_checkpoint(bundle, path)
        assert load_checkpoint(path).task == "recommendation"


def edit_metadata(path, edit):
    """Rewrite a checkpoint's JSON metadata line in place with edit(meta)."""
    raw = path.read_bytes()
    header_end = raw.find(b"\n", len(MAGIC))
    meta = json.loads(raw[len(MAGIC):header_end])
    edit(meta)
    path.write_bytes(MAGIC + json.dumps(meta, sort_keys=True).encode() + b"\n"
                     + raw[header_end + 1:])


class TestRejections:
    def ckpt(self, tmp_path):
        bundle, vocab = small_bundle()
        path = tmp_path / "model.ckpt"
        save_checkpoint(bundle, path)
        return path, vocab

    def predict_exit_code(self, tmp_path, path, vocab):
        save_vocab(vocab, path.with_name("vocab.tsv"))
        return main(["predict", "--out", str(tmp_path / "runs"),
                     "--checkpoint", str(path), "--text", "tok1"])

    def test_wrong_vocab_fingerprint(self, tmp_path):
        path, _ = self.ckpt(tmp_path)
        other = build_vocab([["different"]], min_freq=1, max_size=5)
        with pytest.raises(InputError, match="fingerprint"):
            load_checkpoint(path, vocab=other)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"not a checkpoint at all\n")
        with pytest.raises(InputError, match="magic"):
            load_checkpoint(path)

    def test_truncated_blocks(self, tmp_path):
        path, _ = self.ckpt(tmp_path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-16])
        with pytest.raises(InputError, match="truncated"):
            load_checkpoint(path)

    def test_trailing_bytes(self, tmp_path):
        path, _ = self.ckpt(tmp_path)
        with open(path, "ab") as fh:
            fh.write(b"\x00" * 8)
        with pytest.raises(InputError, match="trailing"):
            load_checkpoint(path)

    def test_tampered_metadata(self, tmp_path):
        path, _ = self.ckpt(tmp_path)
        edit_metadata(path, lambda meta: meta.update(cell_size=99))
        with pytest.raises(InputError, match="cell_size"):
            load_checkpoint(path)

    def test_unsupported_format_version(self, tmp_path):
        """Format-2 files (a model that also stepped over padding) are rejected by version."""
        path, _ = self.ckpt(tmp_path)
        edit_metadata(path, lambda meta: meta.update(format=2))
        with pytest.raises(InputError, match="unsupported checkpoint format 2"):
            load_checkpoint(path)

    def test_missing_blocks_list_exits_two(self, tmp_path, capsys):
        path, vocab = self.ckpt(tmp_path)
        edit_metadata(path, lambda meta: meta.pop("blocks"))
        assert self.predict_exit_code(tmp_path, path, vocab) == 2
        assert "blocks" in capsys.readouterr().err

    def test_float_block_size_exits_two(self, tmp_path, capsys):
        path, vocab = self.ckpt(tmp_path)

        def float_rows(meta):
            meta["blocks"][1][1] = float(meta["blocks"][1][1])

        edit_metadata(path, float_rows)
        assert self.predict_exit_code(tmp_path, path, vocab) == 2
        assert "blocks" in capsys.readouterr().err

    def test_non_integer_seq_len_rejected(self, tmp_path):
        path, _ = self.ckpt(tmp_path)
        edit_metadata(path, lambda meta: meta.update(seq_len="twelve"))
        with pytest.raises(InputError, match="inconsistent"):
            load_checkpoint(path)

    def test_non_object_metadata_exits_two(self, tmp_path, capsys):
        path, vocab = self.ckpt(tmp_path)
        raw = path.read_bytes()
        header_end = raw.find(b"\n", len(MAGIC))
        path.write_bytes(MAGIC + b"[1, 2]\n" + raw[header_end + 1:])
        assert self.predict_exit_code(tmp_path, path, vocab) == 2
        assert "JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("block", ["fwd.W", "fwd.b", "bwd.W", "bwd.b", "head.W", "head.b"])
    def test_non_finite_weights_exit_two(self, tmp_path, capsys, block):
        path, vocab = self.ckpt(tmp_path)
        raw = bytearray(path.read_bytes())
        header_end = raw.find(b"\n", len(MAGIC))
        offset = header_end + 1
        for name, rows, cols in json.loads(raw[len(MAGIC):header_end])["blocks"]:
            if name == block:
                break
            offset += 8 * rows * cols
        raw[offset:offset + 8] = np.array([np.nan], dtype="<f8").tobytes()
        path.write_bytes(bytes(raw))
        assert self.predict_exit_code(tmp_path, path, vocab) == 2
        assert f"block {block!r} contains non-finite values" in capsys.readouterr().err

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_checkpoint(tmp_path / "absent.ckpt")
