"""Fuzz the text inputs through `cli.main`: whatever a file holds, exit 0 or 2, never 1.

Covers the review CSV, the lexicon, the embeddings file, and the
hyper-parameters and path values of the config file; the checkpoint has
its own fuzz suite in test_checkpoint.py. Each input is small and every
run is a toy one (at most one epoch on the 40-review fixture), so no
example can start a long run or a large allocation.
"""

import json
import re
import tempfile
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from reviewlab.cli import main
from reviewlab.dataset import write_csv
from reviewlab.training import TrainConfig
from toy import toy_config_file, toy_reviews

FUZZ = settings(max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


@pytest.fixture
def toy_csv(tmp_path):
    path = tmp_path / "reviews.csv"
    write_csv(toy_reviews(), path)
    return path


def exit_code(tmp_path, name, content, argv):
    """Write content (bytes or str) to a fresh file and run argv(file, run root)."""
    with tempfile.TemporaryDirectory(dir=tmp_path) as tmp:
        path = Path(tmp) / name
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content, encoding="utf-8")
        return main(argv(path, Path(tmp) / "runs"))


def spliced(base: bytes):
    """base with a short run of arbitrary bytes written over it at any offset."""
    return st.tuples(st.integers(0, len(base)), st.binary(max_size=40)).map(
        lambda cut: base[:cut[0]] + cut[1] + base[cut[0] + len(cut[1]):])


def toy_csv_bytes() -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        write_csv(toy_reviews(), Path(tmp) / "reviews.csv")
        return (Path(tmp) / "reviews.csv").read_bytes()


TOY_CSV = toy_csv_bytes()
CSV_HEADER = TOY_CSV.split(b"\n", 1)[0] + b"\n"
CSV_BYTES = (st.binary(max_size=2000)
             | st.text(max_size=1500).map(lambda text: CSV_HEADER + text.encode())
             | spliced(TOY_CSV))

VALUE_TEXT = st.sampled_from(["1.5", "-4", "4.0", "9", "nan", "inf", "-inf", "1e-400", "x", ""])
LEXICON_LINES = st.lists(
    st.tuples(st.sampled_from(["good", "bad", "dress", "", "not"]), VALUE_TEXT,
              st.sampled_from(["\t", " ", "\t\t"])).map(lambda t: f"{t[0]}{t[2]}{t[1]}"),
    max_size=8,
).map(lambda lines: "\n".join(lines) + "\n")

EMBEDDING_DIM = 3
COMPONENT = (st.sampled_from(["0.1", "-2", "nan", "inf", "-inf", "1e400", "1e-400", "x", ""])
             | st.floats(allow_nan=True, allow_infinity=True).map(repr))
EMBEDDING_LINES = st.lists(
    st.tuples(st.sampled_from(["good", "bad", "dress", "<pad>", "<oov>", "zzz"]),
              st.lists(COMPONENT, min_size=EMBEDDING_DIM - 1, max_size=EMBEDDING_DIM + 1))
    .map(lambda t: " ".join([t[0], *t[1]])),
    max_size=6,
).map(lambda lines: "\n".join(lines) + "\n")

# Every code point. Drawn from the whole range, a lone surrogate is rare, so the
# surrogate block gets as many draws as the rest.
CODE_POINT = st.characters(exclude_categories=()) | st.characters(categories=("Cs",))
# A path relative to a fresh directory that does not leave it.
PATH_TEXT = st.text(CODE_POINT, max_size=12).filter(lambda v: ".." not in v.split("/"))

FLOAT_LITERALS = st.sampled_from(["nan", "-nan", "NaN", "inf", "-inf", "Infinity", "1e-400",
                                  "1e400", "-0.0", "0", "0.5", "1e300"])


class TestCsv:
    @given(content=CSV_BYTES)
    @FUZZ
    def test_analyze(self, tmp_path, content):
        code = exit_code(tmp_path, "reviews.csv", content,
                         lambda path, out: ["analyze", "--data", str(path), "--out", str(out)])
        assert code in (0, 2)

    @given(content=CSV_BYTES)
    @FUZZ
    def test_label(self, tmp_path, content):
        code = exit_code(tmp_path, "reviews.csv", content,
                         lambda path, out: ["label", "--data", str(path), "--out", str(out)])
        assert code in (0, 2)


class TestLexicon:
    @given(content=st.binary(max_size=500) | LEXICON_LINES)
    @FUZZ
    def test_label(self, tmp_path, toy_csv, content):
        code = exit_code(tmp_path, "lexicon.tsv", content, lambda path, out: [
            "label", "--data", str(toy_csv), "--out", str(out), "--lexicon", str(path)])
        assert code in (0, 2)


class TestEmbeddings:
    @given(content=st.binary(max_size=500) | EMBEDDING_LINES)
    @FUZZ
    def test_train(self, tmp_path, toy_csv, content):
        cfg = toy_config_file(tmp_path / "toy.cfg", epochs=0, embedding_dim=EMBEDDING_DIM)
        code = exit_code(tmp_path, "vectors.txt", content, lambda path, out: [
            "train", "--data", str(toy_csv), "--out", str(out), "--config", str(cfg),
            "--embeddings", str(path)])
        assert code in (0, 2)


class TestFloatHyperParameters:
    @given(key=st.sampled_from(["learning_rate", "dropout_rate", "grad_clip"]),
           value=st.text(max_size=12) | FLOAT_LITERALS)
    @example(key="learning_rate", value="1e300")  # overflows the float32 weights
    @FUZZ
    def test_train(self, tmp_path, toy_csv, key, value):
        with tempfile.TemporaryDirectory(dir=tmp_path) as tmp:
            cfg = toy_config_file(Path(tmp) / "toy.cfg", epochs=1, **{key: value})
            assert main(["train", "--data", str(toy_csv), "--out", str(Path(tmp) / "runs"),
                         "--config", str(cfg)]) in (0, 2)


class TestHyperParameterNumbers:
    @given(key=st.sampled_from([field.name for field in fields(TrainConfig)]),
           value=st.integers() | st.floats())
    @FUZZ
    def test_analyze(self, tmp_path, toy_csv, capsys, key, value):
        """Any number for any hyper-parameter: analyze runs, or refuses it at its line."""
        code = exit_code(tmp_path, "s.cfg", f"{key}={value!r}\n", lambda path, out: [
            "analyze", "--data", str(toy_csv), "--out", str(out), "--config", str(path)])
        assert code in (0, 2)
        if code == 2:
            assert re.match(r"error: .*s\.cfg: line 1: ", capsys.readouterr().err)


class TestConfigPaths:
    @given(data=PATH_TEXT | st.just("reviews.csv"), out=PATH_TEXT)
    @FUZZ
    def test_analyze(self, tmp_path, data, out):
        """Each path key of analyze as a JSON string literal."""
        with tempfile.TemporaryDirectory(dir=tmp_path) as tmp:
            write_csv(toy_reviews(), Path(tmp) / "reviews.csv")
            cfg = Path(tmp) / "paths.cfg"
            cfg.write_text(f"data = {json.dumps(f'{tmp}/{data}')}\n"
                           f"out = {json.dumps(f'{tmp}/{out}')}\n", encoding="utf-8")
            assert main(["analyze", "--config", str(cfg)]) in (0, 2)
