"""End-to-end tests for the command-line pipeline."""

import gc
import importlib
import json
import math
import os
import pkgutil
import re
import subprocess
import sys
from collections import Counter
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

import reviewlab
import reviewlab.cli
from reviewlab.analytics import full_report
from reviewlab.checkpoint import TASK_CLASSES, load_checkpoint, save_checkpoint
from reviewlab.cli import _write_lines, main
from reviewlab.dataset import COLUMNS, parse_csv, split_60_20_20, write_csv
from reviewlab.errors import InputError
from reviewlab.nn import BiLstmClassifier, block_shapes
from reviewlab.sentiment import BUILTIN_LEXICON, auto_label_dataset
from reviewlab.textprep import tokenize
from toy import snapshot, toy_config, toy_config_file, toy_reviews
from reviewlab.training import TrainConfig, tokenized_splits


@pytest.fixture
def data_csv(tmp_path):
    path = tmp_path / "reviews.csv"
    write_csv(toy_reviews(), path)
    return path


@pytest.fixture
def toy_cfg_file(tmp_path):
    return toy_config_file(tmp_path / "toy.cfg")


def train_run(tmp_path, data_csv, toy_cfg_file):
    out = tmp_path / "runs"
    code = main(["train", "--data", str(data_csv), "--out", str(out),
                 "--config", str(toy_cfg_file)])
    assert code == 0
    return out / "train-0001"


class TestAnalyze:
    def test_writes_one_file_per_table(self, tmp_path, data_csv):
        out = tmp_path / "runs"
        assert main(["analyze", "--data", str(data_csv), "--out", str(out)]) == 0
        run_dir = out / "analyze-0001"
        expected = set(full_report(toy_reviews()))
        written = {p.stem for p in run_dir.glob("*.csv")}
        assert expected <= written
        assert (run_dir / "analysis.json").exists()
        assert (run_dir / "config.txt").exists()

    def test_one_product_has_an_empty_grouped_correlation(self, tmp_path):
        """One Clothing ID is one group: the aggregates correlate with nothing."""
        data = tmp_path / "one-product.csv"
        write_csv([r._replace(clothing_id=7) for r in toy_reviews()], data)
        out = tmp_path / "runs"
        assert main(["analyze", "--data", str(data), "--out", str(out)]) == 0
        assert (out / "analyze-0001" / "grouped_corr__by_clothing_id.csv").read_text() == (
            "variable,mean_rating,review_count,mean_recommended\n"
            "mean_rating,1.0,,\n"
            "review_count,,1.0,\n"
            "mean_recommended,,,1.0\n"
        )

    def test_all_rows_malformed_still_report(self, tmp_path):
        """With every row an issue, the issues are written and every statistic is empty."""
        data = tmp_path / "all-malformed.csv"
        write_csv([r._replace(rating=9) for r in toy_reviews()], data)
        out = tmp_path / "runs"
        assert main(["analyze", "--data", str(data), "--out", str(out)]) == 0
        run_dir = out / "analyze-0001"
        issues = (run_dir / "issues.txt").read_text().splitlines()
        assert len(issues) == 40 and all("Rating out of range: 9" in i for i in issues)
        rows = (run_dir / "describe__numeric.csv").read_text().splitlines()[1:]
        assert rows and all(row.endswith(",,,,,0") for row in rows)
        described = json.loads((run_dir / "analysis.json").read_text())["describe__numeric"]
        assert [row[1:] for row in described["rows"]] == [[None] * 4 + [0]] * len(rows)

    @staticmethod
    def strict_json(path):
        """The JSON in path; Infinity and NaN, which JSON does not define, fail."""
        def refuse(constant):
            raise AssertionError(f"{path} holds {constant}")

        return json.loads(path.read_text(), parse_constant=refuse)

    def test_count_of_400_digits_is_an_issue(self, tmp_path):
        """float64 cannot hold it; its row is out of range, not a traceback."""
        records = toy_reviews()
        records[0] = records[0]._replace(positive_feedback_count=10**399)
        data = tmp_path / "huge.csv"
        write_csv(records, data)
        out = tmp_path / "runs"
        assert main(["analyze", "--data", str(data), "--out", str(out)]) == 0
        assert (out / "analyze-0001" / "issues.txt").read_text() == (
            f"line 2: Positive Feedback Count out of range: {'1' + '0' * 59}... (400 characters)\n")
        self.strict_json(out / "analyze-0001" / "analysis.json")

    def test_divisions_that_slug_alike_keep_a_word_table_each(self, tmp_path):
        """`General Petite` and `General-Petite` both slug to `general_petite`; the second,
        in sorted order, takes the suffix `_2`."""
        records = toy_reviews()
        records[0] = records[0]._replace(division="General-Petite", review_text="velvet velvet hem")
        data = tmp_path / "alike.csv"
        write_csv(records, data)
        out = tmp_path / "runs"
        assert main(["analyze", "--data", str(data), "--out", str(out)]) == 0
        run_dir = out / "analyze-0001"
        own = full_report(toy_reviews())["word_freq__division_general_petite"]
        assert own.rows and all(token != "velvet" for token, _ in own.rows)
        written = json.loads((run_dir / "analysis.json").read_text())
        for name, rows in (("word_freq__division_general_petite", own.rows),
                           ("word_freq__division_general_petite_2", (("velvet", 2), ("hem", 1)))):
            assert (run_dir / f"{name}.csv").read_text() == "".join(
                f"{token},{n}\n" for token, n in (("token", "count"), *rows))
            assert written[name]["rows"] == [list(row) for row in rows]
        assert len(written) == len(full_report(toy_reviews())) + 1

    def test_out_with_an_undecodable_byte_prints_an_escape(self, tmp_path, data_csv):
        """A stdout that cannot encode the byte's lone surrogate prints it as `\\udcfc`: the
        finished run exits 0 and stays."""
        out = os.fsencode(tmp_path) + b"/runs\xfc"
        result = subprocess.run(
            [sys.executable, "-m", "reviewlab.cli", "analyze", "--data", str(data_csv),
             "--out", out], env=blas_env(PYTHONIOENCODING="utf-8:strict"),
            capture_output=True, timeout=120)
        assert (result.returncode, result.stderr) == (0, b"")
        assert result.stdout == (f"wrote {len(full_report(toy_reviews()))} tables to "
                                 f"{tmp_path}/runs\\udcfc/analyze-0001\n").encode()
        assert (Path(os.fsdecode(out)) / "analyze-0001" / "analysis.json").exists()

    def test_counts_past_two_to_the_53_leave_every_statistic_finite(self, tmp_path):
        """Two counts of 10**200 would square to infinity in the std; their rows are issues."""
        records = toy_reviews()
        for i in (0, 1):
            records[i] = records[i]._replace(positive_feedback_count=10**200)
        data = tmp_path / "huge.csv"
        write_csv(records, data)
        out = tmp_path / "runs"
        assert main(["analyze", "--data", str(data), "--out", str(out)]) == 0
        issues = (out / "analyze-0001" / "issues.txt").read_text().splitlines()
        assert [issue.split(":")[0] for issue in issues] == ["line 2", "line 3"]
        analysis = self.strict_json(out / "analyze-0001" / "analysis.json")
        described = {row[0]: row for row in analysis["describe__numeric"]["rows"]}
        assert described["Positive Feedback Count"][-1] == 38

    def test_missing_dataset_exits_two(self, tmp_path, capsys):
        code = main(["analyze", "--data", str(tmp_path / "absent.csv"),
                     "--out", str(tmp_path / "runs")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_data_flag_required(self, tmp_path, capsys):
        assert main(["analyze", "--out", str(tmp_path / "runs")]) == 2
        assert "--data" in capsys.readouterr().err

    @pytest.mark.parametrize("below", ["", "sub"], ids=["existing-file", "under-a-file"])
    def test_out_through_a_file_exits_two(self, tmp_path, data_csv, capsys, below):
        """FileExistsError and NotADirectoryError are input errors, like every OSError."""
        taken = tmp_path / "taken"
        taken.write_text("kept\n")
        assert main(["analyze", "--data", str(data_csv), "--out", str(taken / below)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert taken.read_text() == "kept\n"

    def test_repeated_column_exits_two(self, tmp_path, capsys):
        """A header naming Rating twice exits 2 instead of reading the second Rating."""
        bad = tmp_path / "repeated.csv"
        bad.write_text(",".join(["", *COLUMNS, "Rating"]) + "\n0,1,25,,text,5,1,0,A,B,C,1\n",
                       encoding="utf-8")
        out = tmp_path / "runs"
        assert main(["analyze", "--data", str(bad), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert "named more than once: Rating" in err
        assert not (out / "analyze-0001").exists()

    def test_field_over_the_limit_exits_two(self, tmp_path, capsys):
        """A quote that opens on line 2 and swallows more than csv's field limit exits 2
        at that line, and leaves no run directory and no --out behind."""
        bad = tmp_path / "unclosed.csv"
        bad.write_text(",".join(["", *COLUMNS]) + '\n0,1,25,,"never closed,5,1,0,A,B,C\n'
                       + "x" * 140_000 + "\n", encoding="utf-8")
        assert main(["analyze", "--data", str(bad), "--out", str(tmp_path / "new" / "runs")]) == 2
        assert capsys.readouterr().err == (
            f"error: {bad}: line 2: field larger than field limit (131072)\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["unclosed.csv"]

    @pytest.mark.parametrize("existing, new", [("", "new/deeper"), ("runs", ""),
                                               ("runs", "new/deeper")],
                             ids=["nested-new", "existing", "new-below-existing"])
    def test_refused_command_removes_the_out_directories_it_made(self, tmp_path, capsys,
                                                                 existing, new):
        """A refused command removes the part of --out it created, and keeps the part
        that was there before."""
        bad = tmp_path / "repeated.csv"
        bad.write_text(",".join(["", *COLUMNS, "Rating"]) + "\n0,1,25,,text,5,1,0,A,B,C,1\n",
                       encoding="utf-8")
        (tmp_path / existing).mkdir(exist_ok=True)
        before = sorted(tmp_path.rglob("*"))
        assert main(["analyze", "--data", str(bad), "--out", str(tmp_path / existing / new)]) == 2
        capsys.readouterr()
        assert sorted(tmp_path.rglob("*")) == before


class TestLabel:
    def test_row_count_preserved(self, tmp_path, data_csv):
        out = tmp_path / "runs"
        assert main(["label", "--data", str(data_csv), "--out", str(out)]) == 0
        labeled, issues = parse_csv(out / "label-0001" / "labeled.csv")
        assert not issues
        assert len(labeled) == 40

    def test_labels_match_scoring_oracle(self, tmp_path, data_csv):
        out = tmp_path / "runs"
        assert main(["label", "--data", str(data_csv), "--out", str(out)]) == 0
        text = (out / "label-0001" / "labeled.csv").read_text()
        want, _ = auto_label_dataset([tokenize(r.review_text) for r in toy_reviews()],
                                     BUILTIN_LEXICON)
        got = [line.rsplit(",", 1)[1] for line in text.splitlines()[1:]]
        assert got == want

    def test_empty_review_is_neutral(self, tmp_path):
        """A record without review text scores as an empty text: neutral."""
        records = toy_reviews()
        records[0] = records[0]._replace(review_text=None)
        data = tmp_path / "empty-review.csv"
        write_csv(records, data)
        out = tmp_path / "runs"
        assert main(["label", "--data", str(data), "--out", str(out)]) == 0
        text = (out / "label-0001" / "labeled.csv").read_text()
        got = [line.rsplit(",", 1)[1] for line in text.splitlines()[1:]]
        assert got[0] == "neutral"
        assert got[1:] == [["positive", "negative"][i % 2] for i in range(1, 40)]

    def test_labels_agree_with_sentiment_training(self, tmp_path):
        """Each kept record's Sentiment in labeled.csv names its `tokenized_splits` label."""
        records = toy_reviews()
        records[3] = records[3]._replace(review_text=None)
        data = tmp_path / "empty-review.csv"
        write_csv(records, data)
        out = tmp_path / "runs"
        assert main(["label", "--data", str(data), "--out", str(out)]) == 0
        lines = (out / "label-0001" / "labeled.csv").read_text().splitlines()[1:]
        labeled = {int(line.split(",", 1)[0]): line.rsplit(",", 1)[1] for line in lines}
        config = toy_config(task="sentiment")
        kept = [r for r in records if r.review_text is not None]
        splits = tokenized_splits(records, config, BUILTIN_LEXICON, (0, 1, 2))[0]
        trained = {}
        for rows, (_, labels) in zip(split_60_20_20(kept, config.seed), splits):
            trained.update((kept[i].row_id, config.class_names[y]) for i, y in zip(rows, labels))
        assert len(trained) == 39
        assert trained == {row_id: labeled[row_id] for row_id in trained}

    def test_count_table_header(self, tmp_path, data_csv):
        out = tmp_path / "runs"
        assert main(["label", "--data", str(data_csv), "--out", str(out)]) == 0
        lines = (out / "label-0001" / "sentiment_by_recommendation.csv").read_text().splitlines()
        assert lines[0] == "recommended,negative,neutral,positive"
        assert len(lines) == 3

    def test_counts_per_recommendation_state(self, tmp_path):
        """Each (recommended, label) pair is counted once; a review without text is neutral."""
        reviews = [("great dress", 1), ("terrible fit", 0),
                   ("terrible quality", 1), (None, 0)]
        data = tmp_path / "four.csv"
        write_csv([r._replace(review_text=text, recommended=flag)
                   for r, (text, flag) in zip(toy_reviews(), reviews)], data)
        out = tmp_path / "runs"
        assert main(["label", "--data", str(data), "--out", str(out)]) == 0
        table = (out / "label-0001" / "sentiment_by_recommendation.csv").read_text()
        assert table == "recommended,negative,neutral,positive\n0,1,1,0\n1,1,0,1\n"

    def test_toy_rating_tables_and_summary(self, tmp_path, data_csv):
        """Every rating and every class has its cell even at zero; a row of zeros is empty
        once normalized."""
        out = tmp_path / "runs"
        assert main(["label", "--data", str(data_csv), "--out", str(out)]) == 0
        run_dir = out / "label-0001"
        header = "{},negative,neutral,positive\n"
        assert (run_dir / "sentiment_by_rating.csv").read_text() == (
            header.format("rating") + "1,20,0,0\n2,0,0,0\n3,0,0,0\n4,0,0,0\n5,0,0,20\n")
        assert (run_dir / "sentiment_by_rating__normalized.csv").read_text() == (
            header.format("rating") + "1,1.0,0.0,0.0\n2,,,\n3,,,\n4,,,\n5,0.0,0.0,1.0\n")
        assert (run_dir / "sentiment_by_recommendation__normalized.csv").read_text() == (
            header.format("recommended") + "0,1.0,0.0,0.0\n1,0.0,0.0,1.0\n")
        summary = json.loads((run_dir / "label_summary.json").read_text())
        assert summary == {"records": 40,
                           "pearson_compound_rating": pytest.approx(0.9844984534040693, abs=1e-12),
                           "pearson_compound_recommended": pytest.approx(0.9844984534040693,
                                                                         abs=1e-12),
                           "cramers_v_rating": 1.0, "cramers_v_recommended": 1.0}

    def test_toy_recommendation_by_sentiment(self, tmp_path, data_csv):
        """The abstract's "and vice-versa": the recommendation table with sentiment as rows,
        normalized to P(recommended | sentiment); the toy has no neutral review."""
        out = tmp_path / "runs"
        assert main(["label", "--data", str(data_csv), "--out", str(out)]) == 0
        run_dir = out / "label-0001"
        assert (run_dir / "recommendation_by_sentiment.csv").read_text() == (
            "sentiment,0,1\nnegative,20,0\nneutral,0,0\npositive,0,20\n")
        assert (run_dir / "recommendation_by_sentiment__normalized.csv").read_text() == (
            "sentiment,0,1\nnegative,1.0,0.0\nneutral,,\npositive,0.0,1.0\n")

    def test_constant_rating_has_no_correlation(self, tmp_path):
        """With one rating and one recommendation state, neither correlation is defined."""
        data = tmp_path / "all-five.csv"
        write_csv([r._replace(rating=5, recommended=1) for r in toy_reviews()], data)
        out = tmp_path / "runs"
        assert main(["label", "--data", str(data), "--out", str(out)]) == 0
        summary = json.loads((out / "label-0001" / "label_summary.json").read_text())
        assert summary == {"records": 40, "pearson_compound_rating": None,
                           "pearson_compound_recommended": None,
                           "cramers_v_rating": None, "cramers_v_recommended": None}
        assert (out / "label-0001" / "sentiment_by_recommendation__normalized.csv").read_text() \
            == "recommended,negative,neutral,positive\n0,,,\n1,0.5,0.0,0.5\n"

    def test_relabeling_is_idempotent(self, tmp_path, data_csv):
        out = tmp_path / "runs"
        assert main(["label", "--data", str(data_csv), "--out", str(out)]) == 0
        first = out / "label-0001" / "labeled.csv"
        assert main(["label", "--data", str(first), "--out", str(out)]) == 0
        second = out / "label-0002" / "labeled.csv"
        assert first.read_bytes() == second.read_bytes()

    def test_custom_lexicon_file(self, tmp_path, data_csv):
        lex_path = tmp_path / "lex.tsv"
        lex_path.write_text(
            "".join(f"{t}\t{v}\n" for t, v in sorted(BUILTIN_LEXICON.items())),
            encoding="utf-8",
        )
        out = tmp_path / "runs"
        assert main(["label", "--data", str(data_csv), "--out", str(out),
                     "--lexicon", str(lex_path)]) == 0

    def test_bad_lexicon_exits_two(self, tmp_path, data_csv, capsys):
        lex_path = tmp_path / "lex.tsv"
        lex_path.write_text("good\tnot-a-number\n")
        code = main(["label", "--data", str(data_csv), "--out", str(tmp_path / "runs"),
                     "--lexicon", str(lex_path)])
        assert code == 2


class TestTrain:
    def test_artifacts_written(self, tmp_path, data_csv, toy_cfg_file):
        run_dir = train_run(tmp_path, data_csv, toy_cfg_file)
        for name in ("model.ckpt", "history.csv", "train_summary.json", "config.txt"):
            assert (run_dir / name).exists(), name
        assert not (run_dir / "vocab.tsv").exists()  # the vocabulary is in model.ckpt
        lines = (run_dir / "history.csv").read_text().splitlines()
        assert lines[0] == "epoch,train_loss,val_loss,val_acc"
        assert len(lines) == 31

    def test_checkpoint_holds_float32_blocks(self, tmp_path, data_csv, toy_cfg_file):
        bundle = load_checkpoint(train_run(tmp_path, data_csv, toy_cfg_file) / "model.ckpt")
        assert [a.dtype for a in (bundle.embeddings, *bundle.model)] == [np.float32] * 7

    def test_summary_reports_split_sizes(self, tmp_path, data_csv, toy_cfg_file):
        run_dir = train_run(tmp_path, data_csv, toy_cfg_file)
        summary = json.loads((run_dir / "train_summary.json").read_text())
        assert summary["split_sizes"] == {"train": 24, "validation": 8, "test": 8}

    def test_embeddings_of_another_width_refused_at_their_first_line(
            self, tmp_path, data_csv, toy_cfg_file, capsys, monkeypatch):
        """train reports load_glove's width refusal on stderr with exit 2, before any
        table is drawn."""
        def drawn(*args):
            raise AssertionError("a table was drawn")

        monkeypatch.setattr("reviewlab.textprep.random_embeddings", drawn)
        glove = tmp_path / "vectors.txt"
        glove.write_text("good 0.1 0.2 0.3\n")
        code = main(["train", "--data", str(data_csv), "--out", str(tmp_path / "runs"),
                     "--config", str(toy_cfg_file), "--embeddings", str(glove)])
        assert (code, capsys.readouterr().err) == (
            2, f"error: {glove}: line 1: dimension 3 does not match embedding_dim 16\n")

    @pytest.mark.parametrize("component, message", [
        *((value, "non-finite component") for value in ("nan", "inf", "-inf", "1e400")),
        ("1e39", "component outside float32's range"),  # finite in float64, not in float32
    ], ids=["nan", "inf", "-inf", "1e400", "1e39"])
    def test_non_finite_embedding_component_exits_two(self, tmp_path, data_csv, toy_cfg_file,
                                                      capsys, component, message):
        dims = " ".join(["0.1"] * toy_config().embedding_dim)
        glove = tmp_path / "vectors.txt"
        glove.write_text(f"good {dims}\nbad {component}{dims[3:]}\n")
        code = main(["train", "--data", str(data_csv), "--out", str(tmp_path / "runs"),
                     "--config", str(toy_cfg_file), "--embeddings", str(glove)])
        assert (code, capsys.readouterr().err) == (2, f"error: {glove}: line 2: {message}\n")

    def test_diverged_run_exits_two(self, tmp_path, data_csv, capsys):
        """A learning rate that overflows the weights is an input error, not a crash."""
        cfg = toy_config_file(tmp_path / "diverge.cfg", epochs=2, learning_rate=1e308)
        code = main(["train", "--data", str(data_csv), "--out", str(tmp_path / "runs"),
                     "--config", str(cfg)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: training diverged: overflow encountered in ")
        assert "at epoch " in err and "batch" in err
        assert "lower learning_rate (now 1e+308)" in err
        assert not (tmp_path / "runs" / "train-0001").exists()

    def test_saturating_run_exits_two(self, tmp_path, data_csv, capsys):
        """Weights stepped to about 1e30 stay finite, but the next batch's arithmetic
        overflows: that run diverged too, rather than saving a saturated model."""
        cfg = toy_config_file(tmp_path / "saturate.cfg", epochs=3, learning_rate=1e30)
        code = main(["train", "--data", str(data_csv), "--out", str(tmp_path / "runs"),
                     "--config", str(cfg)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: training diverged: overflow encountered in ")
        assert err.endswith(" at epoch 1, batch 2; lower learning_rate (now 1e+30)\n")
        assert not (tmp_path / "runs" / "train-0001").exists()

    def test_pretrained_embeddings_accepted(self, tmp_path, data_csv, toy_cfg_file):
        dims = " ".join(str(0.01 * i) for i in range(16))
        glove = tmp_path / "vectors.txt"
        glove.write_text(f"good {dims}\nbad {dims}\n")
        code = main(["train", "--data", str(data_csv), "--out", str(tmp_path / "runs"),
                     "--config", str(toy_cfg_file), "--embeddings", str(glove)])
        assert code == 0

    @pytest.mark.parametrize("epochs", [3, 0])
    def test_one_progress_line_per_epoch_on_stderr(self, tmp_path, data_csv, capsys, epochs):
        """Each epoch prints `epoch E/N: ...` with its train_loss to stderr, and stdout
        gets only the status line."""
        run_dir = train_run(tmp_path, data_csv, toy_config_file(tmp_path / "toy.cfg",
                                                                epochs=epochs))
        out, err = capsys.readouterr()
        assert out == f"trained recommendation model into {run_dir}\n"
        lines = err.splitlines()
        assert len(lines) == epochs
        for epoch, line in enumerate(lines, start=1):
            assert re.fullmatch(rf"epoch {epoch}/{epochs}: train_loss \d\.\d{{4}} "
                                rf"val_loss \d\.\d{{4}} val_acc \d\.\d{{4}}, "
                                rf"\d+ examples/s, ETA \d+\.\d s", line), line
        if epochs:
            assert lines[-1].endswith(", ETA 0.0 s")
            history = (run_dir / "history.csv").read_text().splitlines()[1:]
            assert [line.split(" ")[3] for line in lines] == [
                f"{float(row.split(',')[1]):.4f}" for row in history]


class TestWriteLines:
    def test_one_lf_ended_utf8_line_per_item_in_order(self, tmp_path):
        """Each item is one line, in order, ended by a bare LF, in UTF-8: parse_csv's issues
        one a line, a non-ASCII line and an empty one."""
        records = toy_reviews()[:3]
        records[1] = records[1]._replace(rating=6)
        data = tmp_path / "reviews.csv"
        write_csv(records, data)
        _, issues = parse_csv(data)
        path = tmp_path / "issues.txt"
        _write_lines(path, [*issues, "café ☕", ""])
        assert path.read_bytes() == (
            b"line 3: Rating out of range: 6\ncaf\xc3\xa9 \xe2\x98\x95\n\n")


class TestFullPipelineScript:
    SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "run_full_pipeline.py"

    def test_every_text_artifact_is_utf8_with_lf_line_ends(self, tmp_path, data_csv):
        """The toy pipeline for both tasks, with a non-ASCII text, and an analyze whose CSV
        has a malformed row: every file under --out but model.ckpt decodes as UTF-8, ends
        in a LF and holds no CR."""
        cfg = toy_config_file(tmp_path / "toy.cfg", epochs=1)
        out = tmp_path / "runs"
        for task in sorted(TASK_CLASSES):
            result = subprocess.run(
                [sys.executable, str(self.SCRIPT), "--data", str(data_csv), "--out", str(out),
                 "--config", str(cfg), "--task", task, "--text", "café ☕ fits"],
                env=blas_env(PYTHONIOENCODING="utf-8"), capture_output=True, timeout=300)
            assert result.returncode == 0, result.stderr.decode()
        records = toy_reviews()
        records[0] = records[0]._replace(rating="né")
        bad = tmp_path / "bad.csv"
        write_csv(records, bad)
        assert main(["analyze", "--data", str(bad), "--out", str(out)]) == 0
        assert (out / "analyze-0003" / "issues.txt").read_bytes() == (
            b"line 2: Rating not an integer: 'n\xc3\xa9'\n")
        files = [p for p in sorted(out.rglob("*")) if p.is_file() and p.name != "model.ckpt"]
        assert len(files) > 40 and "config.txt" in {p.name for p in files}
        for path in files:
            raw = path.read_bytes()
            raw.decode("utf-8")
            assert raw.endswith(b"\n") and b"\r" not in raw, path

    def test_out_with_an_undecodable_byte_runs_every_stage(self, tmp_path, data_csv):
        """A stdout that cannot encode the byte's lone surrogate prints it as `\\udcfc` in
        every stage's argv and status line, and the script exits 0."""
        cfg = toy_config_file(tmp_path / "toy.cfg", epochs=1)
        out = os.fsencode(tmp_path) + b"/rfp\xfc"
        result = subprocess.run(
            [sys.executable, str(self.SCRIPT), "--data", str(data_csv), "--out", out,
             "--config", str(cfg)], env=blas_env(PYTHONIOENCODING="utf-8:strict"),
            capture_output=True, timeout=300)
        assert result.returncode == 0, result.stderr.decode()
        lines = result.stdout.decode().splitlines()
        assert [line.split(" ")[2] for line in lines if line.startswith("$ ")] == [
            "analyze", "label", "train", "evaluate", "predict"]
        assert all(f"{tmp_path}/rfp\\udcfc" in line for line in lines[:-1])  # not the prediction
        assert re.fullmatch(r"epoch 1/1: [^\n]*\n", result.stderr.decode())
        assert (Path(os.fsdecode(out)) / "predict-0001" / "prediction.json").exists()

    def test_evaluates_the_run_it_trained_past_9999(self, tmp_path, data_csv, toy_cfg_file):
        """With train-9999 already under --out, training makes train-10000, which sorts
        before it as a string; the script evaluates and predicts with train-10000."""
        out = tmp_path / "runs"
        (out / "train-9999").mkdir(parents=True)
        result = subprocess.run(
            [sys.executable, str(self.SCRIPT), "--data", str(data_csv), "--out", str(out),
             "--config", str(toy_cfg_file)], env=blas_env(), capture_output=True, text=True,
            timeout=300)
        assert result.returncode == 0, result.stderr
        checkpoint = str(out / "train-10000" / "model.ckpt")
        stages = [line.split() for line in result.stdout.splitlines() if line.startswith("$ ")]
        assert [argv[argv.index("--checkpoint") + 1] for argv in stages[3:]] == [checkpoint] * 2
        assert (out / "evaluate-0001" / "metrics.json").exists()

    def test_config_reaches_every_stage_that_reads_it(self, tmp_path, data_csv):
        """The config's lexicon, which scores "good" negative, labels the label stage's
        rows, and its task is the one trained unless --task overrides it."""
        lexicon = tmp_path / "flipped.tsv"
        lexicon.write_text("good\t-2.0\nbad\t2.0\n", encoding="utf-8")
        cfg = toy_config_file(tmp_path / "sentiment.cfg", epochs=1, task="sentiment",
                              lexicon=lexicon)
        out = tmp_path / "runs"
        for task in ([], ["--task", "recommendation"]):
            result = subprocess.run(
                [sys.executable, str(self.SCRIPT), "--data", str(data_csv), "--out", str(out),
                 "--config", str(cfg), *task], env=blas_env(), capture_output=True, text=True,
                timeout=300)
            assert result.returncode == 0, result.stderr
        labeled = (out / "label-0001" / "labeled.csv").read_text().splitlines()
        assert labeled[0].endswith(",Sentiment") and labeled[1].endswith(",negative")
        assert [json.loads((out / f"train-000{n}" / "train_summary.json").read_text())["task"]
                for n in (1, 2)] == ["sentiment", "recommendation"]
        assert (out / "predict-0002" / "prediction.json").exists()

    def test_artifacts_do_not_depend_on_the_string_hash_seed(self, tmp_path, data_csv):
        """Each task's pipeline under PYTHONHASHSEED=1 and under =2 writes the same files
        with the same bytes, but config.txt, which records each run's own --out.
        Acceptance 8 reruns each command in one process, where every string hashes alike;
        two processes catch an artifact that follows set order."""
        cfg = toy_config_file(tmp_path / "toy.cfg", epochs=3)
        roots = [tmp_path / f"hash-seed-{seed}" for seed in (1, 2)]
        for seed, root in enumerate(roots, start=1):
            for task in sorted(TASK_CLASSES):
                result = subprocess.run(
                    [sys.executable, str(self.SCRIPT), "--data", str(data_csv),
                     "--out", str(root / task), "--config", str(cfg), "--task", task],
                    env=blas_env(PYTHONHASHSEED=str(seed), PYTHONWARNINGS="error::RuntimeWarning"),
                    capture_output=True, timeout=300)
                assert result.returncode == 0, result.stderr.decode()
        first, second = ({p.relative_to(root): p for p in sorted(root.rglob("*")) if p.is_file()}
                         for root in roots)
        assert len(first) > 80 and list(first) == list(second)
        assert [path for path in first if path.name != "config.txt"
                and first[path].read_bytes() != second[path].read_bytes()] == []


class TestEvaluate:
    def test_metrics_files_written(self, tmp_path, data_csv, toy_cfg_file):
        run_dir = train_run(tmp_path, data_csv, toy_cfg_file)
        out = tmp_path / "runs"
        code = main(["evaluate", "--data", str(data_csv), "--out", str(out),
                     "--config", str(toy_cfg_file),
                     "--checkpoint", str(run_dir / "model.ckpt")])
        assert code == 0
        eval_dir = out / "evaluate-0001"
        metrics = json.loads((eval_dir / "metrics.json").read_text())
        assert metrics["accuracy"] >= 0.95
        assert metrics["total"] == 8
        assert metrics["roc_auc"] is not None
        assert (eval_dir / "confusion.csv").exists()
        assert (eval_dir / "roc.csv").exists()
        assert (eval_dir / "baseline.json").exists()

    def test_single_class_test_split_has_no_roc(self, tmp_path, toy_cfg_file):
        """With every review recommended, ROC AUC is undefined: evaluate still exits 0,
        reports it as null and writes no roc.csv."""
        data = tmp_path / "recommended.csv"
        write_csv([r._replace(recommended=1) for r in toy_reviews()], data)
        run_dir = train_run(tmp_path, data, toy_cfg_file)
        out = tmp_path / "runs"
        assert main(["evaluate", "--data", str(data), "--out", str(out),
                     "--config", str(toy_cfg_file),
                     "--checkpoint", str(run_dir / "model.ckpt")]) == 0
        eval_dir = out / "evaluate-0001"
        metrics = json.loads((eval_dir / "metrics.json").read_text())
        assert "roc_auc" in metrics and metrics["roc_auc"] is None
        assert not (eval_dir / "roc.csv").exists()
        assert (eval_dir / "confusion.csv").exists()

    def test_task_mismatch_exits_two(self, tmp_path, data_csv, toy_cfg_file, capsys):
        run_dir = train_run(tmp_path, data_csv, toy_cfg_file)
        code = main(["evaluate", "--data", str(data_csv),
                     "--out", str(tmp_path / "runs"), "--config", str(toy_cfg_file),
                     "--checkpoint", str(run_dir / "model.ckpt"),
                     "--task", "sentiment"])
        assert code == 2
        assert "task" in capsys.readouterr().err

    def test_model_shape_mismatch_exits_two(self, tmp_path, data_csv, toy_cfg_file, capsys):
        """A config whose seq_len, cell_size or embedding_dim differs from the checkpoint's."""
        run_dir = train_run(tmp_path, data_csv, toy_cfg_file)
        trained = toy_config()
        for key in ("seq_len", "cell_size", "embedding_dim"):
            cfg = tmp_path / f"{key}.cfg"
            cfg.write_text(toy_cfg_file.read_text() + f"{key}=5\n")
            code = main(["evaluate", "--data", str(data_csv),
                         "--out", str(tmp_path / "runs"), "--config", str(cfg),
                         "--checkpoint", str(run_dir / "model.ckpt")])
            assert code == 2
            want = f"checkpoint was trained with {key} {getattr(trained, key)}, not 5"
            assert want in capsys.readouterr().err

    def test_invalid_batch_size_exits_two(self, tmp_path, data_csv, toy_cfg_file, capsys):
        """evaluate checks its settings as train does, not only task and seed."""
        run_dir = train_run(tmp_path, data_csv, toy_cfg_file)
        for value in (0, -3):
            cfg = tmp_path / f"batch{value}.cfg"
            cfg.write_text(toy_cfg_file.read_text() + f"batch_size={value}\n")
            code = main(["evaluate", "--data", str(data_csv),
                         "--out", str(tmp_path / "runs"), "--config", str(cfg),
                         "--checkpoint", str(run_dir / "model.ckpt")])
            assert code == 2
            assert "invalid configuration: batch_size must be >= 1" in capsys.readouterr().err

    def test_split_seed_taken_from_checkpoint(self, tmp_path, data_csv, capsys):
        """A model trained with --seed 3 is scored on the seed-3 test split by default."""
        out = tmp_path / "runs"
        cfg = toy_config_file(tmp_path / "no-seed.cfg", epochs=3, seed="")
        common = ["--data", str(data_csv), "--out", str(out), "--config", str(cfg)]
        assert main(["train", *common, "--seed", "3"]) == 0
        base = ["evaluate", *common, "--checkpoint", str(out / "train-0001" / "model.ckpt")]
        assert main(base) == 0
        assert main([*base, "--seed", "3"]) == 0
        first, second = out / "evaluate-0001", out / "evaluate-0002"
        for name in ("metrics.json", "baseline.json", "confusion.csv"):
            assert (first / name).read_bytes() == (second / name).read_bytes(), name
        assert "seed=3\n" in (first / "config.txt").read_text()
        # The materialized config records the checkpoint's seed, so it reruns.
        assert main(["evaluate", "--config", str(first / "config.txt")]) == 0
        assert snapshot(out / "evaluate-0003") == snapshot(first)

        assert main([*base, "--seed", "0"]) == 2
        assert "checkpoint was trained with seed 3, not 0" in capsys.readouterr().err

    def test_different_csv_exits_two(self, tmp_path, data_csv, toy_cfg_file, capsys):
        """Another CSV's seeded split could put training rows in the test split."""
        run_dir = train_run(tmp_path, data_csv, toy_cfg_file)
        other = tmp_path / "other.csv"
        write_csv(toy_reviews(seed=8), other)
        code = main(["evaluate", "--data", str(other), "--out", str(tmp_path / "runs"),
                     "--config", str(toy_cfg_file),
                     "--checkpoint", str(run_dir / "model.ckpt")])
        assert code == 2
        assert "is not the checkpoint's" in capsys.readouterr().err
        assert not (tmp_path / "runs" / "evaluate-0001").exists()

    def test_sentiment_lexicon_must_match_training(self, tmp_path, data_csv, capsys):
        """Sentiment labels come from the lexicon, so evaluation needs the training one."""
        lexicon = tmp_path / "lexicon.tsv"
        lexicon.write_text("dress\t2.0\n", encoding="utf-8")
        cfg = toy_config_file(tmp_path / "sentiment.cfg", epochs=1, task="sentiment")
        common = ["--data", str(data_csv), "--out", str(tmp_path / "runs"), "--config", str(cfg)]
        assert main(["train", *common, "--lexicon", str(lexicon)]) == 0
        evaluate = ["evaluate", *common,
                    "--checkpoint", str(tmp_path / "runs" / "train-0001" / "model.ckpt")]
        assert main([*evaluate, "--lexicon", str(lexicon)]) == 0
        assert main(evaluate) == 2
        assert "is not the checkpoint's" in capsys.readouterr().err

    def test_missing_checkpoint_exits_two(self, tmp_path, data_csv):
        code = main(["evaluate", "--data", str(data_csv),
                     "--out", str(tmp_path / "runs"),
                     "--checkpoint", str(tmp_path / "absent.ckpt")])
        assert code == 2


@pytest.mark.parametrize("command", ["evaluate", "predict"])
def test_overflowing_checkpoint_exits_two(tmp_path, data_csv, toy_cfg_file, capsys, command):
    """Finite weights whose arithmetic overflows float32, in the softmax head or
    in both LSTM directions, are an input error, not NaN output."""
    bundle = load_checkpoint(train_run(tmp_path, data_csv, toy_cfg_file) / "model.ckpt")
    fwd_W, fwd_b, bwd_W, bwd_b, head_W, head_b = bundle.model
    H = bundle.model.cell_size
    # Saturated i, C~ and o gates (rows H:4H) make every feature of a row with
    # a token about tanh(1) > 0, so each logit sums 2H terms near 2.3e38.
    fwd_b, bwd_b = fwd_b.copy(), bwd_b.copy()
    fwd_b[H:] = bwd_b[H:] = 30.0
    huge = {"head": bundle.model._replace(fwd_b=fwd_b, bwd_b=bwd_b,
                                          head_W=np.full_like(head_W, 3e38),
                                          head_b=np.full_like(head_b, 3e38)),
            "lstm": bundle.model._replace(fwd_W=np.sign(fwd_W) * np.float32(3e38),
                                          bwd_W=np.sign(bwd_W) * np.float32(3e38))}
    inputs = {"evaluate": ["--data", str(data_csv), "--config", str(toy_cfg_file)],
              "predict": ["--text", "love this dress"]}[command]
    for where, model in huge.items():
        ckpt = tmp_path / f"{where}.ckpt"
        save_checkpoint(replace(bundle, model=model), ckpt)
        out = tmp_path / where
        assert main([command, "--out", str(out), "--checkpoint", str(ckpt), *inputs]) == 2, where
        assert "probabilities are not finite" in capsys.readouterr().err
        assert not (out / f"{command}-0001").exists()


class TestOneTokenizationPerCommand:
    """Each command tokenizes a review text once; train encodes only its training and
    validation rows, in the one `build_vocab` call, and evaluate only its test rows, in one
    `encode` call."""

    @pytest.fixture
    def records(self, tmp_path):
        records = toy_reviews()
        records[0] = records[0]._replace(title=None)
        records[1] = records[1]._replace(review_text=None)
        write_csv(records, tmp_path / "reviews.csv")
        return parse_csv(tmp_path / "reviews.csv")[0]

    @staticmethod
    def wrap_everywhere(monkeypatch, name):
        """Record the first argument of `name` in every reviewlab module that holds it."""
        calls = []
        for info in pkgutil.iter_modules(reviewlab.__path__):
            module = importlib.import_module(f"reviewlab.{info.name}")
            if hasattr(module, name):
                original = getattr(module, name)

                def recording(first, *args, _original=original, **kwargs):
                    calls.append(first)
                    return _original(first, *args, **kwargs)

                monkeypatch.setattr(module, name, recording)
        return calls

    def test_analyze_cleans_each_title_and_review_once(self, tmp_path, records, monkeypatch):
        tokenized = self.wrap_everywhere(monkeypatch, "tokenize")
        assert main(["analyze", "--data", str(tmp_path / "reviews.csv"),
                     "--out", str(tmp_path / "runs")]) == 0
        texts = [t for r in records for t in (r.title, r.review_text) if t is not None]
        assert Counter(tokenized) == Counter(texts)

    def test_label_tokenizes_each_review_once(self, tmp_path, records, monkeypatch):
        """A record without review text is tokenized as the empty text."""
        tokenized = self.wrap_everywhere(monkeypatch, "tokenize")
        assert main(["label", "--data", str(tmp_path / "reviews.csv"),
                     "--out", str(tmp_path / "runs")]) == 0
        assert Counter(tokenized) == Counter(r.review_text or "" for r in records)

    @staticmethod
    def train_then_evaluate(tmp_path, task):
        """argv of the toy `train` at one epoch and of `evaluate` on its checkpoint."""
        cfg = toy_config_file(tmp_path / f"{task}.cfg", epochs=1, task=task)
        out = tmp_path / "runs"
        common = ["--data", str(tmp_path / "reviews.csv"), "--out", str(out), "--config", str(cfg)]
        return (["train", *common],
                ["evaluate", *common, "--checkpoint", str(out / "train-0001" / "model.ckpt")])

    def test_sentiment_train_and_evaluate(self, tmp_path, records, monkeypatch):
        train, evaluate = self.train_then_evaluate(tmp_path, "sentiment")
        kept = Counter(r.review_text for r in records if r.review_text is not None)
        tokenized = self.wrap_everywhere(monkeypatch, "tokenize")
        counted = self.wrap_everywhere(monkeypatch, "build_vocab")
        encoded = self.wrap_everywhere(monkeypatch, "encode")
        assert main(train) == 0
        assert Counter(tokenized) == kept
        sizes = json.loads((tmp_path / "runs" / "train-0001" / "train_summary.json")
                           .read_text())["split_sizes"]
        assert [list(map(len, splits)) for splits in counted] == [[sizes["train"],
                                                                  sizes["validation"]]]
        assert encoded == []
        assert sum(sizes.values()) == sum(kept.values())

        tokenized.clear()
        counted.clear()
        encoded.clear()
        assert main(evaluate) == 0
        assert Counter(tokenized) == kept
        assert counted == []
        assert [len(rows) for rows in encoded] == [sizes["test"]]

    def test_recommendation_train_and_evaluate(self, tmp_path, records, monkeypatch):
        """Recommendation labels need no tokens: train tokenizes exactly its training and
        validation texts, evaluate exactly its test texts."""
        train, evaluate = self.train_then_evaluate(tmp_path, "recommendation")
        kept = [r.review_text for r in records if r.review_text is not None]
        train_rows, val_rows, test_rows = split_60_20_20(kept, toy_config().seed)
        tokenized = self.wrap_everywhere(monkeypatch, "tokenize")
        counted = self.wrap_everywhere(monkeypatch, "build_vocab")
        encoded = self.wrap_everywhere(monkeypatch, "encode")
        assert main(train) == 0
        assert Counter(tokenized) == Counter(kept[i] for i in train_rows + val_rows)
        assert [list(map(len, splits)) for splits in counted] == [[len(train_rows),
                                                                  len(val_rows)]]
        assert encoded == []

        tokenized.clear()
        counted.clear()
        encoded.clear()
        assert main(evaluate) == 0
        assert Counter(tokenized) == Counter(kept[i] for i in test_rows)
        assert counted == []
        assert [len(rows) for rows in encoded] == [len(test_rows)]


class TestCollectorPause:
    """`main` pauses the cyclic garbage collector for a command and hands it back as it
    found it, however the command ends."""

    @pytest.fixture(autouse=True)
    def collector_state(self, monkeypatch):
        """Restores the collector after the test; returns the states `_resolve` saw."""
        enabled = gc.isenabled()
        seen = []
        resolve = reviewlab.cli._resolve

        def spy(args):
            seen.append(gc.isenabled())
            return resolve(args)

        monkeypatch.setattr(reviewlab.cli, "_resolve", spy)
        yield seen
        (gc.enable if enabled else gc.disable)()

    @pytest.mark.parametrize("ending, code", [("success", 0), ("missing-checkpoint", 2),
                                              ("internal-error", 1)])
    def test_enabled_collector_comes_back(self, tmp_path, data_csv, monkeypatch, capsys,
                                          collector_state, ending, code):
        out = tmp_path / "out"
        argv = ["analyze", "--data", str(data_csv), "--out", str(out)]
        if ending == "missing-checkpoint":
            argv = ["evaluate", "--data", str(data_csv), "--out", str(out),
                    "--checkpoint", str(tmp_path / "absent.ckpt")]
        elif ending == "internal-error":
            def failing(*args):
                raise RuntimeError("a fault inside the command")

            monkeypatch.setattr("reviewlab.cli.full_report", failing)
        gc.enable()
        assert main(argv) == code
        assert gc.isenabled()
        assert collector_state == [False]
        capsys.readouterr()

    def test_enabled_collector_comes_back_after_interrupt(self, tmp_path, data_csv, toy_cfg_file,
                                                         monkeypatch, collector_state):
        """The KeyboardInterrupt still propagates, and its run directory is removed."""
        def interrupted(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr("reviewlab.cli.train", interrupted)
        out = tmp_path / "out"
        gc.enable()
        with pytest.raises(KeyboardInterrupt):
            main(["train", "--data", str(data_csv), "--out", str(out),
                  "--config", str(toy_cfg_file)])
        assert gc.isenabled()
        assert collector_state == [False]
        assert not out.exists()  # the run directory, and the --out made for it

    def test_disabled_collector_stays_disabled(self, tmp_path, data_csv, collector_state):
        gc.disable()
        assert main(["analyze", "--data", str(data_csv), "--out", str(tmp_path / "out")]) == 0
        assert not gc.isenabled()
        assert collector_state == [False]

    def test_longer_train_leaves_no_more_garbage(self, tmp_path, data_csv):
        """What a paused command leaves for the collector does not grow with its length:
        after a warm-up command, the toy train at 3 epochs leaves no more unreachable
        objects than at 1."""
        gc.enable()
        unreachable = {}
        for run, epochs in enumerate((1, 1, 3)):  # the first run warms up lazy imports
            cfg = toy_config_file(tmp_path / f"run{run}.cfg", epochs=epochs)
            gc.collect()
            assert main(["train", "--data", str(data_csv), "--out", str(tmp_path / "runs"),
                         "--config", str(cfg)]) == 0
            unreachable[epochs] = gc.collect()
        assert unreachable[3] <= unreachable[1]


class TestPredict:
    def predict_argv(self, tmp_path, data_csv, toy_cfg_file, text):
        run_dir = train_run(tmp_path, data_csv, toy_cfg_file)
        return ["predict", "--out", str(tmp_path / "runs"),
                "--checkpoint", str(run_dir / "model.ckpt"), "--text", text]

    def test_single_line_json_on_stdout(self, tmp_path, data_csv, toy_cfg_file, capsys):
        argv = self.predict_argv(tmp_path, data_csv, toy_cfg_file,
                                 "really good dress love it")
        assert main(argv) == 0
        out_text = capsys.readouterr().out
        lines = [line for line in out_text.splitlines() if line.startswith("{")]
        payload = json.loads(lines[-1])
        assert payload["label"] == "recommended"
        assert not payload["empty_input"]
        assert sum(payload["probabilities"].values()) == pytest.approx(1.0, abs=1e-9)
        prediction_file = (tmp_path / "runs" / "predict-0001" / "prediction.json")
        assert prediction_file.read_text().strip() == lines[-1]

    def test_predict_starts_no_reverse_worker(self, tmp_path, data_csv, toy_cfg_file):
        """A fresh process that predicts one text runs its one row on the calling thread."""
        argv = self.predict_argv(tmp_path, data_csv, toy_cfg_file, "really good dress")
        probe = ("import sys, threading; from reviewlab.cli import main; code = main(sys.argv[1:]); "
                 "print(code, *(t.name for t in threading.enumerate()))")
        out = subprocess.run([sys.executable, "-c", probe, *argv], env=blas_env(),
                             capture_output=True, text=True, check=True, timeout=120).stdout
        code, *threads = out.splitlines()[-1].split()
        assert code == "0" and "MainThread" in threads
        assert not [name for name in threads if name.startswith("reviewlab-reverse")]

    def test_repeat_prediction_identical(self, tmp_path, data_csv, toy_cfg_file, capsys):
        """Predicting the same text twice prints the same stdout line; acceptance 8 owns
        the byte equality of the two run directories."""
        argv = self.predict_argv(tmp_path, data_csv, toy_cfg_file, "bad skirt poor quality")
        assert main(argv) == 0
        first = capsys.readouterr().out.splitlines()[-1]
        assert main(argv) == 0
        assert capsys.readouterr().out.splitlines()[-1] == first

    def test_config_written_once_per_command(self, tmp_path, data_csv, toy_cfg_file,
                                             monkeypatch):
        """Each command writes config.txt once; evaluate and predict write it after
        the checkpoint's settings are merged in."""
        argv = self.predict_argv(tmp_path, data_csv, toy_cfg_file, "good dress")
        writes = []
        writer = reviewlab.cli._write_materialized_config

        def spy(run_dir, command, cfg):
            writes.append((command, cfg["seq_len"]))
            writer(run_dir, command, cfg)

        monkeypatch.setattr(reviewlab.cli, "_write_materialized_config", spy)
        out = str(tmp_path / "runs")
        ckpt = str(tmp_path / "runs" / "train-0001" / "model.ckpt")
        assert main(argv) == 0
        assert writes == [("predict", 8)]
        for command in (["analyze", "--data", str(data_csv)], ["label", "--data", str(data_csv)],
                        ["evaluate", "--data", str(data_csv), "--checkpoint", ckpt]):
            assert main([*command, "--out", out]) == 0
        assert writes == [("predict", 8), ("analyze", 120), ("label", 120), ("evaluate", 8)]
        assert "seq_len=8\n" in (tmp_path / "runs" / "evaluate-0001" / "config.txt").read_text()

    def test_text_flag_required(self, tmp_path, data_csv, toy_cfg_file, capsys):
        run_dir = train_run(tmp_path, data_csv, toy_cfg_file)
        code = main(["predict", "--out", str(tmp_path / "runs"),
                     "--checkpoint", str(run_dir / "model.ckpt")])
        assert code == 2
        assert "--text" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["good dress", "", "   ", "love it\nreturned it"],
                             ids=["plain", "empty", "blank", "multi-line"])
    def test_rerun_from_materialized_config(self, tmp_path, data_csv, toy_cfg_file, text):
        """config.txt records the text and every setting the checkpoint fixes,
        so a rerun from it works for any text."""
        out = tmp_path / "runs"
        assert main(["train", "--data", str(data_csv), "--out", str(out),
                     "--config", str(toy_cfg_file), "--task", "sentiment"]) == 0
        assert main(["predict", "--out", str(out), "--text", text,
                     "--checkpoint", str(out / "train-0001" / "model.ckpt")]) == 0
        first = out / "predict-0001"
        fixed = {"task=sentiment", "seed=4", "seq_len=8", "cell_size=8", "embedding_dim=16"}
        assert fixed <= set((first / "config.txt").read_text().split())
        assert f"\ntext={json.dumps(text)}\n" in (first / "config.txt").read_text()
        assert main(["predict", "--config", str(first / "config.txt")]) == 0
        second = out / "predict-0002"
        assert (second / "prediction.json").read_bytes() == (first / "prediction.json").read_bytes()
        assert snapshot(second) == snapshot(first)

    @pytest.mark.parametrize("flag, value", [
        ("data", " toy.csv"), ("data", "toy.csv "), ("data", '"toy".csv'),
        ("data", "toy\n.csv"), ("data", "toy\udcff.csv"), ("out", ""),
    ], ids=["leading-space", "trailing-space", "leading-quote", "line-break",
            "undecodable-byte", "empty"])
    def test_rerun_from_materialized_config_keeps_strings(self, tmp_path, data_csv,
                                                          monkeypatch, flag, value):
        """config.txt writes a string the parser would not read back as is as a JSON
        literal, so a rerun from it reads the same paths."""
        monkeypatch.chdir(tmp_path)
        paths = {"data": "toy.csv", "out": "runs", flag: value}
        Path(paths["data"]).write_bytes(data_csv.read_bytes())
        assert main(["analyze", "--data", paths["data"], "--out", paths["out"]]) == 0
        first = Path(paths["out"], "analyze-0001")
        assert f"\n{flag}={json.dumps(value)}\n" in (first / "config.txt").read_text()
        assert main(["analyze", "--config", str(first / "config.txt")]) == 0
        assert snapshot(Path(paths["out"], "analyze-0002")) == snapshot(first)

    def test_cached_parser_serves_every_call(self, tmp_path, data_csv, toy_cfg_file, capsys):
        """One parser per process: a refused parse leaves nothing behind for later calls."""
        assert reviewlab.cli._build_parser() is reviewlab.cli._build_parser()
        assert main(["predict", "--bogus"]) == 2
        assert "unrecognized arguments: --bogus" in capsys.readouterr().err
        argv = self.predict_argv(tmp_path, data_csv, toy_cfg_file, "good dress")
        assert main(["analyze", "--data", str(data_csv), "--out", str(tmp_path / "runs")]) == 0
        assert main(argv) == 0
        assert main(argv) == 0
        first, second = (tmp_path / "runs" / f"predict-000{n}" / "prediction.json"
                         for n in (1, 2))
        assert first.read_bytes() == second.read_bytes()


def with_bad_byte(path, line):
    """Copy of a text file whose given line ends in byte 0xE9, which is not UTF-8."""
    lines = path.read_bytes().splitlines(keepends=True)
    lines[line - 1] = lines[line - 1].rstrip(b"\n") + b"\xe9\n"
    bad = path.with_name("bad-" + path.name)
    bad.write_bytes(b"".join(lines))
    return bad


class TestNonUtf8Input:
    """A text input holding bytes that are not UTF-8 exits 2 and names their line."""

    def assert_exits_two(self, argv, bad, capsys):
        assert main(argv) == 2
        assert f"{bad}: line 3: not valid UTF-8" in capsys.readouterr().err

    def test_csv(self, tmp_path, data_csv, capsys):
        bad = with_bad_byte(data_csv, 3)
        self.assert_exits_two(
            ["analyze", "--data", str(bad), "--out", str(tmp_path / "runs")], bad, capsys
        )

    def test_config(self, tmp_path, data_csv, toy_cfg_file, capsys):
        bad = with_bad_byte(toy_cfg_file, 3)
        self.assert_exits_two(
            ["analyze", "--data", str(data_csv), "--out", str(tmp_path / "runs"),
             "--config", str(bad)], bad, capsys,
        )

    def test_lexicon(self, tmp_path, data_csv, capsys):
        lexicon = tmp_path / "lex.tsv"
        lexicon.write_text("good\t1.9\nbad\t-2.5\nfine\t0.8\n", encoding="utf-8")
        bad = with_bad_byte(lexicon, 3)
        self.assert_exits_two(
            ["label", "--data", str(data_csv), "--out", str(tmp_path / "runs"),
             "--lexicon", str(bad)], bad, capsys,
        )

    def test_embeddings(self, tmp_path, data_csv, toy_cfg_file, capsys):
        vectors = tmp_path / "vectors.txt"
        dim = toy_config().embedding_dim
        vectors.write_text(
            "".join(f"{word}{' 0.1' * dim}\n" for word in ("good", "bad", "dress")),
            encoding="utf-8",
        )
        bad = with_bad_byte(vectors, 3)
        self.assert_exits_two(
            ["train", "--data", str(data_csv), "--out", str(tmp_path / "runs"),
             "--config", str(toy_cfg_file), "--embeddings", str(bad)], bad, capsys,
        )


class TestConfigResolution:
    def test_flags_beat_config_file(self, tmp_path, data_csv):
        cfg_file = tmp_path / "s.cfg"
        cfg_file.write_text(f"out={tmp_path / 'ignored'}\nseed=99\n")
        out = tmp_path / "runs"
        assert main(["analyze", "--data", str(data_csv), "--out", str(out),
                     "--config", str(cfg_file)]) == 0
        config_text = (out / "analyze-0001" / "config.txt").read_text()
        assert f"out={out}" in config_text
        assert "seed=99" in config_text
        assert not (tmp_path / "ignored").exists()

    def test_file_beats_defaults(self, tmp_path, data_csv):
        cfg_file = tmp_path / "s.cfg"
        cfg_file.write_text("seed=99\n")
        out = tmp_path / "runs"
        assert main(["analyze", "--data", str(data_csv), "--out", str(out),
                     "--config", str(cfg_file)]) == 0
        assert "seed=99" in (out / "analyze-0001" / "config.txt").read_text()

    def test_materialized_config_reruns_identically(self, tmp_path, data_csv, toy_cfg_file):
        """The config written by a run reproduces that run's artifacts."""
        run_dir = train_run(tmp_path, data_csv, toy_cfg_file)
        out2 = tmp_path / "runs2"
        assert main(["train", "--config", str(run_dir / "config.txt"),
                     "--out", str(out2)]) == 0
        first = snapshot(run_dir)
        second = snapshot(out2 / "train-0001")
        del first["config.txt"], second["config.txt"]
        assert first == second

    def test_unknown_config_key_exits_two(self, tmp_path, data_csv, capsys):
        cfg_file = tmp_path / "s.cfg"
        cfg_file.write_text("learning=fast\n")
        code = main(["analyze", "--data", str(data_csv),
                     "--out", str(tmp_path / "runs"), "--config", str(cfg_file)])
        assert code == 2
        assert "unknown key" in capsys.readouterr().err

    @pytest.mark.parametrize("line", [
        'data = "toy\\u0000.csv"', 'out = "r\\u0000s"', "data = toy\0.csv",
        'data = "\\ud800.csv"', 'out = "r\\ud800s"', 'text = "a\\ud800b"',
    ], ids=["data-literal", "out-literal", "raw-data",
            "data-surrogate", "out-surrogate", "text-surrogate"])
    def test_nul_in_a_value_exits_two(self, tmp_path, data_csv, capsys, monkeypatch, line):
        """A NUL or a lone surrogate, which no path or argument can hold, is refused at
        its config line."""
        monkeypatch.chdir(tmp_path)
        cfg_file = tmp_path / "s.cfg"
        cfg_file.write_text(f"seed=3\n{line}\n")
        flag = ["--out", "runs"] if line.startswith("data") else ["--data", str(data_csv)]
        assert main(["analyze", "--config", str(cfg_file), *flag]) == 2
        assert capsys.readouterr().err.startswith(f"error: {cfg_file}: line 2: ")
        assert set(os.listdir(tmp_path)) == {data_csv.name, "s.cfg"}  # no run directory

    def test_empty_value_means_default(self, tmp_path, data_csv, monkeypatch):
        """`key=` with no value leaves that setting at its default."""
        monkeypatch.chdir(tmp_path)  # the default out is ./runs
        defaults = {**asdict(TrainConfig()), "out": "runs"}
        for number, key in enumerate(defaults, start=1):
            cfg_file = toy_config_file(tmp_path / f"{key}.cfg", **{"epochs": 1, "out": "runs",
                                                                   key: ""})
            assert main(["train", "--data", str(data_csv), "--config", str(cfg_file)]) == 0, key
            written = (tmp_path / "runs" / f"train-{number:04d}" / "config.txt").read_text()
            assert f"\n{key}={defaults[key]}\n" in written, key

    def test_invalid_task_in_file_exits_two(self, tmp_path, data_csv):
        cfg_file = tmp_path / "s.cfg"
        cfg_file.write_text("task=regression\n")
        assert main(["analyze", "--data", str(data_csv),
                     "--out", str(tmp_path / "runs"), "--config", str(cfg_file)]) == 2

    def test_run_directories_append_only(self, tmp_path, data_csv):
        out = tmp_path / "runs"
        for _ in range(3):
            assert main(["analyze", "--data", str(data_csv), "--out", str(out)]) == 0
        names = sorted(p.name for p in out.iterdir())
        assert names == ["analyze-0001", "analyze-0002", "analyze-0003"]

    @pytest.mark.parametrize("names", [
        ["analyze-0007", "analyze-0007x", "analyze-007", "analyze-00012", "analyzer-0050"],
        ["label-0040", "analyze-12a4", "analyze- 123", "analyze-0003"],
        ["analyze-\u0661\u0662\u0663\u0664", "analyze-\uff10\uff10\uff12\uff10"],
        ["analyze-\u00b2\u00b2\u00b2\u00b2", "analyze-\u2155\u2155\u2155\u2155"],
    ], ids=["near-misses", "other-commands", "non-ascii-decimals", "digit-like"])
    def test_run_number_follows_four_digit_names(self, tmp_path, data_csv, names):
        """The next run number is one past the largest `analyze-` + four `\\d` digits."""
        out = tmp_path / "runs"
        out.mkdir()
        for name in names:
            (out / name).mkdir()
        taken = [int(m[1]) for n in names if (m := re.fullmatch(r"analyze-(\d{4})", n))]
        assert main(["analyze", "--data", str(data_csv), "--out", str(out)]) == 0
        assert (out / f"analyze-{max(taken, default=0) + 1:04d}" / "analysis.json").exists()

    def test_run_numbers_past_9999_are_taken(self, tmp_path, data_csv):
        """A number of five digits counts too, so numbering never goes back below it."""
        out = tmp_path / "runs"
        for name in ("analyze-9999", "analyze-10003"):
            (out / name).mkdir(parents=True)
        assert main(["analyze", "--data", str(data_csv), "--out", str(out)]) == 0
        assert (out / "analyze-10004" / "analysis.json").exists()
        assert not (out / "analyze-10000").exists()

    def test_run_directory_taken_concurrently(self, tmp_path, data_csv, monkeypatch):
        """A number another run takes between the scan and the mkdir is skipped."""
        out = tmp_path / "runs"
        assert main(["analyze", "--data", str(data_csv), "--out", str(out)]) == 0
        scan = os.listdir

        def scan_then_race(path):
            entries = scan(path)
            if Path(path) == out:
                (out / "analyze-0002").mkdir()
            return entries

        monkeypatch.setattr(os, "listdir", scan_then_race)
        assert main(["analyze", "--data", str(data_csv), "--out", str(out)]) == 0
        monkeypatch.undo()
        assert (out / "analyze-0003" / "analysis.json").exists()
        assert not any((out / "analyze-0002").iterdir())

    @pytest.mark.parametrize("command, refused, accepted", [
        ("evaluate", ["--data", "{other}"], ["--data", "{data}"]),
        ("predict", [], ["--text", "good dress"]),
        ("analyze", ["--data", "{missing}"], ["--data", "{data}"]),
    ], ids=["evaluate-other-csv", "predict-without-text", "analyze-missing-csv"])
    def test_failed_command_leaves_no_run_directory(self, tmp_path, data_csv, toy_cfg_file,
                                                    capsys, command, refused, accepted):
        """A refused command removes its run directory, so the next run is -0001; an --out
        that was there before stays."""
        out = tmp_path / "out"
        out.mkdir()
        common = [command, "--out", str(out)]
        if command != "analyze":
            ckpt = train_run(tmp_path, data_csv, toy_cfg_file) / "model.ckpt"
            common += ["--config", str(toy_cfg_file), "--checkpoint", str(ckpt)]
        other = tmp_path / "other.csv"
        write_csv(toy_reviews(seed=8), other)
        paths = {"data": data_csv, "other": other, "missing": tmp_path / "absent.csv"}
        assert main([*common, *(a.format(**paths) for a in refused)]) == 2
        assert "error:" in capsys.readouterr().err
        assert list(out.iterdir()) == []
        assert main([*common, *(a.format(**paths) for a in accepted)]) == 0
        assert [p.name for p in out.iterdir()] == [f"{command}-0001"]

    def test_interrupted_command_leaves_no_run_directory(self, tmp_path, data_csv,
                                                         toy_cfg_file, monkeypatch):
        """A KeyboardInterrupt in train removes the run directory and still propagates."""
        def interrupted(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr("reviewlab.cli.train", interrupted)
        out = tmp_path / "out"
        out.mkdir()
        with pytest.raises(KeyboardInterrupt):
            main(["train", "--data", str(data_csv), "--out", str(out),
                  "--config", str(toy_cfg_file)])
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("failure", [InputError("refused"), KeyboardInterrupt()],
                             ids=["refused", "interrupted"])
    def test_failed_command_keeps_a_concurrent_run_in_the_out_it_made(
            self, tmp_path, data_csv, monkeypatch, capsys, failure):
        """A run that another process wrote under a new --out while this command ran
        survives this command's failure, and so do the directories that hold it."""
        out = tmp_path / "new" / "deeper"

        def concurrent_run_then_fail(records):
            (out / "analyze-0002").mkdir()
            (out / "analyze-0002" / "config.txt").write_text("# command: analyze\n")
            raise failure

        monkeypatch.setattr("reviewlab.cli.full_report", concurrent_run_then_fail)
        argv = ["analyze", "--data", str(data_csv), "--out", str(out)]
        if isinstance(failure, KeyboardInterrupt):
            with pytest.raises(KeyboardInterrupt):
                main(argv)
        else:
            assert main(argv) == 2
        capsys.readouterr()
        assert [p.name for p in out.iterdir()] == ["analyze-0002"]
        assert (out / "analyze-0002" / "config.txt").exists()

    def test_missing_subcommand_exits_two(self, capsys):
        assert main([]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("line", ['text="unterminated', 'text="two" "strings"', 'seed="x"'])
    def test_malformed_quoted_value_exits_two(self, tmp_path, data_csv, capsys, line):
        cfg_file = tmp_path / "s.cfg"
        cfg_file.write_text(f"# comment\n{line}\n")
        code = main(["analyze", "--data", str(data_csv),
                     "--out", str(tmp_path / "runs"), "--config", str(cfg_file)])
        assert code == 2
        assert f"{cfg_file}: line 2:" in capsys.readouterr().err

    def test_unquoted_value_keeps_its_quotes_inside(self, tmp_path, data_csv):
        """Only a leading quote starts a JSON literal; other values are read as written."""
        cfg_file = tmp_path / "s.cfg"
        cfg_file.write_text('text=say "hi"\n')
        out = tmp_path / "runs"
        assert main(["analyze", "--data", str(data_csv), "--out", str(out),
                     "--config", str(cfg_file)]) == 0
        assert '\ntext="say \\"hi\\""\n' in (out / "analyze-0001" / "config.txt").read_text()

    @pytest.mark.parametrize("key, value", [
        ("learning_rate", "nan"), ("learning_rate", "inf"), ("learning_rate", "-inf"),
        ("grad_clip", "nan"), ("grad_clip", "-inf"),
    ])
    def test_non_finite_hyperparameter_exits_two(self, tmp_path, data_csv, capsys, key, value):
        cfg_file = toy_config_file(tmp_path / "s.cfg", epochs=3, **{key: value})
        code = main(["train", "--data", str(data_csv),
                     "--out", str(tmp_path / "runs"), "--config", str(cfg_file)])
        assert code == 2
        assert f"invalid configuration: {key} must be" in capsys.readouterr().err

    def test_infinite_grad_clip_turns_clipping_off(self, tmp_path, data_csv):
        out = tmp_path / "runs"
        for number, grad_clip in enumerate(("inf", "1e300"), start=1):
            cfg_file = toy_config_file(tmp_path / "s.cfg", epochs=3, grad_clip=grad_clip)
            assert main(["train", "--data", str(data_csv), "--out", str(out),
                         "--config", str(cfg_file)]) == 0
        first, second = out / "train-0001", out / "train-0002"
        assert (first / "model.ckpt").read_bytes() == (second / "model.ckpt").read_bytes()

    def test_invalid_hyperparameter_exits_two(self, tmp_path, data_csv, capsys):
        cfg_file = tmp_path / "s.cfg"
        cfg_file.write_text("dropout_rate=1.5\n")
        code = main(["train", "--data", str(data_csv),
                     "--out", str(tmp_path / "runs"), "--config", str(cfg_file)])
        assert code == 2
        assert "dropout_rate" in capsys.readouterr().err


@pytest.fixture(scope="module")
def toy_checkpoint(tmp_path_factory):
    """A toy model trained once, on the reviews `data_csv` writes, for tests that only
    read it."""
    tmp = tmp_path_factory.mktemp("toy-model")
    write_csv(toy_reviews(), tmp / "reviews.csv")
    cfg_file = toy_config_file(tmp / "toy.cfg", epochs=1)
    assert main(["train", "--data", str(tmp / "reviews.csv"), "--out", str(tmp / "runs"),
                 "--config", str(cfg_file)]) == 0
    return tmp / "runs" / "train-0001" / "model.ckpt"


def command_argv(command, data_csv, checkpoint):
    """The command and the flags it needs on the toy data and checkpoint."""
    return [command, *{
        "analyze": ["--data", str(data_csv)],
        "label": ["--data", str(data_csv)],
        "train": ["--data", str(data_csv)],
        "evaluate": ["--data", str(data_csv), "--checkpoint", str(checkpoint)],
        "predict": ["--checkpoint", str(checkpoint), "--text", "good dress"],
    }[command]]


COMMANDS = ("analyze", "label", "train", "evaluate", "predict")


class TestSettingsCheckedAtTheirLine:
    """Every command checks each config value as `train` would, at the line that holds it."""

    @pytest.mark.parametrize("line", ["cell_size=0", "task=foo", "epochs=-1"])
    @pytest.mark.parametrize("command", COMMANDS)
    def test_out_of_range_value_exits_two(self, tmp_path, data_csv, toy_checkpoint, capsys,
                                          command, line):
        cfg_file = tmp_path / "s.cfg"
        cfg_file.write_text(f"# one value out of range\nseed=4\n{line}\n")
        out = tmp_path / "runs"
        argv = [*command_argv(command, data_csv, toy_checkpoint),
                "--out", str(out), "--config", str(cfg_file)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg_file}: line 3: invalid configuration: ")
        assert line.partition("=")[0] in err
        assert not out.exists()

    @pytest.mark.parametrize("bad", [{}, {"cell_size": 0}, {"epochs": -1}],
                             ids=["toy", "cell_size=0", "epochs=-1"])
    @pytest.mark.parametrize("command", COMMANDS)
    def test_written_config_passes_the_checks(self, tmp_path, data_csv, toy_checkpoint,
                                              capsys, command, bad):
        """Whatever a command accepts, the config.txt it writes reads back through the
        parser's checks into settings that `train` accepts."""
        cfg_file = toy_config_file(tmp_path / "s.cfg", **{"epochs": 1, **bad})
        out = tmp_path / "runs"
        code = main([*command_argv(command, data_csv, toy_checkpoint),
                     "--out", str(out), "--config", str(cfg_file)])
        capsys.readouterr()
        assert code == (2 if bad else 0)
        if code == 0:
            written = reviewlab.cli._parse_config_file(out / f"{command}-0001" / "config.txt")
            config = toy_config(epochs=1)
            assert TrainConfig(**{k: written[k] for k in asdict(config)}) == config


class TestSettingsBeyondMemory:
    def test_huge_cell_size_exits_two_without_allocating(self, tmp_path, data_csv,
                                                         toy_cfg_file, capsys, monkeypatch):
        """The bytes are counted in Python ints before the CSV is read or a weight drawn."""
        def called(*args):
            raise AssertionError("called")

        monkeypatch.setattr(reviewlab.cli, "parse_csv", called)
        monkeypatch.setattr(BiLstmClassifier, "build", called)
        cfg_file = tmp_path / "huge.cfg"
        cfg_file.write_text(toy_cfg_file.read_text() + "cell_size=1000000\n")
        out = tmp_path / "runs"
        assert main(["train", "--data", str(data_csv), "--out", str(out),
                     "--config", str(cfg_file)]) == 2
        weights = sum(map(math.prod, block_shapes(1_000_000, 16, 2)))
        need = 8 * weights + 3 * 4 * (weights + 100 * 16)
        physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        line = len(cfg_file.read_text().splitlines())
        assert capsys.readouterr().err == (
            f"error: {cfg_file}: line {line}: invalid configuration: cell_size 1000000, "
            f"embedding_dim 16 and vocab_size 100 need {need} bytes, "
            f"more than the {physical} bytes of physical memory\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", COMMANDS)
    def test_every_command_refuses_what_train_refuses(self, tmp_path, data_csv, toy_checkpoint,
                                                      capsys, command):
        """The sizes are refused at their config line, before any command reads its input
        or makes a run directory."""
        cfg_file = tmp_path / "huge.cfg"
        cfg_file.write_text("vocab_size=100000000000\n")
        out = tmp_path / "runs"
        assert main([*command_argv(command, data_csv, toy_checkpoint),
                     "--out", str(out), "--config", str(cfg_file)]) == 2
        physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        assert capsys.readouterr().err == (
            f"error: {cfg_file}: line 1: invalid configuration: cell_size 256, embedding_dim 50 "
            "and vocab_size 100000000000 need 60000012595240 bytes, more than the "
            f"{physical} bytes of physical memory\n")
        assert not out.exists()

    @pytest.mark.parametrize("lines, cell_size, vocab_size", [
        (("cell_size=1000000", "vocab_size=10"), 1_000_000, 20_000),
        (("vocab_size=100000000000", "vocab_size=100"), 256, 100_000_000_000),
    ], ids=["lowered-by-a-later-line", "size-set-again"])
    def test_refused_at_the_line_that_asks_for_too_much(self, tmp_path, data_csv, capsys,
                                                        lines, cell_size, vocab_size):
        """Each line is counted with the settings read before it, over the defaults; a
        later line that lowers the need does not make it acceptable."""
        cfg_file = tmp_path / "two.cfg"
        cfg_file.write_text("\n".join(lines) + "\n")
        out = tmp_path / "runs"
        assert main(["analyze", "--data", str(data_csv), "--out", str(out),
                     "--config", str(cfg_file)]) == 2
        weights = sum(map(math.prod, block_shapes(cell_size, 50, 2)))
        need = 8 * weights + 3 * 4 * (weights + vocab_size * 50)
        physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        assert capsys.readouterr().err == (
            f"error: {cfg_file}: line 1: invalid configuration: cell_size {cell_size}, "
            f"embedding_dim 50 and vocab_size {vocab_size} need {need} bytes, "
            f"more than the {physical} bytes of physical memory\n")
        assert not out.exists()

    def test_no_sysconf_skips_the_check(self, tmp_path, data_csv, monkeypatch):
        monkeypatch.delattr(os, "sysconf")
        cfg_file = toy_config_file(tmp_path / "s.cfg", epochs=1)
        assert main(["train", "--data", str(data_csv), "--out", str(tmp_path / "runs"),
                     "--config", str(cfg_file)]) == 0

    def test_memory_error_exits_two(self, tmp_path, data_csv, capsys, monkeypatch):
        """A MemoryError in any command exits 2, and its run directory is removed."""
        def exhausted(records):
            raise MemoryError

        monkeypatch.setattr(reviewlab.cli, "full_report", exhausted)
        out = tmp_path / "runs"
        assert main(["analyze", "--data", str(data_csv), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: out of memory\n"
        assert not out.exists()


@pytest.mark.parametrize("command, flags", [
    ("analyze", ["out", "config", "data"]),
    ("label", ["out", "config", "data", "lexicon"]),
    ("train", ["out", "config", "data", "seed", "task", "lexicon", "embeddings"]),
    ("evaluate", ["out", "config", "data", "seed", "task", "lexicon", "checkpoint"]),
    ("predict", ["out", "config", "checkpoint", "text"]),
])
def test_subcommand_flags_in_order(capsys, command, flags):
    """Each subcommand's usage line lists exactly its flags, in this order."""
    assert main([command, "--help"]) == 0
    usage = capsys.readouterr().out.split("\n\n")[0]
    assert re.findall(r"\[--(\w+)", usage) == flags


BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def blas_env(**values):
    """This environment without the BLAS thread variables, plus `values`, importing this
    reviewlab."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARIABLES}
    src = str(Path(reviewlab.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return {**env, **values}


class TestBlasThreadPin:
    """Importing reviewlab pins BLAS to one thread unless the environment sets a count."""

    def test_unset_variables_read_one_and_a_set_value_wins(self):
        probe = "import os, reviewlab; print(*(os.environ[v] for v in %r))" % (BLAS_VARIABLES,)
        for values, expected in (({}, "1 1 1"), ({"OMP_NUM_THREADS": "3"}, "1 3 1")):
            out = subprocess.run([sys.executable, "-c", probe], env=blas_env(**values),
                                 capture_output=True, text=True, check=True, timeout=120).stdout
            assert out.split() == expected.split()


def test_package_holds_only_modules_the_commands_import():
    """A fresh `import reviewlab.cli` loads every module the package ships: no fixture or
    helper that only tests read rides along in the installed package."""
    probe = ("import pkgutil, sys, reviewlab.cli; print(*(m.name for m in "
             "pkgutil.iter_modules(reviewlab.__path__) if 'reviewlab.' + m.name not in sys.modules))")
    out = subprocess.run([sys.executable, "-c", probe], env=blas_env(), capture_output=True,
                         text=True, check=True, timeout=120).stdout
    assert out == "\n"
