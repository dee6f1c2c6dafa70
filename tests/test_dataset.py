"""Tests for CSV ingestion and writing, filtering, and the deterministic split."""

import csv
import hashlib
import math
import runpy
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reviewlab.dataset import (
    ReviewRecord,
    filter_for_classification,
    parse_csv,
    split_60_20_20,
    write_csv,
    write_table,
)
from reviewlab.errors import InputError
from toy import toy_reviews

HEADER = (
    ',Clothing ID,Age,Title,Review Text,Rating,Recommended IND,'
    'Positive Feedback Count,Division Name,Department Name,Class Name'
)


def make_csv(tmp_path, rows, header=HEADER):
    path = tmp_path / "reviews.csv"
    path.write_text(header + "\n" + "\n".join(rows) + ("\n" if rows else ""),
                    encoding="utf-8")
    return path


def sample_rows():
    return [
        '0,767,33,,"Absolutely wonderful - silky and comfortable",4,1,0,Initmates,Intimate,Intimates',
        '1,1080,34,,"Love this dress!  it\'s sooo pretty.",5,1,4,General,Dresses,Dresses',
        '2,1077,60,Some major design flaws,"Flattering shirt",3,0,0,General,Dresses,Dresses',
        '3,1049,50,My favorite buy!,,5,1,0,General Petite,Bottoms,Pants',
        '4,847,47,Flattering,"Shirt is comfortable, love it!",5,1,6,General,Tops,Blouses',
        '5,1080,49,Not for the very petite,"Nice, but runs small",2,0,4,General,Dresses,Dresses',
    ]


class TestParseCsv:
    def test_parses_all_fields(self, tmp_path):
        path = make_csv(tmp_path, sample_rows())
        records, issues = parse_csv(path)
        assert issues == []
        assert len(records) == 6
        first = records[0]
        assert first.row_id == 0
        assert first.clothing_id == 767
        assert first.age == 33
        assert first.title is None
        assert first.review_text == "Absolutely wonderful - silky and comfortable"
        assert first.rating == 4
        assert first.recommended == 1 and type(first.recommended) is int
        assert first.positive_feedback_count == 0
        assert first.division == "Initmates"
        assert first.department == "Intimate"
        assert first.class_name == "Intimates"

    def test_quoted_comma_single_field(self, tmp_path):
        """RFC-4180 quoting keeps the comma inside one field."""
        path = make_csv(tmp_path, ['0,1,25,Hi,"Great, fits!",5,1,0,A,B,C'])
        records, issues = parse_csv(path)
        assert issues == []
        assert records[0].review_text == "Great, fits!"

    def test_rating_out_of_range_is_issue(self, tmp_path):
        path = make_csv(tmp_path, ['0,1,25,,text,6,1,0,A,B,C'])
        records, issues = parse_csv(path)
        assert records == []
        assert issues == ["line 2: Rating out of range: 6"]

    def test_integers_past_two_to_the_53_are_out_of_range(self, tmp_path):
        """Clothing ID, Age and Positive Feedback Count hold at most 2**53, every integer
        float64 holds exactly; the index column is not bounded."""
        top, past = 2**53, 2**53 + 1
        path = make_csv(tmp_path, [f"{10**400},{top},{top},,text,5,1,{top},A,B,C",
                                   f"1,{past},25,,text,5,1,0,A,B,C",
                                   f"2,1,{past},,text,5,1,0,A,B,C",
                                   f"3,1,25,,text,5,1,{10**399},A,B,C"])
        records, issues = parse_csv(path)
        assert [(r.row_id, r.clothing_id, r.age, r.positive_feedback_count)
                for r in records] == [(10**400, top, top, top)]
        assert issues == [f"line 3: Clothing ID out of range: {past}",
                          f"line 4: Age out of range: {past}",
                          "line 5: Positive Feedback Count out of range: "
                          f"{'1' + '0' * 59}... (400 characters)"]

    @pytest.mark.parametrize("sign", ["", "-"])
    def test_integer_too_long_for_int_is_out_of_range(self, tmp_path, sign):
        """A cell of 5,000 digits, which int() refuses for its length on Python 3.11 and
        later, is out of range in every integer column, the index column included."""
        cell = sign + "9" * 5000
        shown = f"{cell[:60]}... ({len(cell)} characters)"
        path = make_csv(tmp_path, [f"{cell},{cell},{cell},,text,{cell},{cell},{cell},A,B,C"])
        records, issues = parse_csv(path)
        assert records == []
        assert issues == ["line 2: " + "; ".join(
            f"{name} out of range: {shown}" for name in (
                "index column", "Clothing ID", "Age", "Rating", "Recommended IND",
                "Positive Feedback Count"))]

    def test_long_cell_is_shown_as_its_first_60_characters(self, tmp_path):
        """A 3,000-character cell shows its first 60 characters and its length; a
        60-character one shows whole."""
        path = make_csv(tmp_path, [f"0,1,{'x' * 3000},,text,5,1,0,A,B,C",
                                   f"1,1,{'y' * 60},,text,5,1,0,A,B,C"])
        _, issues = parse_csv(path)
        assert issues == [f"line 2: Age not an integer: {'x' * 60!r}... (3000 characters)",
                          f"line 3: Age not an integer: {'y' * 60!r}"]

    def test_empty_text_is_absent(self, tmp_path):
        path = make_csv(tmp_path, ['0,1,25,,,5,1,0,A,B,C'])
        records, _ = parse_csv(path)
        assert records[0].review_text is None
        assert records[0].title is None

    def test_missing_columns_named(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("Clothing ID,Age\n1,25\n", encoding="utf-8")
        with pytest.raises(InputError, match="Rating"):
            parse_csv(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(InputError, match="header"):
            parse_csv(path)

    def test_non_integer_fields_collected(self, tmp_path):
        path = make_csv(
            tmp_path,
            [
                '0,1,old,,text,5,1,0,A,B,C',
                '1,1,25,,text,5,maybe,0,A,B,C',
                '2,1,25,,text,5,1,0,A,B,C',
                'x,1,25,,text,5,1,0,A,B,C',
            ],
        )
        records, issues = parse_csv(path)
        assert len(records) == 1
        assert issues == ["line 2: Age not an integer: 'old'",
                          "line 3: Recommended IND not an integer: 'maybe'",
                          "line 5: index column not an integer: 'x'"]

    @pytest.mark.parametrize("cell",
                             ["1_0", "3_5", "\uff15", " 7 ", "+5", "\u0663", "-", "--4", "4-"])
    def test_integer_cell_is_a_minus_and_ascii_digits(self, tmp_path, cell):
        """int() would read each of these cells; the parser reports them instead."""
        path = make_csv(tmp_path, [f'{cell},1,{cell},,text,5,1,0,A,B,C'])
        records, issues = parse_csv(path)
        assert records == []
        assert issues == [f"line 2: index column not an integer: {cell!r}; "
                          f"Age not an integer: {cell!r}"]

    def test_repeated_columns_named(self, tmp_path):
        """A header naming a review column twice is refused before any row is read."""
        header = HEADER + ",Rating,Title,Sentiment,Sentiment"
        path = make_csv(tmp_path, ['0,1,25,,text,5,1,0,A,B,C,1,,x,y', 'short'], header=header)
        with pytest.raises(InputError, match=r"named more than once: Title, Rating$"):
            parse_csv(path)

    def test_multiple_problems_one_row_joined(self, tmp_path):
        path = make_csv(tmp_path, ['0,1,-4,,text,9,1,0,A,B,C'])
        _, issues = parse_csv(path)
        assert issues == ["line 2: Age out of range: -4; Rating out of range: 9"]

    def test_field_count_mismatch_is_issue(self, tmp_path):
        path = make_csv(tmp_path, ['0,1,25,,text,5,1,0,A,B'])
        records, issues = parse_csv(path)
        assert records == []
        assert issues == ["line 2: expected 11 fields, got 10"]

    def test_quoted_newline_inside_field(self, tmp_path):
        path = make_csv(
            tmp_path, ['0,1,25,,"line one\nline two",5,1,0,A,B,C']
        )
        records, issues = parse_csv(path)
        assert issues == []
        assert records[0].review_text == "line one\nline two"

    def test_works_without_index_column(self, tmp_path):
        header = HEADER[1:]
        path = make_csv(tmp_path, ['1,25,,text,5,1,0,A,B,C'], header=header)
        records, _ = parse_csv(path)
        assert records[0].row_id == 0
        assert records[0].clothing_id == 1

    def test_extra_columns_tolerated(self, tmp_path):
        """A previously labeled file (extra Sentiment column) re-parses."""
        header = HEADER + ",Sentiment"
        path = make_csv(tmp_path, ['0,1,25,,text,5,1,0,A,B,C,positive'], header=header)
        records, issues = parse_csv(path)
        assert issues == []
        assert len(records) == 1

    def test_line_numbers_account_for_embedded_newlines(self, tmp_path):
        path = make_csv(
            tmp_path,
            ['0,1,25,,"a\nb",5,1,0,A,B,C', '1,1,25,,text,9,1,0,A,B,C'],
        )
        _, issues = parse_csv(path)
        assert issues == ["line 4: Rating out of range: 9"]

    def test_row_issues_name_the_records_first_line(self, tmp_path):
        """A row issue names the line its record starts on, as a refused record does."""
        path = make_csv(tmp_path, [
            '0,1,25,,"a\nb\nc",9,1,0,A,B,C',  # lines 2-4
            '1,1,25,,"d\ne",5,1,0,A',  # lines 5-6
            '2,1,25,,text,5,1,0,A,B,C',
            '3,1,25,,"f\ng",5,x,0,A,B,C',  # lines 8-9
        ])
        _, issues = parse_csv(path)
        assert issues == ["line 2: Rating out of range: 9", "line 5: expected 11 fields, got 9",
                          "line 8: Recommended IND not an integer: 'x'"]

    @pytest.mark.parametrize("rows, line", [
        (['0,1,25,,"never closed,5,1,0,A,B,C', *['1,1,25,,text,5,1,0,A,B,C'] * 6000], 2),
        (['0,1,25,,' + "x" * 150_000 + ',5,1,0,A,B,C', '1,1,25,,text,5,1,0,A,B,C'], 2),
        (['0,1,25,,"a\nb",5,1,0,A,B,C', '1,1,25,,' + "x" * 150_000 + ',5,1,0,A,B,C'], 4),
    ], ids=["unclosed-quote", "long-review", "after-an-embedded-newline"])
    def test_record_over_the_field_limit_names_its_first_line(self, tmp_path, rows, line):
        """A record csv refuses raises InputError at the line the record starts on."""
        path = make_csv(tmp_path, rows)
        with pytest.raises(InputError) as refused:
            parse_csv(path)
        assert str(refused.value) == f"{path}: line {line}: field larger than field limit (131072)"
        assert csv.field_size_limit() == 131072

    def test_byte_order_mark_keeps_index_column(self, tmp_path):
        rows = [f"{100 + i}{row[row.index(','):]}" for i, row in enumerate(sample_rows())]
        plain = make_csv(tmp_path, rows)
        with_bom = tmp_path / "bom.csv"
        with_bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        records, issues = parse_csv(plain)
        assert [r.row_id for r in records] == list(range(100, 106))
        assert parse_csv(with_bom) == (records, issues)

    def test_column_order_does_not_matter(self, tmp_path):
        """Header names, not positions, place a cell in its record: the toy CSV with its
        review columns reversed and one extra column gives the same records and issues."""
        original, shuffled = tmp_path / "toy.csv", tmp_path / "shuffled.csv"
        write_csv(toy_reviews(), original)
        with open(original, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        rows[3][2] = "x"  # Age
        rows[6][1], rows[6][5] = "x", "9"  # Clothing ID, Rating
        with open(original, "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh).writerows(rows)
        # The index column first, then the ten review columns reversed, an extra one among them.
        with open(shuffled, "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh).writerows([row[0], *row[:5:-1], "extra", *row[5:0:-1]] for row in rows)
        assert shuffled.read_text(encoding="utf-8").splitlines()[0] == (
            ",Class Name,Department Name,Division Name,Positive Feedback Count,Recommended IND,"
            "extra,Rating,Review Text,Title,Age,Clothing ID")
        records, issues = parse_csv(original)
        assert issues == ["line 4: Age not an integer: 'x'",
                          "line 7: Clothing ID not an integer: 'x'; Rating out of range: 9"]
        assert len(records) == 38
        assert parse_csv(shuffled) == (records, issues)  # issues.txt holds one issue a line


class TestRoundTrip:
    def test_parse_write_parse_identical(self, tmp_path):
        path = make_csv(tmp_path, sample_rows())
        records, _ = parse_csv(path)
        out = tmp_path / "rewritten.csv"
        write_csv(records, out)
        records2, issues2 = parse_csv(out)
        assert issues2 == []
        assert records2 == records

    def test_sentiment_column_appended(self, tmp_path):
        path = make_csv(tmp_path, sample_rows()[:2])
        records, _ = parse_csv(path)
        out = tmp_path / "labeled.csv"
        write_csv(records, out, sentiment=["positive", "negative"])
        text = out.read_text(encoding="utf-8")
        assert text.splitlines()[0].endswith(",Sentiment")
        assert text.splitlines()[1].endswith(",positive")
        records2, _ = parse_csv(out)
        assert records2 == records


class TestWriteTable:
    def test_header_first_utf8_lf_lines_none_empty_and_quoted_cells(self, tmp_path):
        """The header comes first, each line ends in a bare LF, text is UTF-8, None is an
        empty cell, and a cell holding a comma, a quote and a line break is quoted, so
        csv.reader reads every row back."""
        path = tmp_path / "table.csv"
        tricky = 'a, "b"\nc'
        write_table(path, ("name", "value"), [("café", 1.5), (None, 2), (tricky, None)])
        assert path.read_bytes() == 'name,value\ncafé,1.5\n,2\n"a, ""b""\nc",\n'.encode()
        with open(path, encoding="utf-8", newline="") as fh:
            assert list(csv.reader(fh)) == [["name", "value"], ["café", "1.5"], ["", "2"],
                                            [tricky, ""]]

    def test_sentiment_column_must_match_the_records(self, tmp_path):
        records = toy_reviews()[:3]
        with pytest.raises(ValueError):
            write_csv(records, tmp_path / "labeled.csv", sentiment=["positive"] * 2)


class TestFilter:
    def make_records(self):
        def rec(i, text):
            return ReviewRecord(
                row_id=i, clothing_id=1, age=30, title=None, review_text=text,
                rating=5, recommended=1, positive_feedback_count=0,
                division=None, department=None, class_name=None,
            )

        return [rec(0, "kept"), rec(1, None), rec(2, "also kept")]

    def test_drops_absent_text(self):
        kept, dropped = filter_for_classification(self.make_records())
        assert [r.row_id for r in kept] == [0, 2]
        assert dropped == 1

    def test_idempotent(self):
        kept, _ = filter_for_classification(self.make_records())
        again, dropped = filter_for_classification(kept)
        assert again == kept
        assert dropped == 0


class TestSplit:
    def test_sizes_ten(self):
        split = split_60_20_20(list(range(10)), seed=1)
        assert tuple(map(len, split)) == (6, 2, 2)

    def test_sizes_eleven_remainder_to_test(self):
        split = split_60_20_20(list(range(11)), seed=1)
        assert tuple(map(len, split)) == (6, 2, 3)

    def test_same_seed_identical(self):
        a = split_60_20_20(list(range(50)), seed=9)
        b = split_60_20_20(list(range(50)), seed=9)
        assert a == b

    def test_different_seeds_differ(self):
        a = split_60_20_20(list(range(50)), seed=1)
        b = split_60_20_20(list(range(50)), seed=2)
        assert a[0] != b[0]

    def test_too_few_records(self):
        with pytest.raises(InputError, match="at least 5"):
            split_60_20_20(list(range(4)), seed=0)

    def test_split_is_shuffled_not_contiguous(self):
        train, _, _ = split_60_20_20(list(range(100)), seed=3)
        assert train != tuple(range(60))

    @given(st.integers(5, 400), st.integers(0, 2**32))
    @settings(max_examples=60, deadline=None)
    def test_partition_properties(self, n, seed):
        """Splits are disjoint, exhaustive, non-empty, and sized by the floor rule."""
        train, val, test = split_60_20_20(list(range(n)), seed=seed)
        assert train and val and test  # what train, evaluate and the metrics rely on
        assert len(train) == math.floor(6 * n / 10)
        assert len(val) == math.floor(2 * n / 10)
        assert len(test) == n - len(train) - len(val)
        combined = sorted(train + val + test)
        assert combined == list(range(n))


class TestMakeToyData:
    """scripts/make_toy_data.py writes the toy fixture; a bad --n is a usage error."""

    SCRIPT = str(Path(__file__).resolve().parents[1] / "scripts" / "make_toy_data.py")

    def run(self, monkeypatch, *argv):
        monkeypatch.setattr(sys, "argv", ["make_toy_data.py", *argv])
        runpy.run_path(self.SCRIPT, run_name="__main__")

    @pytest.mark.parametrize("n", ["3", "0", "-2"])
    def test_odd_or_too_small_n_is_usage_error(self, tmp_path, monkeypatch, capsys, n):
        out = tmp_path / "toy.csv"
        with pytest.raises(SystemExit) as exc:
            self.run(monkeypatch, "--out", str(out), "--n", n)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: make_toy_data.py")
        assert err.endswith(f"error: --n: n must be an even number >= 2, got {n}\n")
        assert not out.exists()

    # The CSV's sha256 per argument list: every recorded toy history and
    # acceptances 4 and 8 read these bytes.
    PINNED = {
        (): "0bb548ccf99b1e61704f6269c473c56deecc4e259a0a0fcffd2d980e70428684",
        ("--n", "4"): "885ac9959243040d73c3bd2b68f83183f17253cc557c81844a15fcc5975af092",
        ("--seed", "8"): "749b1bfa663c958f21c2830a715d722bc836cae7493e7a405300991f2da9922a",
        ("--n", "200", "--seed", "3"):
            "4d5d46b54b0496811c555fb3e2aecc3745d7db223a58ebc034c3bb1683f60d78",
    }

    def test_even_n_writes_fixture(self, tmp_path, monkeypatch):
        out = tmp_path / "toy.csv"
        self.run(monkeypatch, "--out", str(out), "--n", "4")
        assert parse_csv(out) == (toy_reviews(n=4), [])
        for argv, digest in self.PINNED.items():
            self.run(monkeypatch, "--out", str(out), *argv)
            assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, argv
