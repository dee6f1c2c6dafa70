"""Tests for CSV ingestion, filtering, and the deterministic split."""

import csv
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reviewlab.dataset import (
    ReviewRecord,
    filter_for_classification,
    parse_csv,
    split_60_20_20,
    write_csv,
    write_issues,
)
from reviewlab.errors import InputError
from reviewlab.toydata import toy_reviews

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
        assert first.recommended is True
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
            ],
        )
        records, issues = parse_csv(path)
        assert len(records) == 1
        assert issues == ["line 2: Age not an integer: 'old'",
                          "line 3: Recommended IND not an integer: 'maybe'"]

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

    def test_issues_file_line_per_issue(self, tmp_path):
        path = make_csv(tmp_path, ['0,1,25,,text,6,1,0,A,B,C'])
        _, issues = parse_csv(path)
        out = tmp_path / "issues.txt"
        write_issues(issues, out)
        lines = out.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("line 2:")


class TestFilter:
    def make_records(self):
        def rec(i, text):
            return ReviewRecord(
                row_id=i, clothing_id=1, age=30, title=None, review_text=text,
                rating=5, recommended=True, positive_feedback_count=0,
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
