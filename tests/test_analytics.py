"""Tests for descriptive statistics, tabulations, and correlations."""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reviewlab.analytics import (
    FEATURE_ACCESSORS,
    STOP_WORDS,
    age_bin_positive_feedback,
    crosstab,
    describe,
    freq_dist,
    full_report,
    grouped_rating_corr,
    pearson,
    slug,
    unique_counts,
    word_freq_by_segment,
)
from reviewlab.dataset import ReviewRecord
from toy import toy_reviews


def rec(row_id=0, clothing_id=1, age=30, title=None, review_text=None,
        rating=5, recommended=1, positive_feedback_count=0,
        division=None, department=None, class_name=None):
    return ReviewRecord(
        row_id=row_id, clothing_id=clothing_id, age=age, title=title,
        review_text=review_text, rating=rating, recommended=recommended,
        positive_feedback_count=positive_feedback_count, division=division,
        department=department, class_name=class_name,
    )


def pearson_oracle(xs, ys):
    """Naive two-pass reference: means first, then the three sums."""
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    sxx = sum((x - mx) ** 2 for x in xs)
    syy = sum((y - my) ** 2 for y in ys)
    if sxx == 0 or syy == 0:
        return None
    return sxy / (math.sqrt(sxx) * math.sqrt(syy))


def corr_entry(table, a, b):
    """The correlation of variables a and b in a grouped_rating_corr table."""
    row = next(row for row in table.rows if row[0] == a)
    return row[table.header.index(b)]


class TestDescribe:
    def test_hand_computed_ratings(self):
        records = [rec(rating=i) for i in (1, 2, 3, 4, 5)]
        d = describe(records, "Rating")
        assert d.mean == pytest.approx(3.0)
        assert abs(d.std - 1.581139) < 1e-6
        assert d.min == 1 and d.max == 5
        assert d.count == 5

    def test_constant_column_zero_std(self):
        records = [rec(age=40) for _ in range(4)]
        d = describe(records, "Age")
        assert d.std == 0.0

    def test_single_value_zero_std(self):
        d = describe([rec(age=31)], "Age")
        assert d.std == 0.0
        assert d.count == 1

    def test_recommended_as_numeric(self):
        records = [rec(recommended=1), rec(recommended=0)]
        d = describe(records, "Recommended IND")
        assert d.mean == pytest.approx(0.5)

    def test_empty_records_give_count_zero(self):
        """No values define no statistic: count 0 and None for the other four."""
        assert describe([], "Rating") == ("Rating", None, None, None, None, 0)


class TestUniqueCounts:
    def test_hand_enumeration(self):
        records = [
            rec(clothing_id=1, rating=5, title="a", division="D1"),
            rec(clothing_id=1, rating=4, title="b", division="D1"),
            rec(clothing_id=2, rating=5, title=None, division="D2"),
        ]
        counts = unique_counts(records)
        assert counts["Clothing ID"] == 2
        assert counts["Rating"] == 2
        assert counts["Title"] == 2
        assert counts["Division Name"] == 2
        assert counts["Recommended IND"] == 1

    def test_missing_values_not_counted(self):
        counts = unique_counts([rec(title=None), rec(title=None)])
        assert counts["Title"] == 0

    def test_covers_all_ten_features(self):
        counts = unique_counts([rec()])
        assert len(counts) == 10
        r = rec(row_id=9, clothing_id=11, age=22, title="t", review_text="x", rating=3,
                positive_feedback_count=44, division="dv", department="dp", class_name="c")
        assert [(f, FEATURE_ACCESSORS[f](r)) for f in counts] == [
            ("Clothing ID", 11), ("Age", 22), ("Title", "t"), ("Review Text", "x"),
            ("Rating", 3), ("Recommended IND", 1), ("Positive Feedback Count", 44),
            ("Division Name", "dv"), ("Department Name", "dp"), ("Class Name", "c")]
        assert type(FEATURE_ACCESSORS["Recommended IND"](r)) is int


class TestFreqDist:
    def test_simple_ranking(self):
        records = [rec(division=d) for d in ("a", "a", "b")]
        assert freq_dist(records, "Division Name", top_n=10) == [("a", 2), ("b", 1)]

    def test_top_n_keeps_mode(self):
        records = [rec(division=d) for d in ("a", "a", "b")]
        assert freq_dist(records, "Division Name", top_n=1) == [("a", 2)]

    def test_ties_lexicographic(self):
        records = [rec(division=d) for d in ("zeta", "alpha", "mid")]
        values = [v for v, _ in freq_dist(records, "Division Name", top_n=10)]
        assert values == ["alpha", "mid", "zeta"]

    def test_numeric_feature_ties_by_string(self):
        records = [rec(rating=r) for r in (3, 1, 5)]
        values = [v for v, _ in freq_dist(records, "Rating", top_n=10)]
        assert values == [1, 3, 5]


    def test_clothing_id_ties_by_string(self):
        """Clothing IDs 9 and 10 tie; 10 ranks first, by string order, also at top_n=1."""
        records = [rec(clothing_id=c) for c in (9, 10)]
        assert freq_dist(records, "Clothing ID", top_n=10) == [(10, 1), (9, 1)]
        assert freq_dist(records, "Clothing ID", top_n=1) == [(10, 1)]


class TestCrossTab:
    def records(self):
        return [
            rec(division="G", department="Dresses"),
            rec(division="G", department="Dresses"),
            rec(division="G", department="Tops"),
            rec(division="P", department="Tops"),
            rec(division=None, department="Tops"),
        ]

    def tables(self, records):
        """The Division x Department crosstab of the records that have both, on the
        axes full_report gives it."""
        pairs = [(r.division, r.department) for r in records
                 if r.division is not None and r.department is not None]
        return crosstab(pairs, sorted({d for d, _ in pairs}), sorted({d for _, d in pairs}),
                        "Division Name")

    def test_hand_counts(self):
        counts, normalized = self.tables(self.records())
        assert counts.header == normalized.header == ("Division Name", "Dresses", "Tops")
        assert counts.rows == (("G", 2, 1), ("P", 0, 1))
        assert normalized.rows == (("G", 2 / 3, 1 / 3), ("P", 0.0, 1.0))

    def test_missing_rows_excluded_and_reported(self):
        """The one record without a division is in no cell and no row label."""
        counts = full_report(self.records())["crosstab__division_name__department_name"]
        assert sum(sum(cells) for _, *cells in counts.rows) == 4
        assert None not in [row[0] for row in counts.rows]

    def test_normalized_rows_sum_to_one(self):
        _, normalized = self.tables(self.records())
        for _, *cells in normalized.rows:
            assert abs(sum(cells) - 1.0) < 1e-9

    def test_marginals_match_freq_dist(self):
        """Row sums equal the frequency distribution on the same subset."""
        records = self.records()
        both = [r for r in records if r.division is not None and r.department is not None]
        counts, _ = self.tables(records)
        fd = dict(freq_dist(both, "Division Name", top_n=10))
        for label, *cells in counts.rows:
            assert sum(cells) == fd[label]

    def test_given_axes_keep_zero_cells_and_a_zero_row_is_empty(self):
        """A column label no pair has keeps its zero cells, in the order given; a row
        label no pair has is a row of zeros, normalized to ""."""
        counts, normalized = crosstab([("G", "Tops"), ("G", "Tops"), ("G", "Dresses")],
                                      ("P", "G"), ("Tops", "Knits", "Dresses"), "division")
        assert counts.header == normalized.header == ("division", "Tops", "Knits", "Dresses")
        assert counts.rows == (("P", 0, 0, 0), ("G", 2, 0, 1))
        assert normalized.rows == (("P", "", "", ""), ("G", 2 / 3, 0.0, 1 / 3))


class TestPearson:
    def test_perfect_positive(self):
        assert pearson([1, 2, 3], [10, 20, 30]) == pytest.approx(1.0)

    def test_perfect_negative(self):
        assert pearson([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)

    def test_degenerate_returns_none(self):
        assert pearson([1, 1, 1], [1, 2, 3]) is None
        assert pearson([1], [2]) is None

    @given(
        st.lists(
            st.tuples(
                st.floats(-100, 100, allow_nan=False),
                st.floats(-100, 100, allow_nan=False),
            ),
            min_size=2,
            max_size=200,
        )
    )
    # sxx * syy underflows to 0 here, although neither sum does.
    @example(points=[(0.0, 1.0657669324177237e-131), (1.4296498765850073e-39, 0.0)])
    @settings(max_examples=60, deadline=None)
    def test_matches_two_pass_oracle(self, points):
        """Library Pearson equals the naive reference within 1e-12."""
        xs = [p[0] for p in points]
        ys = [p[1] for p in points]
        got = pearson(xs, ys)
        want = pearson_oracle(xs, ys)
        if want is None:
            assert got is None
        else:
            want = max(-1.0, min(1.0, want))
            assert got == pytest.approx(want, abs=1e-12)


class TestGroupedCorr:
    def test_perfectly_aligned_groups(self):
        """Two groups whose rating and recommendation move together."""
        records = [
            rec(clothing_id=1, rating=5, recommended=1),
            rec(clothing_id=1, rating=5, recommended=1),
            rec(clothing_id=2, rating=1, recommended=0),
            rec(clothing_id=2, rating=1, recommended=0),
        ]
        corr = grouped_rating_corr(records)
        assert corr_entry(corr, "mean_rating", "mean_recommended") == pytest.approx(1.0, abs=1e-9)

    def test_diagonal_is_one(self):
        records = [rec(clothing_id=i, rating=1 + i % 5) for i in range(6)]
        corr = grouped_rating_corr(records)
        assert corr.header == ("variable", "mean_rating", "review_count", "mean_recommended")
        for name in corr.header[1:]:
            assert corr_entry(corr, name, name) == 1.0

    def test_symmetric(self):
        records = [
            rec(clothing_id=i % 3, rating=1 + (i * 2) % 5, recommended=i % 2)
            for i in range(12)
        ]
        corr = grouped_rating_corr(records)
        names = corr.header[1:]
        assert [row[0] for row in corr.rows] == list(names)
        for a in names:
            for b in names:
                assert corr_entry(corr, a, b) == corr_entry(corr, b, a)

    def test_constant_series_reported_missing(self):
        """Equal review counts leave that column undefined (""), not NaN."""
        records = [
            rec(clothing_id=1, rating=5, recommended=1),
            rec(clothing_id=2, rating=1, recommended=0),
        ]
        corr = grouped_rating_corr(records)
        assert corr_entry(corr, "mean_rating", "review_count") == ""
        assert corr_entry(corr, "review_count", "review_count") == 1.0
        assert isinstance(corr_entry(corr, "mean_rating", "mean_recommended"), float)

    @pytest.mark.parametrize("records", [[rec(clothing_id=7), rec(clothing_id=7)], []],
                             ids=["one-group", "no-records"])
    def test_fewer_than_two_groups_leave_off_diagonal_empty(self, records):
        """Under two points no correlation is defined: 1.0 on the diagonal, "" elsewhere."""
        assert grouped_rating_corr(records).rows == (
            ("mean_rating", 1.0, "", ""),
            ("review_count", "", 1.0, ""),
            ("mean_recommended", "", "", 1.0),
        )


class TestWordFreq:
    def test_single_review_counts(self):
        records = [rec(review_text="love love dress")]
        assert word_freq_by_segment(records, top_n=10)["reviews"] == [("love", 2), ("dress", 1)]

    def test_stop_words_removed(self):
        records = [rec(review_text="the dress is the best")]
        tokens = dict(word_freq_by_segment(records, top_n=10)["reviews"])
        assert "the" not in tokens
        assert "is" not in tokens
        assert tokens["dress"] == 1

    def test_titles_segment_uses_titles(self):
        records = [rec(title="lovely top", review_text="ignored words here")]
        tokens = dict(word_freq_by_segment(records, top_n=10)["titles"])
        assert tokens == {"lovely": 1, "top": 1}

    def test_rating_segments_partition_reviews(self):
        """high_rating plus low_rating counts equal the whole corpus."""
        records = [
            rec(review_text="great dress", rating=5),
            rec(review_text="poor dress", rating=2),
            rec(review_text="fine dress", rating=3),
        ]
        freq = word_freq_by_segment(records, top_n=10)
        high, low, whole = (dict(freq[s]) for s in ("high_rating", "low_rating", "reviews"))
        merged = dict(high)
        for token, count in low.items():
            merged[token] = merged.get(token, 0) + count
        assert merged == whole

    def test_rating_three_is_low(self):
        freq = word_freq_by_segment([rec(review_text="borderline dress", rating=3)], top_n=10)
        assert freq["low_rating"]
        assert not freq["high_rating"]

    def test_division_segment(self):
        records = [
            rec(review_text="petite fit", division="Petite"),
            rec(review_text="general fit", division="General"),
        ]
        tokens = dict(word_freq_by_segment(records, top_n=10)["division:Petite"])
        assert tokens == {"petite": 1, "fit": 1}

    def test_every_segment_in_order(self):
        """Fixed segments first, then one per division present, text or not."""
        records = [rec(review_text="fit", division="Petite"), rec(division="General")]
        assert list(word_freq_by_segment(records, top_n=10)) == [
            "titles", "reviews", "high_rating", "low_rating",
            "division:General", "division:Petite",
        ]

    def test_top_n_cuts_every_segment(self):
        records = [rec(title="top dress", review_text="skirt dress top dress", division="P")]
        freq = word_freq_by_segment(records, top_n=1)
        assert freq["titles"] == [("dress", 1)]
        for segment in ("reviews", "high_rating", "division:P"):
            assert freq[segment] == [("dress", 2)]

    def test_cleaning_applied(self):
        records = [rec(review_text="LOVE!!! this... DRESS")]
        tokens = dict(word_freq_by_segment(records, top_n=10)["reviews"])
        assert tokens == {"love": 1, "dress": 1}

    def test_stop_word_list_is_substantial(self):
        assert len(STOP_WORDS) >= 100
        assert "the" in STOP_WORDS and "and" in STOP_WORDS


class TestAgeBins:
    def test_bin_arithmetic(self):
        records = [rec(age=35), rec(age=44)]
        bins = age_bin_positive_feedback(records)
        assert [(b.age_lo, b.age_hi) for b in bins] == [(30, 40), (40, 50)]

    def test_empty_dataset(self):
        assert age_bin_positive_feedback([]) == []

    def test_totals_partition(self):
        records = [
            rec(age=a, positive_feedback_count=f)
            for a, f in ((25, 3), (29, 1), (41, 0), (63, 7))
        ]
        bins = age_bin_positive_feedback(records)
        assert sum(b.count for b in bins) == 4
        assert sum(b.positive_feedback_sum for b in bins) == 11

    def test_boundary_lands_in_upper_bin(self):
        bins = age_bin_positive_feedback([rec(age=40)])
        assert bins[0].age_lo == 40


class TestFullReport:
    def records(self):
        return [
            rec(row_id=0, clothing_id=1, age=25, title="Nice top",
                review_text="love this great top", rating=5, recommended=1,
                positive_feedback_count=2, division="General",
                department="Tops", class_name="Blouses"),
            rec(row_id=1, clothing_id=1, age=31, title="Poor fit",
                review_text="terrible fit returned it", rating=2,
                recommended=0, positive_feedback_count=0,
                division="General", department="Dresses", class_name="Dresses"),
            rec(row_id=2, clothing_id=2, age=47, title=None,
                review_text="soft comfortable fabric", rating=4,
                recommended=1, positive_feedback_count=1,
                division="Petite", department="Tops", class_name="Knits"),
        ]

    def test_contains_expected_tables(self):
        report = full_report(self.records())
        for name in (
            "describe__numeric",
            "unique_counts__all",
            "freq_dist__division_name",
            "crosstab__division_name__department_name",
            "crosstab__division_name__department_name__normalized",
            "grouped_corr__by_clothing_id",
            "word_freq__reviews",
            "word_freq__division_general",
            "age_bins__width_10",
        ):
            assert name in report, name

    def test_tables_have_consistent_shapes(self):
        report = full_report(self.records())
        for name, table in report.items():
            for row in table.rows:
                assert len(row) == len(table.header), name

    def test_deterministic(self):
        a = full_report(self.records())
        b = full_report(self.records())
        assert a == b

    def test_slug_examples(self):
        assert slug("Division Name") == "division_name"
        assert slug("division:General") == "division_general"

    def test_toy_record_level_tables(self):
        """The toy's Rating x Recommended IND crosstab, and its correlations of the
        four record-level numeric features."""
        report = full_report(toy_reviews())
        assert report["crosstab__rating__recommended_ind"] == (
            ("Rating", 0, 1), ((1, 20, 0), (5, 0, 20)))
        assert report["crosstab__rating__recommended_ind__normalized"] == (
            ("Rating", 0, 1), ((1, 1.0, 0.0), (5, 0.0, 1.0)))
        corr = report["corr__numeric"]
        names = ("Age", "Rating", "Recommended IND", "Positive Feedback Count")
        assert corr.header == ("variable", *names)
        assert [row[0] for row in corr.rows] == list(names)
        want = [
            [1.0, -0.04331480818242099, -0.04331480818242099, 0.019370971105651492],
            [-0.04331480818242099, 1.0, 0.9999999999999998, -0.4472135954999579],
            [-0.04331480818242099, 0.9999999999999998, 1.0, -0.4472135954999579],
            [0.019370971105651492, -0.4472135954999579, -0.4472135954999579, 1.0],
        ]
        assert [list(row[1:]) for row in corr.rows] == [pytest.approx(w, abs=1e-12) for w in want]

    def test_constant_feature_correlation_is_empty(self):
        """A zero-variance feature correlates with nothing: "" off the diagonal."""
        records = [rec(age=30, rating=r, positive_feedback_count=r) for r in (1, 5)]
        corr = full_report(records)["corr__numeric"]
        assert corr_entry(corr, "Age", "Rating") == ""
        assert corr_entry(corr, "Age", "Age") == 1.0
        assert corr_entry(corr, "Rating", "Positive Feedback Count") == pytest.approx(1.0)

    @given(st.lists(st.booleans(), min_size=40, max_size=40),
           st.none() | st.integers(0, 1_000_000))
    @settings(max_examples=60, deadline=None)
    def test_any_subset_has_a_report(self, keep, clothing_id):
        """Any sublist of the toy records, the empty one included, and optionally with a
        single Clothing ID, has a full report whose every cell is a str, an int, a
        finite float or None."""
        records = [r for r, k in zip(toy_reviews(), keep) if k]
        if clothing_id is not None:
            records = [r._replace(clothing_id=clothing_id) for r in records]
        for name, table in full_report(records).items():
            for row in (table.header, *table.rows):
                for cell in row:
                    assert cell is None or type(cell) in (str, int) or (
                        type(cell) is float and math.isfinite(cell)), (name, cell)
