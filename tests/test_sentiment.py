"""Tests for lexicon scoring, labeling thresholds, and auto-labeling."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reviewlab.errors import InputError
from reviewlab.sentiment import (
    BUILTIN_LEXICON,
    DEFAULT_BOOSTERS,
    DEFAULT_NEGATORS,
    MAX_VALENCE,
    NEGATION_FACTOR,
    NEGATIVE,
    NEUTRAL,
    POSITIVE,
    auto_label_dataset,
    compound_from_sum,
    label_from_compound,
    load_lexicon,
    score_text,
)
from reviewlab.textprep import tokenize


def save_lexicon(lexicon, path):
    """Write the valence table as `token<TAB>valence` lines, sorted."""
    with open(path, "w", encoding="utf-8") as fh:
        for token in sorted(lexicon):
            fh.write(f"{token}\t{lexicon[token]}\n")


def compound_oracle(s):
    """Independent evaluation of the squashing formula."""
    return s / math.sqrt(s * s + 15.0)


class TestCompoundAndThresholds:
    def test_empty_tokens_neutral(self):
        score = score_text([], BUILTIN_LEXICON)
        assert score == 0.0
        assert label_from_compound(score) == NEUTRAL

    def test_single_positive_hit(self):
        """good has valence 1.9; compound comes straight from the formula."""
        score = score_text(["good"], BUILTIN_LEXICON)
        assert abs(score - 0.44043) < 1e-5
        assert label_from_compound(score) == POSITIVE

    def test_negated_positive_hit(self):
        score = score_text(["not", "good"], BUILTIN_LEXICON)
        assert abs(score - (-0.34124)) < 1e-5
        assert label_from_compound(score) == NEGATIVE

    def test_triple_positive_hit(self):
        """Three hits of 1.9 sum to 5.7; squashed by the formula oracle."""
        score = score_text(["good", "good", "good"], BUILTIN_LEXICON)
        assert abs(score - compound_oracle(5.7)) < 1e-12
        assert abs(score - 0.827128) < 1e-5
        assert label_from_compound(score) == POSITIVE

    def test_label_thresholds(self):
        assert label_from_compound(0.0) == NEUTRAL
        assert label_from_compound(0.05) == POSITIVE
        assert label_from_compound(-0.05) == NEGATIVE
        assert label_from_compound(0.049) == NEUTRAL
        assert label_from_compound(-0.5) == NEGATIVE

    @given(
        st.floats(min_value=-50, max_value=50, allow_nan=False, allow_subnormal=False)
    )
    @settings(max_examples=100, deadline=None)
    def test_compound_in_open_interval_and_sign(self, s):
        c = compound_from_sum(s)
        assert -1.0 < c < 1.0
        assert (c > 0) == (s > 0)
        assert (c == 0) == (s == 0)

    @given(
        st.floats(min_value=-20, max_value=20, allow_nan=False),
        st.floats(min_value=0.001, max_value=5, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_compound_monotone(self, s, delta):
        assert compound_from_sum(s + delta) > compound_from_sum(s)


class TestScoringRules:
    def test_non_lexicon_tokens_never_change_score(self):
        base = score_text(["great", "dress"], BUILTIN_LEXICON)
        extended = score_text(
            ["great", "dress", "zzz", "qqq", "the"], BUILTIN_LEXICON
        )
        assert extended == base

    def test_negation_window_is_three(self):
        """A negator four tokens back no longer flips the hit."""
        within = score_text(["not", "a", "a", "good"], BUILTIN_LEXICON)
        outside = score_text(["not", "a", "a", "a", "good"], BUILTIN_LEXICON)
        plain = score_text(["good"], BUILTIN_LEXICON)
        assert within < 0
        assert outside == plain

    def test_booster_must_be_adjacent(self):
        boosted = score_text(["very", "good"], BUILTIN_LEXICON)
        gap = score_text(["very", "a", "good"], BUILTIN_LEXICON)
        plain = score_text(["good"], BUILTIN_LEXICON)
        assert abs(boosted - compound_oracle(1.9 + 0.293)) < 1e-12
        assert gap == plain

    def test_booster_pushes_negative_further_down(self):
        boosted = score_text(["very", "bad"], BUILTIN_LEXICON)
        assert abs(boosted - compound_oracle(-2.5 - 0.293)) < 1e-12

    def test_dampener_pulls_toward_zero(self):
        damped = score_text(["slightly", "bad"], BUILTIN_LEXICON)
        assert abs(damped - compound_oracle(-2.5 + 0.293)) < 1e-12

    def test_negation_applies_before_boost(self):
        """'not very good': negation flips 1.9, boost then follows the
        negative sign."""
        score = score_text(["not", "very", "good"], BUILTIN_LEXICON)
        want = compound_oracle(1.9 * NEGATION_FACTOR - 0.293)
        assert abs(score - want) < 1e-12

    def test_negating_any_builtin_positive_flips_label(self):
        """All built-in positive valences clear the threshold both ways."""
        for token, valence in BUILTIN_LEXICON.items():
            if valence <= 0:
                continue
            plain = score_text([token], BUILTIN_LEXICON)
            negated = score_text(["not", token], BUILTIN_LEXICON)
            assert label_from_compound(plain) == POSITIVE, token
            assert label_from_compound(negated) == NEGATIVE, token

    def test_mixed_hits_sum(self):
        score = score_text(["good", "but", "itchy"], BUILTIN_LEXICON)
        assert abs(score - compound_oracle(1.9 - 1.4)) < 1e-12


class TestLexiconValidation:
    def test_valence_range_enforced(self):
        """Every built-in valence lies in the range load_lexicon enforces."""
        assert all(-MAX_VALENCE <= v <= MAX_VALENCE for v in BUILTIN_LEXICON.values())

    def test_negator_booster_overlap_rejected(self):
        """No word is both a negator and a booster."""
        assert not DEFAULT_NEGATORS & DEFAULT_BOOSTERS.keys()

    def test_builtin_is_valid_and_sized(self):
        assert len(BUILTIN_LEXICON) >= 40
        assert BUILTIN_LEXICON["good"] == 1.9


class TestAutoLabel:
    def test_empty_texts_all_neutral(self):
        labels, compounds = auto_label_dataset([tokenize(""), []], BUILTIN_LEXICON)
        assert labels == [NEUTRAL, NEUTRAL]
        assert compounds == [0.0, 0.0]

    def test_strongly_positive_text(self):
        assert auto_label_dataset([tokenize("good good good")], BUILTIN_LEXICON)[0] == [POSITIVE]

    def test_uses_cleaning_pipeline(self):
        """Punctuation and case are stripped before lookup."""
        token_lists = [tokenize("GREAT!!! Really LOVE it.")]
        assert auto_label_dataset(token_lists, BUILTIN_LEXICON)[0] == [POSITIVE]

    def test_deterministic_second_pass(self):
        token_lists = [tokenize("love this soft comfortable top")] * 3
        first = auto_label_dataset(token_lists, BUILTIN_LEXICON)
        second = auto_label_dataset(token_lists, BUILTIN_LEXICON)
        assert first == second


class TestLexiconFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "lexicon.tsv"
        save_lexicon(BUILTIN_LEXICON, path)
        loaded = load_lexicon(path)
        assert loaded == BUILTIN_LEXICON

    def test_malformed_line_names_number(self, tmp_path):
        path = tmp_path / "lexicon.tsv"
        path.write_text("good\t1.9\nbad no tab\n", encoding="utf-8")
        with pytest.raises(InputError, match="line 2"):
            load_lexicon(path)

    def test_bad_valence_value(self, tmp_path):
        path = tmp_path / "lexicon.tsv"
        path.write_text("good\tpositive\n", encoding="utf-8")
        with pytest.raises(InputError, match="line 1"):
            load_lexicon(path)

    def test_out_of_range_valence(self, tmp_path):
        path = tmp_path / "lexicon.tsv"
        path.write_text("good\t9.5\n", encoding="utf-8")
        with pytest.raises(InputError, match="outside"):
            load_lexicon(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "lexicon.tsv"
        path.write_text("good\t1.9\n\nbad\t-2.5\n", encoding="utf-8")
        lex = load_lexicon(path)
        assert lex == {"good": 1.9, "bad": -2.5}
