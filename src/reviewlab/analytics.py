"""Descriptive statistics and tabulations over parsed review records.

Every operation is a pure function of its input: descriptive
statistics (sample standard deviation, divisor n-1), distinct-value
counts, frequency distributions ranked by count then string order,
cross-tabulations of pairs on given axes, analyze's and label's, with
their row-normalized form and Cramér's V, Pearson correlation matrices
over numeric features and per-clothing-id aggregates, segmented
word-frequency rankings (the same order) with a fixed stop-word list,
and decade age bins with positive-feedback sums.

Each analysis returns the rows it emits; ``full_report`` bundles the
standard battery of tables under stable names so the command-line layer
only has to write them.  A statistic the records cannot define is None
(or "" in a correlation matrix), never an error.
"""

from __future__ import annotations

import heapq
import math
import re
from collections import Counter
from operator import attrgetter
from typing import NamedTuple

import numpy as np

from .dataset import COLUMNS
from .textprep import tokenize

FEATURE_ACCESSORS = {name: attrgetter(field) for name, (field, _) in COLUMNS.items()}

NUMERIC_FEATURES = tuple(name for name, (_, bounds) in COLUMNS.items() if bounds)

# The record-level features correlated with one another; Clothing ID is a label, not a measure.
CORRELATED_FEATURES = ("Age", "Rating", "Recommended IND", "Positive Feedback Count")

CATEGORICAL_FEATURES = (
    "Clothing ID",
    "Rating",
    "Recommended IND",
    "Division Name",
    "Department Name",
    "Class Name",
)

HIGH_RATING_THRESHOLD = 3
TOP_N = 60
AGE_BIN_WIDTH = 10

STOP_WORDS = frozenset(
    """
    a about above after again against all am an and any are aren't as at be
    because been before being below between both but by can can't could
    couldn't did didn't do does doesn't doing don't down during each few for
    from further had hadn't has hasn't have haven't having he her here hers
    herself him himself his how i if in into is isn't it it's its itself
    just me more most my myself no nor not of off on once only or other our
    ours ourselves out over own same she should shouldn't so some such than
    that the their theirs them themselves then there these they this those
    through to too under until up very was wasn't we were weren't what when
    where which while who whom why will with won't would wouldn't you your
    yours yourself yourselves
    """.split()
)


class Table(NamedTuple):
    """One emitted table: a header tuple and value-row tuples."""

    header: tuple
    rows: tuple


def _values(records, feature):
    """The feature's non-missing values, in record order."""
    return [v for v in map(FEATURE_ACCESSORS[feature], records) if v is not None]


class DescriptiveStats(NamedTuple):
    feature: str
    mean: float | None
    std: float | None
    min: float | None
    max: float | None
    count: int


def describe(records, feature: str) -> DescriptiveStats:
    """Mean, sample (n-1) std, min, max over non-missing numeric values.

    A single value has no sample variance; its std is reported as 0.
    With no values the count is 0 and the four statistics are None.
    """
    values = _values(records, feature)
    if not values:
        return DescriptiveStats(feature, None, None, None, None, 0)
    arr = np.asarray(values, dtype=np.float64)
    std = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
    return DescriptiveStats(
        feature=feature,
        mean=float(arr.mean()),
        std=std,
        min=float(arr.min()),
        max=float(arr.max()),
        count=int(arr.size),
    )


def unique_counts(records) -> dict:
    """Distinct non-missing value count for every feature."""
    return {
        feature: len(set(_values(records, feature)))
        for feature in FEATURE_ACCESSORS
    }


def _ranked(counts, top_n: int) -> list:
    """The top_n (key, count) pairs of a Counter, count descending, ties by string order."""
    top = heapq.nlargest(top_n, counts.values())
    # Only the entries whose count reaches the top_n-th largest can place.
    contenders = [kv for kv in counts.items() if kv[1] >= top[-1]] if top else []
    return sorted(contenders, key=lambda kv: (-kv[1], str(kv[0])))[:top_n]


def freq_dist(records, feature: str, top_n: int):
    """The top_n (value, count) pairs, count descending, ties by string order."""
    return _ranked(Counter(_values(records, feature)), top_n)


def crosstab(pairs, row_labels, col_labels, row_name: str) -> tuple[Table, Table]:
    """Counts of (row, column) pairs on the given axes, and their row-normalized form.

    Both tables have the header (row_name, *col_labels) and one row
    (row label, *cells) per row label, in the order given, with a cell
    for every label even at zero.  Each normalized row divides a row of
    counts by its sum, or is "" in a row of zeros.
    """
    counter = Counter(pairs)
    counts = tuple((rv, *(counter[rv, cv] for cv in col_labels)) for rv in row_labels)
    normalized = tuple((rv, *(n / sum(cells) if sum(cells) else "" for n in cells))
                       for rv, *cells in counts)
    header = (row_name, *col_labels)
    return Table(header, counts), Table(header, normalized)


def pearson(xs, ys) -> float | None:
    """Pearson correlation; None when either side has no variance."""
    if len(xs) < 2:
        return None
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    xc = x - x.mean()
    yc = y - y.mean()
    sx = float(xc @ xc)
    sy = float(yc @ yc)
    if sx == 0.0 or sy == 0.0:
        return None
    # Two roots, not sqrt(sx * sy): that product underflows to 0 for tiny spreads.
    r = float((xc @ yc) / (math.sqrt(sx) * math.sqrt(sy)))
    return max(-1.0, min(1.0, r))


def cramers_v(counts: Table) -> float | None:
    """Cramér's V of a crosstab's counts; None under two non-empty rows or columns."""
    n = np.array([cells for _, *cells in counts.rows], dtype=np.float64)
    rows, cols = n.sum(axis=1), n.sum(axis=0)
    n, rows, cols = n[rows > 0][:, cols > 0], rows[rows > 0], cols[cols > 0]
    if min(n.shape) < 2:
        return None
    expected = np.outer(rows, cols) / n.sum()
    chi2 = float(((n - expected) ** 2 / expected).sum())
    return min(1.0, math.sqrt(chi2 / (n.sum() * (min(n.shape) - 1))))


def correlations(names, series) -> Table:
    """The symmetric Pearson matrix of equal-length series, one row (variable, *r) each.

    An entry pearson cannot define is ""; the diagonal is 1 even for a constant series.
    """
    rows = []
    for i, name in enumerate(names):
        row = [1.0 if i == j else pearson(series[i], series[j]) for j in range(len(names))]
        rows.append((name, *("" if r is None else r for r in row)))
    return Table(("variable", *names), tuple(rows))


def grouped_rating_corr(records) -> Table:
    """Correlations among per-clothing-id aggregates.

    Groups records by clothing id, takes each group's mean rating, review
    count, and mean recommendation rate, and correlates the three series
    with `correlations`.  Under two groups every entry off the diagonal
    is "".
    """
    groups: dict = {}
    for r in records:
        groups.setdefault(r.clothing_id, []).append(r)
    ids = sorted(groups)
    mean_rating = [sum(g.rating for g in groups[i]) / len(groups[i]) for i in ids]
    review_count = [float(len(groups[i])) for i in ids]
    mean_recommended = [sum(g.recommended for g in groups[i]) / len(groups[i]) for i in ids]
    return correlations(("mean_rating", "review_count", "mean_recommended"),
                        (mean_rating, review_count, mean_recommended))


def word_freq_by_segment(records, top_n: int) -> dict:
    """The top_n stop-word-filtered token counts of every text segment.

    Segments, in order: titles, reviews, high_rating (rating > 3),
    low_rating (rating <= 3), and division:<name> for each division
    present.  One pass tokenizes each title and review once.
    """
    counts = {s: Counter() for s in ("titles", "reviews", "high_rating", "low_rating")}
    for name in sorted({r.division for r in records if r.division is not None}):
        counts[f"division:{name}"] = Counter()

    def words(text):
        return [t for t in tokenize(text) if t not in STOP_WORDS]

    for r in records:
        if r.title is not None:
            counts["titles"].update(words(r.title))
        if r.review_text is None:
            continue
        tokens = words(r.review_text)
        counts["reviews"].update(tokens)
        counts["high_rating" if r.rating > HIGH_RATING_THRESHOLD else "low_rating"].update(tokens)
        if r.division is not None:
            counts[f"division:{r.division}"].update(tokens)

    return {segment: _ranked(c, top_n) for segment, c in counts.items()}


class AgeBin(NamedTuple):
    age_lo: int
    age_hi: int
    count: int
    positive_feedback_sum: int


def age_bin_positive_feedback(records) -> list[AgeBin]:
    """Occupied age bins [k*w, (k+1)*w), w = AGE_BIN_WIDTH, with counts and feedback sums."""
    table: dict = {}
    for r in records:
        lo = (r.age // AGE_BIN_WIDTH) * AGE_BIN_WIDTH
        count, feedback = table.get(lo, (0, 0))
        table[lo] = (count + 1, feedback + r.positive_feedback_count)
    return [
        AgeBin(lo, lo + AGE_BIN_WIDTH, c, s) for lo, (c, s) in sorted(table.items())
    ]


def slug(text: str) -> str:
    """File-name-safe form of a feature or parameter name."""
    return re.sub(r"[^a-z0-9]+", "_", text.lower()).strip("_")


def full_report(records) -> dict:
    """The full battery of analytics tables keyed by stable names.

    Names follow `<operation>__<params>` with slugged parameters; a name
    already taken gets the first free suffix `_2`, `_3`, ...  The
    command-line layer writes each as a CSV plus one combined JSON.
    """
    tables = {
        "describe__numeric": Table(
            DescriptiveStats._fields,
            tuple(describe(records, feature) for feature in NUMERIC_FEATURES),
        ),
        "unique_counts__all": Table(
            ("feature", "unique_count"), tuple(unique_counts(records).items())
        ),
    }
    for feature in CATEGORICAL_FEATURES:
        tables[f"freq_dist__{slug(feature)}"] = Table(
            ("value", "count"), tuple(freq_dist(records, feature, TOP_N))
        )
    for row_f, col_f in (
        ("Division Name", "Department Name"),
        ("Department Name", "Class Name"),
        ("Division Name", "Class Name"),
        ("Rating", "Recommended IND"),
    ):
        pairs = [p for p in zip(map(FEATURE_ACCESSORS[row_f], records),
                                map(FEATURE_ACCESSORS[col_f], records)) if None not in p]
        name = f"crosstab__{slug(row_f)}__{slug(col_f)}"
        tables[name], tables[f"{name}__normalized"] = crosstab(
            pairs, sorted({rv for rv, _ in pairs}, key=str),
            sorted({cv for _, cv in pairs}, key=str), row_f)
    tables["grouped_corr__by_clothing_id"] = grouped_rating_corr(records)
    tables["corr__numeric"] = correlations(
        CORRELATED_FEATURES, [_values(records, feature) for feature in CORRELATED_FEATURES])
    for segment, ranked in word_freq_by_segment(records, TOP_N).items():
        name = base = f"word_freq__{slug(segment)}"
        suffix = 1
        while name in tables:
            suffix += 1
            name = f"{base}_{suffix}"
        tables[name] = Table(("token", "count"), tuple(ranked))
    tables[f"age_bins__width_{AGE_BIN_WIDTH}"] = Table(
        AgeBin._fields, tuple(age_bin_positive_feedback(records)))
    return tables
