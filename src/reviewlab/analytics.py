"""Descriptive statistics and tabulations over parsed review records.

Every operation is a pure function of the record list: descriptive
statistics (sample standard deviation, divisor n-1), distinct-value
counts, ranked frequency distributions, cross-tabulations with their
row-normalized form, a Pearson correlation matrix over per-clothing-id
aggregates, segmented word-frequency rankings with a fixed stop-word
list, and decade age bins with positive-feedback sums.

``full_report`` bundles the standard battery of tables under stable
names so the command-line layer only has to serialize them.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .textprep import clean_text, tokenize

FEATURE_ACCESSORS = {
    "Clothing ID": lambda r: r.clothing_id,
    "Age": lambda r: r.age,
    "Title": lambda r: r.title,
    "Review Text": lambda r: r.review_text,
    "Rating": lambda r: r.rating,
    "Recommended IND": lambda r: int(r.recommended),
    "Positive Feedback Count": lambda r: r.positive_feedback_count,
    "Division Name": lambda r: r.division,
    "Department Name": lambda r: r.department,
    "Class Name": lambda r: r.class_name,
}

NUMERIC_FEATURES = (
    "Clothing ID",
    "Age",
    "Rating",
    "Recommended IND",
    "Positive Feedback Count",
)

CATEGORICAL_FEATURES = (
    "Clothing ID",
    "Rating",
    "Recommended IND",
    "Division Name",
    "Department Name",
    "Class Name",
)

HIGH_RATING_THRESHOLD = 3

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


def _values(records, feature):
    """The feature's non-missing values, in record order."""
    try:
        accessor = FEATURE_ACCESSORS[feature]
    except KeyError:
        raise ValueError(f"unknown feature {feature!r}") from None
    values = (accessor(r) for r in records)
    return [v for v in values if v is not None]


@dataclass(frozen=True)
class DescriptiveStats:
    feature: str
    mean: float
    std: float
    minimum: float
    maximum: float
    count: int


def describe(records, feature: str) -> DescriptiveStats:
    """Mean, sample (n-1) std, min, max over non-missing numeric values.

    A single value has no sample variance; its std is reported as 0.
    """
    if feature not in NUMERIC_FEATURES:
        raise ValueError(f"feature {feature!r} is not numeric")
    values = _values(records, feature)
    if not values:
        raise InputError(f"no values present for feature {feature!r}")
    arr = np.asarray(values, dtype=np.float64)
    std = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
    return DescriptiveStats(
        feature=feature,
        mean=float(arr.mean()),
        std=std,
        minimum=float(arr.min()),
        maximum=float(arr.max()),
        count=int(arr.size),
    )


def unique_counts(records) -> dict:
    """Distinct non-missing value count for every feature."""
    return {
        feature: len(set(_values(records, feature)))
        for feature in FEATURE_ACCESSORS
    }


def freq_dist(records, feature: str, top_n: int):
    """The top_n (value, count) pairs, count descending, ties by string order."""
    counts = Counter(_values(records, feature))
    return sorted(counts.items(), key=lambda kv: (-kv[1], str(kv[0])))[:top_n]


@dataclass(frozen=True)
class CrossTab:
    """Contingency counts and their row-normalized form."""

    row_feature: str
    col_feature: str
    row_labels: tuple
    col_labels: tuple
    counts: tuple
    normalized: tuple


def crosstab(records, row_feature: str, col_feature: str) -> CrossTab:
    """Count co-occurrences of two categorical features.

    Records missing either feature are left out of the table.  Each row
    of ``normalized`` divides a row of counts by its sum.
    """
    row_acc = FEATURE_ACCESSORS.get(row_feature)
    col_acc = FEATURE_ACCESSORS.get(col_feature)
    if row_acc is None or col_acc is None:
        bad = row_feature if row_acc is None else col_feature
        raise ValueError(f"unknown feature {bad!r}")
    pairs = []
    for r in records:
        rv, cv = row_acc(r), col_acc(r)
        if rv is not None and cv is not None:
            pairs.append((rv, cv))
    row_labels = tuple(sorted({rv for rv, _ in pairs}, key=str))
    col_labels = tuple(sorted({cv for _, cv in pairs}, key=str))
    counter = Counter(pairs)
    counts = tuple(
        tuple(counter.get((rv, cv), 0) for cv in col_labels) for rv in row_labels
    )
    normalized = tuple(
        tuple(c / row_sum for c in row) if (row_sum := sum(row)) else row
        for row in counts
    )
    return CrossTab(
        row_feature=row_feature,
        col_feature=col_feature,
        row_labels=row_labels,
        col_labels=col_labels,
        counts=counts,
        normalized=normalized,
    )


def pearson(xs, ys) -> float | None:
    """Pearson correlation; None when either side has no variance."""
    if len(xs) != len(ys):
        raise ValueError(f"length mismatch: {len(xs)} vs {len(ys)}")
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
    r = float((xc @ yc) / math.sqrt(sx * sy))
    return max(-1.0, min(1.0, r))


@dataclass(frozen=True)
class CorrelationMatrix:
    """Symmetric Pearson matrix; degenerate entries are None ("missing").

    The diagonal is 1 by definition, including for zero-variance
    variables whose off-diagonal entries are all missing.
    """

    variables: tuple
    matrix: tuple

    def entry(self, a: str, b: str):
        return self.matrix[self.variables.index(a)][self.variables.index(b)]


def grouped_rating_corr(records) -> CorrelationMatrix:
    """Correlations among per-clothing-id aggregates.

    Groups records by clothing id, takes each group's mean rating, review
    count, and mean recommendation rate, and correlates the three series.
    """
    groups: dict = {}
    for r in records:
        groups.setdefault(r.clothing_id, []).append(r)
    if len(groups) < 2:
        raise InputError(f"need at least 2 clothing-id groups, got {len(groups)}")
    ids = sorted(groups)
    mean_rating = [sum(g.rating for g in groups[i]) / len(groups[i]) for i in ids]
    review_count = [float(len(groups[i])) for i in ids]
    mean_recommended = [
        sum(int(g.recommended) for g in groups[i]) / len(groups[i]) for i in ids
    ]
    series = [mean_rating, review_count, mean_recommended]
    names = ("mean_rating", "review_count", "mean_recommended")
    size = len(series)
    matrix = [[None] * size for _ in range(size)]
    for i in range(size):
        matrix[i][i] = 1.0
        for j in range(i + 1, size):
            r = pearson(series[i], series[j])
            matrix[i][j] = r
            matrix[j][i] = r
    return CorrelationMatrix(
        variables=names, matrix=tuple(tuple(row) for row in matrix)
    )


def word_freq_by_segment(records, top_n: int) -> dict:
    """The top_n stop-word-filtered token counts of every text segment.

    Segments, in order: titles, reviews, high_rating (rating > 3),
    low_rating (rating <= 3), and division:<name> for each division
    present.  One pass cleans and tokenizes each title and review once.
    """
    counts = {s: Counter() for s in ("titles", "reviews", "high_rating", "low_rating")}
    for name in sorted({r.division for r in records if r.division is not None}):
        counts[f"division:{name}"] = Counter()

    def words(text):
        return [t for t in tokenize(clean_text(text)) if t not in STOP_WORDS]

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
    return {
        segment: sorted(c.items(), key=lambda kv: (-kv[1], kv[0]))[:top_n]
        for segment, c in counts.items()
    }


@dataclass(frozen=True)
class AgeBin:
    lo: int
    hi: int
    count: int
    positive_feedback_sum: int


def age_bin_positive_feedback(records, bin_width: int = 10):
    """Occupied age bins [k*w, (k+1)*w) with counts and feedback sums."""
    if bin_width < 1:
        raise ValueError(f"bin_width must be >= 1, got {bin_width}")
    table: dict = {}
    for r in records:
        lo = (r.age // bin_width) * bin_width
        count, feedback = table.get(lo, (0, 0))
        table[lo] = (count + 1, feedback + r.positive_feedback_count)
    return [
        AgeBin(lo=lo, hi=lo + bin_width, count=c, positive_feedback_sum=s)
        for lo, (c, s) in sorted(table.items())
    ]


def slug(text: str) -> str:
    """File-name-safe form of a feature or parameter name."""
    return re.sub(r"[^a-z0-9]+", "_", text.lower()).strip("_")


@dataclass(frozen=True)
class Table:
    """One emitted table: a header tuple and value-row tuples."""

    header: tuple
    rows: tuple


def _fmt(value):
    if value is None:
        return ""
    return value


def full_report(records, top_n: int = 60) -> dict:
    """The full battery of analytics tables keyed by stable names.

    Names follow `<operation>__<params>` with slugged parameters; the
    command-line layer writes each as a CSV plus one combined JSON.
    """
    tables: dict[str, Table] = {}

    rows = []
    for feature in NUMERIC_FEATURES:
        d = describe(records, feature)
        rows.append((d.feature, d.mean, d.std, d.minimum, d.maximum, d.count))
    tables["describe__numeric"] = Table(
        header=("feature", "mean", "std", "min", "max", "count"), rows=tuple(rows)
    )

    uc = unique_counts(records)
    tables["unique_counts__all"] = Table(
        header=("feature", "unique_count"),
        rows=tuple((f, uc[f]) for f in FEATURE_ACCESSORS),
    )

    for feature in CATEGORICAL_FEATURES:
        ranked = freq_dist(records, feature, top_n=top_n)
        tables[f"freq_dist__{slug(feature)}"] = Table(
            header=("value", "count"), rows=tuple(ranked)
        )

    for row_f, col_f in (
        ("Division Name", "Department Name"),
        ("Department Name", "Class Name"),
        ("Division Name", "Class Name"),
    ):
        ct = crosstab(records, row_f, col_f)
        header = (ct.row_feature, *ct.col_labels)
        tables[f"crosstab__{slug(row_f)}__{slug(col_f)}"] = Table(
            header=header,
            rows=tuple((rl, *counts) for rl, counts in zip(ct.row_labels, ct.counts)),
        )
        tables[f"crosstab__{slug(row_f)}__{slug(col_f)}__normalized"] = Table(
            header=header,
            rows=tuple(
                (rl, *norm) for rl, norm in zip(ct.row_labels, ct.normalized)
            ),
        )

    corr = grouped_rating_corr(records)
    tables["grouped_corr__by_clothing_id"] = Table(
        header=("variable", *corr.variables),
        rows=tuple(
            (name, *map(_fmt, row)) for name, row in zip(corr.variables, corr.matrix)
        ),
    )

    for segment, ranked in word_freq_by_segment(records, top_n).items():
        tables[f"word_freq__{slug(segment)}"] = Table(
            header=("token", "count"), rows=tuple(ranked)
        )

    bins = age_bin_positive_feedback(records)
    tables["age_bins__width_10"] = Table(
        header=("age_lo", "age_hi", "count", "positive_feedback_sum"),
        rows=tuple((b.lo, b.hi, b.count, b.positive_feedback_sum) for b in bins),
    )
    return tables
