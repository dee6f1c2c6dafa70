"""CSV ingestion, validation, filtering, and the deterministic split.

The input is an RFC-4180 CSV with a header row carrying the ten review
columns in any order (a leading unnamed index column is tolerated, as
shipped in the public file); `COLUMNS` is their one declaration.  Rows
whose mandatory fields fail validation are collected as issues, each
the `line N: message` string `issues.txt` holds, never silently dropped
or repaired.
Optional text fields keep their exact contents so a parse -> write ->
parse cycle reproduces every record bit-for-bit; empty strings are read
back as absent values.
"""

from __future__ import annotations

import csv
import math
from typing import NamedTuple

from .errors import InputError, input_lines
from .rng import SeededRng

# The review columns in record order: inclusive integer bounds, or None for optional text.
COLUMNS = {
    "Clothing ID": (0, math.inf),
    "Age": (0, math.inf),
    "Title": None,
    "Review Text": None,
    "Rating": (1, 5),
    "Recommended IND": (0, 1),
    "Positive Feedback Count": (0, math.inf),
    "Division Name": None,
    "Department Name": None,
    "Class Name": None,
}

MIN_SPLIT_RECORDS = 5


class ReviewRecord(NamedTuple):
    """One valid row: row_id, then one field per COLUMNS entry, in that order."""

    row_id: int
    clothing_id: int
    age: int
    title: str | None
    review_text: str | None
    rating: int
    recommended: bool
    positive_feedback_count: int
    division: str | None
    department: str | None
    class_name: str | None


_RECOMMENDED = ReviewRecord._fields.index("recommended")


def parse_csv(path):
    """Read records and per-row issues from a review CSV.

    Returns (records, issues), each issue a `line N: message` string.  A
    missing required header column raises an InputError naming every
    absent column.
    """
    records: list[ReviewRecord] = []
    issues: list[str] = []
    reader = csv.reader(input_lines(path, newline=""))
    try:
        header = next(reader)
    except StopIteration:
        raise InputError(f"{path}: empty file, expected a header row") from None
    names = [h.strip() for h in header]
    positions = {name: i for i, name in enumerate(names)}
    missing = [c for c in COLUMNS if c not in positions]
    if missing:
        raise InputError(f"{path}: missing required columns: {', '.join(missing)}")
    has_index_column = names[0] == ""
    width = len(header)
    cells = [(name, positions[name], bounds) for name, bounds in COLUMNS.items()]

    for ordinal, row in enumerate(reader):
        line = reader.line_num
        if len(row) != width:
            issues.append(f"line {line}: expected {width} fields, got {len(row)}")
            continue

        problems: list[str] = []
        row_id = ordinal
        if has_index_column:
            try:
                row_id = int(row[0])
            except ValueError:
                problems.append(f"index column not an integer: {row[0]!r}")
        values = [row_id]
        for name, pos, bounds in cells:
            raw = row[pos]
            if bounds is None:
                values.append(raw or None)  # An empty text cell is an absent value.
                continue
            try:
                value = int(raw)
            except ValueError:
                problems.append(f"{name} not an integer: {raw!r}")
                continue
            if not bounds[0] <= value <= bounds[1]:
                problems.append(f"{name} out of range: {value}")
            values.append(value)

        if problems:
            issues.append(f"line {line}: {'; '.join(problems)}")
            continue

        values[_RECOMMENDED] = bool(values[_RECOMMENDED])
        records.append(ReviewRecord(*values))
    return records, issues


def write_csv(records, path, sentiment=None) -> None:
    """Write records in the input layout; optionally append a Sentiment column.

    The leading unnamed index column carries row_id, matching the public
    file's shape, so written files re-parse to identical records.
    """
    header = ["", *COLUMNS]
    if sentiment is not None:
        header.append("Sentiment")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for pos, r in enumerate(records):
            row = ["" if v is None else v for v in r]
            row[_RECOMMENDED] = int(r.recommended)  # a bool, which csv writes as True/False
            if sentiment is not None:
                row.append(sentiment[pos])
            writer.writerow(row)


def write_issues(issues, path) -> None:
    """One issue per line, in input order."""
    with open(path, "w", encoding="utf-8") as fh:
        for issue in issues:
            fh.write(f"{issue}\n")


def filter_for_classification(records):
    """Drop records without review text; return (kept, dropped_count)."""
    kept = [r for r in records if r.review_text is not None]
    return kept, len(records) - len(kept)


def split_60_20_20(records, seed: int) -> tuple[tuple, tuple, tuple]:
    """Seeded shuffle, then contiguous 60/20/20 slices of record indices.

    Returns (train, validation, test) index tuples: train gets
    floor(0.6 n), validation floor(0.2 n), test the remainder.
    """
    n = len(records)
    if n < MIN_SPLIT_RECORDS:
        raise InputError(f"need at least {MIN_SPLIT_RECORDS} records to split, got {n}")
    indices = list(range(n))
    SeededRng(seed).shuffle(indices)
    n_train = (6 * n) // 10
    n_val = (2 * n) // 10
    return (
        tuple(indices[:n_train]),
        tuple(indices[n_train:n_train + n_val]),
        tuple(indices[n_train + n_val:]),
    )
