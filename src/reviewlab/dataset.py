"""CSV ingestion and writing, validation, filtering, and the deterministic split.

The input is an RFC-4180 CSV with a header row naming each of the ten
review columns once, in any order (a leading unnamed index column is
tolerated, as shipped in the public file); `COLUMNS` declares them.  Rows
whose mandatory fields fail validation are collected as issues, each
the `line N: message` string `issues.txt` holds, never silently dropped
or repaired.  An integer cell is an optional '-' then ASCII digits;
every integer column, Recommended IND (0 or 1) included, keeps that int,
and none holds more than 2**53 (the index column is not bounded); one
with more digits than int() converts is out of range in every column.
An issue shows at most 60 characters of a cell or value, then its length.
Optional text fields keep their exact contents so a parse -> write ->
parse cycle reproduces every record bit-for-bit; empty strings are read
back as absent values.  `write_table` writes every CSV the program
writes, `labeled.csv` and each table alike, and this module nothing else.
"""

from __future__ import annotations

import csv
import math
from typing import NamedTuple

from .errors import InputError, input_lines
from .rng import SeededRng

# Every integer up to this is exact in float64, in which every statistic computes.
MAX_INTEGER = 2**53

# The review columns in record order: each one's ReviewRecord field and its inclusive
# integer bounds, or None for optional text.
COLUMNS = {
    "Clothing ID": ("clothing_id", (0, MAX_INTEGER)),
    "Age": ("age", (0, MAX_INTEGER)),
    "Title": ("title", None),
    "Review Text": ("review_text", None),
    "Rating": ("rating", (1, 5)),
    "Recommended IND": ("recommended", (0, 1)),
    "Positive Feedback Count": ("positive_feedback_count", (0, MAX_INTEGER)),
    "Division Name": ("division", None),
    "Department Name": ("department", None),
    "Class Name": ("class_name", None),
}

MIN_SPLIT_RECORDS = 5

# One valid row: row_id, then each COLUMNS field in order, an int if bounded, else text.
ReviewRecord = NamedTuple("ReviewRecord", [("row_id", int), *(
    (field, int if bounds else str | None) for field, bounds in COLUMNS.values())])


def _shown(text: str, show=str) -> str:
    """show(text), or show() of its first 60 characters, then its length."""
    if len(text) <= 60:
        return show(text)
    return f"{show(text[:60])}... ({len(text)} characters)"


def parse_csv(path):
    """Read records and per-row issues from a review CSV.

    Returns (records, issues), each issue a `line N: message` string, N the
    first line of its record.  A header missing a review column, or naming
    one more than once, raises an InputError naming every such column; a
    record csv refuses (a field over the size limit, say) names its first line.
    """
    records: list[ReviewRecord] = []
    issues: list[str] = []
    reader = csv.reader(input_lines(path, newline=""))
    line = 0  # the last line read; a record csv refuses starts on the next
    try:
        header = next(reader, None)
        if header is None:
            raise InputError(f"{path}: empty file, expected a header row")
        line = reader.line_num
        names = [h.strip() for h in header]
        positions = {name: i for i, name in enumerate(names)}
        missing = [c for c in COLUMNS if c not in positions]
        if missing:
            raise InputError(f"{path}: missing required columns: {', '.join(missing)}")
        repeated = [c for c in COLUMNS if names.count(c) > 1]
        if repeated:
            raise InputError(f"{path}: columns named more than once: {', '.join(repeated)}")
        width = len(header)
        index = [("index column", 0, (-math.inf, math.inf))] if names[0] == "" else []
        cells = index + [(name, positions[name], bounds) for name, (_, bounds) in COLUMNS.items()]

        for ordinal, row in enumerate(reader):
            first, line = line + 1, reader.line_num  # the record's first and last lines
            if len(row) != width:
                issues.append(f"line {first}: expected {width} fields, got {len(row)}")
                continue

            problems: list[str] = []
            values = [] if index else [ordinal]  # row_id: the index cell, else the ordinal
            for name, pos, bounds in cells:
                raw = row[pos]
                if bounds is None:
                    values.append(raw or None)  # An empty text cell is an absent value.
                    continue
                if not (raw.isascii() and raw.removeprefix("-").isdigit()):
                    problems.append(f"{name} not an integer: {_shown(raw, repr)}")
                    continue
                try:
                    value = int(raw)
                except ValueError:  # more digits than int() converts, past every bound
                    problems.append(f"{name} out of range: {_shown(raw)}")
                    continue
                if not bounds[0] <= value <= bounds[1]:
                    problems.append(f"{name} out of range: {_shown(str(value))}")
                values.append(value)

            if problems:
                issues.append(f"line {first}: {'; '.join(problems)}")
                continue

            records.append(ReviewRecord(*values))
    except csv.Error as exc:
        raise InputError(f"{path}: line {line + 1}: {exc}") from exc
    return records, issues


def write_table(path, header, rows) -> None:
    """Write the header, then each row, as UTF-8 CSV with LF line ends; None is an empty cell."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_csv(records, path, sentiment=None) -> None:
    """Write records in the input layout; optionally append a Sentiment column.

    The leading unnamed index column carries row_id, matching the public
    file's shape, so written files re-parse to identical records.
    """
    header, rows = ["", *COLUMNS], records
    if sentiment is not None:
        header.append("Sentiment")
        rows = ((*r, label) for r, label in zip(records, sentiment, strict=True))
    write_table(path, header, rows)


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
