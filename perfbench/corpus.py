"""Seeded, vectorised generator of review corpora in the public CSV layout.

The corpus imitates the shape of the public clothing-review file rather
than its words: a leading unnamed index column and the ten review
columns, Zipf-distributed tokens over a vocabulary larger than the
trainer's 20k cap, gamma-distributed review lengths (mean about 57
tokens, capped at 115), about 82% recommended, plus a few rows with an
empty ``Review Text`` and a few malformed rows so that ``issues.txt`` is
produced.  The same seed always gives the same bytes.
"""

from __future__ import annotations

import csv

import numpy as np

HEADER = (
    "", "Clothing ID", "Age", "Title", "Review Text", "Rating", "Recommended IND",
    "Positive Feedback Count", "Division Name", "Department Name", "Class Name",
)

MAX_TOKENS = 115
LENGTH_SHAPE = 3.2
LENGTH_SCALE = 18.6
RECOMMENDED_SHARE = 0.82
SENTIMENT_SHARE = 0.06
SYNTHETIC_WORDS = 48_000
ZIPF_EXPONENT = 1.0

_COMMON = (
    "the i and a it is this to in but for of was my so on with not size "
    "love dress top very fit wear just be have that are too like or fabric "
    "color one small ordered at as would little great up will which can "
    "really perfect medium looks usually all cute an nice soft large petite "
    "length bought more material am because run store look when could if "
    "jeans well than sweater shirt waist back also no don't again down "
    "tried these they what get beautiful comfortable from it's much even"
).split()
_POSITIVE = (
    "love loved lovely perfect beautiful gorgeous nice cute pretty amazing "
    "awesome excellent wonderful happy best comfortable soft flattering "
    "stylish recommend favorite compliments great good"
).split()
_NEGATIVE = (
    "bad terrible awful horrible worst poor cheap disappointed disappointing "
    "hate hated ugly uncomfortable itchy scratchy unflattering flimsy "
    "returned weird wrong sad"
).split()
_DIVISIONS = ("General", "General Petite", "Initmates")
_DEPARTMENTS = ("Tops", "Dresses", "Bottoms", "Intimate", "Jackets", "Trend")
_CLASSES = (
    "Knits", "Dresses", "Blouses", "Sweaters", "Pants", "Jeans", "Fine gauge",
    "Skirts", "Jackets", "Lounge", "Swim", "Outerwear", "Shorts", "Sleep",
)
# Letters the synthetic words never use, so these tokens are always OOV.
_OOV_WORDS = ("qxzv", "xqjz", "zvqx", "jqxw", "wqzx")


def _vocabulary() -> np.ndarray:
    """Common words first (highest Zipf ranks), then synthetic CV words."""
    consonants = "bcdfghklmnprstvy"
    vowels = "aeiou"
    syllables = np.array([c + v for c in consonants for v in vowels])
    n = len(syllables)
    idx = np.arange(SYNTHETIC_WORDS)
    words = syllables[idx % n]
    for depth in (1, 2):
        words = np.char.add(words, syllables[(idx // n**depth) % n])
    extra = np.array(_COMMON + _POSITIVE + _NEGATIVE)
    _, first = np.unique(np.concatenate([extra, words]), return_index=True)
    return np.concatenate([extra, words])[np.sort(first)]


VOCAB = _vocabulary()


def _zipf_probs(n: int) -> np.ndarray:
    weights = 1.0 / np.arange(1, n + 1) ** ZIPF_EXPONENT
    return weights / weights.sum()


def token_lengths(rng: np.random.Generator, n: int) -> np.ndarray:
    lengths = rng.gamma(LENGTH_SHAPE, LENGTH_SCALE, size=n)
    return np.clip(np.rint(lengths), 1, MAX_TOKENS).astype(np.int64)


def _texts(rng: np.random.Generator, lengths: np.ndarray, positive: np.ndarray) -> list:
    """Join Zipf tokens into one string per length; sentiment words follow `positive`."""
    total = int(lengths.sum())
    tokens = VOCAB[rng.choice(len(VOCAB), size=total, p=_zipf_probs(len(VOCAB)))]
    owner = np.repeat(np.arange(len(lengths)), lengths)
    swap = rng.random(total) < SENTIMENT_SHARE
    # One review in five carries sentiment words against its label.
    flip = rng.random(len(lengths)) < 0.2
    use_pos = (positive ^ flip)[owner] & swap
    use_neg = ~(positive ^ flip)[owner] & swap
    pos, neg = np.array(_POSITIVE), np.array(_NEGATIVE)
    tokens[use_pos] = pos[rng.integers(0, len(pos), int(use_pos.sum()))]
    tokens[use_neg] = neg[rng.integers(0, len(neg), int(use_neg.sum()))]
    bounds = np.cumsum(lengths)[:-1]
    return [" ".join(chunk) for chunk in np.split(tokens, bounds)]


def write_corpus(path, n_reviews: int, n_empty: int, n_malformed: int, seed: int) -> dict:
    """Write a corpus of n_reviews texts plus empty-text and malformed rows.

    Returns facts the checks and the report need: row counts, the number
    of records a parser keeps, and the pad fraction at 120 steps.
    """
    rng = np.random.default_rng(seed)
    n_rows = n_reviews + n_empty + n_malformed
    recommended = rng.random(n_reviews) < RECOMMENDED_SHARE
    lengths = token_lengths(rng, n_reviews)
    texts = _texts(rng, lengths, recommended)
    title_lengths = rng.integers(0, 6, n_reviews)
    titles = _texts(rng, np.maximum(title_lengths, 1), recommended)
    titles = [t if k else "" for t, k in zip(titles, title_lengths)]
    high = rng.choice([4, 5], n_reviews, p=[0.35, 0.65])
    low = rng.choice([1, 2, 3], n_reviews, p=[0.2, 0.3, 0.5])
    ratings = np.where(recommended, high, low)
    ages = np.clip(np.rint(rng.normal(43, 12, n_reviews)), 18, 99).astype(np.int64)
    feedback = np.minimum(rng.geometric(0.35, n_reviews) - 1, 120)
    clothing = np.minimum(rng.zipf(1.3, n_reviews) - 1, 1205)
    divisions = rng.integers(0, len(_DIVISIONS), n_reviews)
    departments = rng.integers(0, len(_DEPARTMENTS), n_reviews)
    classes = rng.integers(0, len(_CLASSES), n_reviews)

    rows = [
        [
            int(clothing[i]), int(ages[i]), titles[i], texts[i], int(ratings[i]),
            int(recommended[i]), int(feedback[i]), _DIVISIONS[divisions[i]],
            _DEPARTMENTS[departments[i]], _CLASSES[classes[i]],
        ]
        for i in range(n_reviews)
    ]
    for i in range(n_empty):
        rows.append([1000 + i, 30 + i % 40, "", "", 5, 1, 0, "General", "Tops", "Knits"])
    malformed = (
        [7, "forty", "", "bad age", 4, 1, 0, "General", "Tops", "Knits"],
        [7, 33, "", "rating out of range", 9, 1, 0, "General", "Tops", "Knits"],
        [7, 33, "", "too few fields", 4, 1],
    )
    rows.extend(malformed[i % len(malformed)] for i in range(n_malformed))
    order = rng.permutation(n_rows)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(HEADER)
        for index, pos in enumerate(order):
            writer.writerow([index, *rows[pos]])
    return {
        "rows": n_rows,
        "kept_records": n_reviews,
        "parsed_records": n_reviews + n_empty,
        "issue_rows": n_malformed,
        "mean_tokens": float(lengths.mean()),
        "max_tokens": int(lengths.max()),
        "pad_frac_at_120": float(1.0 - lengths.mean() / 120.0),
        "recommended_share": float(recommended.mean()),
    }


def predict_texts(n: int, seed: int) -> list:
    """n texts drawn like review texts, with a few empty and OOV-only ones."""
    rng = np.random.default_rng([seed, 1])
    texts = _texts(rng, token_lengths(rng, n), rng.random(n) < RECOMMENDED_SHARE)
    for k, pos in enumerate(rng.choice(n, size=6, replace=False)):
        if k % 2:
            texts[pos] = ""
        else:
            width = int(rng.integers(1, 12))
            texts[pos] = " ".join(_OOV_WORDS[j % len(_OOV_WORDS)] for j in range(width))
    return texts
