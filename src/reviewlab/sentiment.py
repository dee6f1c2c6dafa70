"""Lexicon-based sentiment scoring and automatic review labeling.

Each token found in the lexicon contributes its valence, adjusted two
ways: a negator among the three preceding tokens multiplies the valence
by -0.74, and a booster immediately before the token shifts it further
from zero (or toward zero for dampeners) in the direction of its
post-negation sign.  The summed valence s is squashed to a compound score
s / sqrt(s^2 + 15) in (-1, 1), which `score_text` returns, and fixed
thresholds at +/-0.05 cut the compound into negative / neutral /
positive labels (`label_from_compound`).  `auto_label_dataset`
returns one label per record and nothing else; the `label` command
counts them per recommendation state where it writes that table.

The constants (factor -0.74, window 3, alpha 15, thresholds 0.05) are
reproduction constants for the analyzer family this mirrors; all are
module-level and adjustable.  A lexicon is a `token -> valence` dict;
the negators and boosters are always the module's.  The built-in
lexicon below is a small test-grade vocabulary; production use should
load a full lexicon file (`token<TAB>valence` per line).
"""

from __future__ import annotations

import math

from .errors import InputError, input_lines
from .textprep import tokenize

NEGATION_FACTOR = -0.74
NEGATION_WINDOW = 3
NORMALIZATION_ALPHA = 15.0
POSITIVE_THRESHOLD = 0.05
NEGATIVE_THRESHOLD = -0.05

NEGATIVE = "negative"
NEUTRAL = "neutral"
POSITIVE = "positive"
SENTIMENT_CLASSES = (NEGATIVE, NEUTRAL, POSITIVE)

MAX_VALENCE = 4.0

BOOST_INCREMENT = 0.293

DEFAULT_NEGATORS = frozenset(
    {
        "not", "no", "never", "none", "neither", "nor", "hardly", "barely",
        "don't", "doesn't", "didn't", "won't", "wouldn't", "can't", "cannot",
        "isn't", "wasn't", "aren't", "weren't", "couldn't", "shouldn't",
    }
)

DEFAULT_BOOSTERS = {
    "very": BOOST_INCREMENT,
    "really": BOOST_INCREMENT,
    "extremely": BOOST_INCREMENT,
    "incredibly": BOOST_INCREMENT,
    "absolutely": BOOST_INCREMENT,
    "totally": BOOST_INCREMENT,
    "super": BOOST_INCREMENT,
    "so": BOOST_INCREMENT,
    "slightly": -BOOST_INCREMENT,
    "somewhat": -BOOST_INCREMENT,
    "kinda": -BOOST_INCREMENT,
}

BUILTIN_LEXICON = {
    "good": 1.9,
    "great": 3.1,
    "love": 3.2,
    "loved": 2.9,
    "lovely": 2.8,
    "like": 1.5,
    "perfect": 2.7,
    "beautiful": 2.9,
    "gorgeous": 2.9,
    "nice": 1.8,
    "cute": 2.0,
    "pretty": 2.2,
    "amazing": 2.8,
    "awesome": 3.1,
    "excellent": 2.7,
    "wonderful": 2.7,
    "happy": 2.7,
    "best": 3.2,
    "comfortable": 1.7,
    "soft": 1.2,
    "flattering": 1.9,
    "stylish": 1.6,
    "recommend": 1.5,
    "favorite": 2.0,
    "compliments": 1.7,
    "well": 1.1,
    "bad": -2.5,
    "terrible": -2.1,
    "awful": -2.0,
    "horrible": -2.5,
    "worst": -3.1,
    "poor": -2.1,
    "cheap": -1.3,
    "disappointed": -2.1,
    "disappointing": -2.2,
    "hate": -2.7,
    "hated": -2.8,
    "ugly": -2.3,
    "uncomfortable": -1.8,
    "itchy": -1.4,
    "scratchy": -1.3,
    "unflattering": -1.9,
    "flimsy": -1.5,
    "returned": -1.1,
    "weird": -1.2,
    "wrong": -1.6,
    "sad": -2.1,
}


def label_from_compound(c: float) -> str:
    """positive iff c >= 0.05; negative iff c <= -0.05; else neutral."""
    if c >= POSITIVE_THRESHOLD:
        return POSITIVE
    if c <= NEGATIVE_THRESHOLD:
        return NEGATIVE
    return NEUTRAL


def compound_from_sum(s: float) -> float:
    """Squash an unbounded valence sum into (-1, 1)."""
    return s / math.sqrt(s * s + NORMALIZATION_ALPHA)


def score_text(tokens, lexicon: dict) -> float:
    """The compound score of a tokenized text."""
    s = 0.0
    for pos, token in enumerate(tokens):
        valence = lexicon.get(token)
        if valence is None:
            continue
        window = tokens[max(0, pos - NEGATION_WINDOW):pos]
        if any(w in DEFAULT_NEGATORS for w in window):
            valence *= NEGATION_FACTOR
        if pos >= 1 and valence != 0.0:
            increment = DEFAULT_BOOSTERS.get(tokens[pos - 1])
            if increment is not None:
                valence += increment if valence > 0 else -increment
        s += valence
    return compound_from_sum(s)


def auto_label_dataset(records, lexicon: dict) -> list[str]:
    """Each record's label, in record order; a record without review text scores as ""."""
    return [label_from_compound(score_text(tokenize(r.review_text or ""), lexicon))
            for r in records]


def load_lexicon(path) -> dict:
    """Read a `token<TAB>valence` file into a lexicon dict."""
    valences = {}
    for line_num, line in enumerate(input_lines(path), start=1):
        stripped = line.rstrip("\n")
        if not stripped:
            continue
        parts = stripped.split("\t")
        if len(parts) != 2:
            raise InputError(f"{path}: line {line_num}: expected token<TAB>valence")
        token, raw = parts
        try:
            valence = float(raw)
        except ValueError:
            raise InputError(f"{path}: line {line_num}: bad valence {raw!r}") from None
        if not -MAX_VALENCE <= valence <= MAX_VALENCE:
            raise InputError(
                f"{path}: line {line_num}: valence {valence} outside [-{MAX_VALENCE}, {MAX_VALENCE}]"
            )
        valences[token] = valence
    return valences
