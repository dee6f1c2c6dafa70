#!/usr/bin/env python3
"""Write the separable keyword review fixture as a dataset CSV.

The texts are linearly separable by construction: every recommended
review contains the token "good" and every non-recommended review the
token "bad", with seeded filler variation around them so the vocabulary
is not a two-word degenerate case.
"""

import argparse

from reviewlab.dataset import ReviewRecord, write_csv
from reviewlab.rng import SeededRng

TOY_SEED = 7

_NOUNS = ("dress", "top", "skirt", "sweater", "jacket")
_OPENERS = ("really", "very", "honestly", "simply")
_POSITIVE_TAILS = ("love it", "fits great", "so comfortable", "will buy again")
_NEGATIVE_TAILS = ("returned it", "poor quality", "never again", "waste of money")
_DIVISIONS = ("General", "General Petite", "Initmates")


def toy_reviews(n: int = 40, seed: int = TOY_SEED):
    """Build n alternating positive/negative keyword reviews."""
    if n < 2 or n % 2:
        raise ValueError(f"n must be an even number >= 2, got {n}")
    rng = SeededRng(seed)
    records = []
    for i in range(n):
        positive = i % 2 == 0
        keyword = "good" if positive else "bad"
        noun = _NOUNS[rng.randrange(len(_NOUNS))]
        opener = _OPENERS[rng.randrange(len(_OPENERS))]
        tails = _POSITIVE_TAILS if positive else _NEGATIVE_TAILS
        tail = tails[rng.randrange(len(tails))]
        records.append(
            ReviewRecord(
                row_id=i,
                clothing_id=i % 5,
                age=25 + (i * 7) % 40,
                title=f"{keyword.capitalize()} {noun}",
                review_text=f"{opener} {keyword} {noun} {tail}",
                rating=5 if positive else 1,
                recommended=int(positive),
                positive_feedback_count=i % 4,
                division=_DIVISIONS[i % 3],
                department="Tops",
                class_name="Knits",
            )
        )
    return records


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="toy_reviews.csv", help="output CSV path")
    parser.add_argument("--n", type=int, default=40, help="number of reviews (even)")
    parser.add_argument("--seed", type=int, default=TOY_SEED, help="filler variation seed")
    args = parser.parse_args()
    try:
        records = toy_reviews(n=args.n, seed=args.seed)
    except ValueError as exc:  # an odd or too-small --n
        parser.error(f"--n: {exc}")
    write_csv(records, args.out)
    print(f"wrote {args.n} reviews to {args.out}")


if __name__ == "__main__":
    main()
