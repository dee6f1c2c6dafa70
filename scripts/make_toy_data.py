#!/usr/bin/env python3
"""Write the separable keyword review fixture as a dataset CSV."""

import argparse

from reviewlab.dataset import write_csv
from reviewlab.toydata import TOY_SEED, toy_reviews


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
