"""Synthetic review fixtures for desk-scale smoke runs.

The texts are linearly separable by construction: every recommended
review contains the token "good" and every non-recommended review the
token "bad", with seeded filler variation around them so the vocabulary
is not a two-word degenerate case.
"""

from __future__ import annotations

from .dataset import ReviewRecord
from .rng import SeededRng
from .training import TrainConfig

__all__ = ["TOY_SEED", "toy_config", "toy_reviews"]

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
                recommended=positive,
                positive_feedback_count=i % 4,
                division=_DIVISIONS[i % 3],
                department="Tops",
                class_name="Knits",
            )
        )
    return records


def toy_config(task: str = "recommendation", epochs: int = 30, seed: int = 4) -> TrainConfig:
    """Desk-scale hyper-parameters that converge on the toy fixture."""
    return TrainConfig(
        batch_size=8,
        cell_size=8,
        dropout_rate=0.0,
        epochs=epochs,
        learning_rate=1e-3,
        seq_len=8,
        vocab_size=100,
        min_freq=1,
        embedding_dim=16,
        seed=seed,
        task=task,
    )
