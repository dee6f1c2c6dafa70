"""The toy fixture for the tests: the reviews scripts/make_toy_data.py writes, imported
from the script by path, and desk-scale hyper-parameters that converge on them."""

import sys
from pathlib import Path

from reviewlab.training import TrainConfig

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))
from make_toy_data import toy_reviews  # noqa: E402

__all__ = ["toy_config", "toy_reviews"]


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
