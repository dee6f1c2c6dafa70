"""The toy fixture for the tests: the reviews scripts/make_toy_data.py writes, imported
from the script by path, desk-scale hyper-parameters that converge on them, a writer of
those settings as a config file, and a reader of a run directory's files."""

import sys
from dataclasses import asdict
from pathlib import Path

from reviewlab.training import TrainConfig

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))
from make_toy_data import toy_reviews  # noqa: E402

__all__ = ["snapshot", "toy_config", "toy_config_file", "toy_reviews"]


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


def toy_config_file(path: Path, **settings) -> Path:
    """Write `toy_config()`'s fields, with `settings` over them and any other key after
    them, to `path` as `key=value` lines; return `path`.  An empty value means the
    default."""
    lines = {**asdict(toy_config()), **settings}
    path.write_text("".join(f"{k}={v}\n" for k, v in lines.items()), encoding="utf-8")
    return path


def snapshot(run_dir: Path) -> dict:
    """Each file of a run directory, by name, to its bytes."""
    return {p.name: p.read_bytes() for p in sorted(run_dir.iterdir()) if p.is_file()}
