"""The benchmark's per-layer tracer still finds every hook it wraps.

perfbench/tracing.py times each layer by replacing module globals that
reviewlab looks up at call time (training.forward, nn.lstm_sequence_forward,
cli.train and others).  A refactor that renamed or inlined one of them
would silently zero that layer's metric.  This runs a toy train and
evaluate through the CLI under the tracer and checks that nothing went
missing, and that the recurrence the tracer counts steps only as far as
each batch's longest review, so ``nn.real_token_frac`` measures the
length-aware model.
"""

import json
import sys
from pathlib import Path

import numpy as np

import reviewlab.training
from reviewlab.cli import main
from reviewlab.dataset import write_csv
from reviewlab.toydata import toy_config, toy_reviews

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from tracing import Tracer, layer_metrics  # noqa: E402


def test_traced_train_and_evaluate_report_every_layer(tmp_path, monkeypatch):
    # Longest review of each embedded batch, recorded under the tracer's hook.
    longest = []
    embed_batch = reviewlab.training.embed_batch

    def recording_embed_batch(idx, table):
        longest.append(int(np.count_nonzero(np.asarray(idx), axis=1).max()))
        return embed_batch(idx, table)

    monkeypatch.setattr(reviewlab.training, "embed_batch", recording_embed_batch)
    data = tmp_path / "reviews.csv"
    write_csv(toy_reviews(), data)
    config = toy_config(epochs=2)
    cfg = tmp_path / "toy.cfg"
    cfg.write_text("".join(f"{k}={v}\n" for k, v in config.as_dict().items()))
    out = tmp_path / "runs"
    common = ["--data", str(data), "--out", str(out), "--config", str(cfg)]

    tracer = Tracer()
    tracer.install()
    try:
        assert tracer.span("cli.train", main, ["train", *common]) == 0
        ckpt = out / "train-0001" / "model.ckpt"
        assert tracer.span("cli.evaluate", main, ["evaluate", *common, "--checkpoint", str(ckpt)]) == 0
    finally:
        tracer.uninstall()

    summary = json.loads((out / "train-0001" / "train_summary.json").read_text())
    shape = {"cell_size": config.cell_size, "embedding_dim": config.embedding_dim}
    layers = layer_metrics(tracer, shape, summary["split_sizes"]["test"])
    # The vocabulary is read from model.ckpt; only the old TSV loader's hook is gone.
    assert tracer.absent == ["reviewlab.cli.load_vocab"]
    assert layers["nn.lstm_forward_ms_per_dir"] > 0
    assert layers["nn.backward_ms_per_batch"] > 0
    assert layers["training.eval_rows_per_test_row"] == 1.0

    # Each batch runs both directions once, in order, after embedding it.
    steps = [s.attrs["steps"] for s in tracer.under("nn.lstm_forward")]
    assert steps == [max(1, n) for n in longest for _ in range(2)]
    assert min(steps) < config.seq_len
    assert 0 < layers["nn.real_token_frac"] <= 1
