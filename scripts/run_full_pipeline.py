#!/usr/bin/env python3
"""Drive the whole pipeline on one dataset: analyze, label, train, evaluate, predict.

Each stage is a normal CLI invocation, so every artifact lands in its
own numbered run directory under --out and reruns stay byte-identical.
"""

import argparse
import sys
from pathlib import Path

from reviewlab.checkpoint import TASK_CLASSES
from reviewlab.cli import _last_run_number, _print_status, main as cli


def run(argv) -> None:
    _print_status(f"$ reviewlab {' '.join(argv)}")
    sys.stdout.flush()  # before the stage's own output, also when stdout is a pipe
    code = cli(argv)
    if code != 0:
        sys.exit(code)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--data", required=True, help="review dataset CSV")
    parser.add_argument("--out", default="runs", help="run-directory root")
    parser.add_argument("--task", default="recommendation",
                        choices=tuple(TASK_CLASSES))
    parser.add_argument("--config", help="key=value hyper-parameter file")
    parser.add_argument("--embeddings", help="pretrained word-vector text file")
    parser.add_argument("--text", default="love this dress it fits perfectly",
                        help="sample text for the final prediction")
    args = parser.parse_args()

    base = ["--data", args.data, "--out", args.out]
    cfg = ["--config", args.config] if args.config else []
    emb = ["--embeddings", args.embeddings] if args.embeddings else []

    run(["analyze", *base])
    run(["label", *base])
    run(["train", *base, *cfg, *emb, "--task", args.task])
    checkpoint = Path(args.out) / f"train-{_last_run_number(args.out, 'train'):04d}" / "model.ckpt"
    run(["evaluate", *base, *cfg, "--task", args.task, "--checkpoint", str(checkpoint)])
    run(["predict", "--out", args.out, "--checkpoint", str(checkpoint),
         "--text", args.text])


if __name__ == "__main__":
    main()
