"""Command-line pipeline: analyze | label | train | evaluate | predict.

Every invocation creates a fresh numbered run directory under --out
(never overwriting a prior run) and writes the fully materialized
configuration into it. Settings resolve as flags over config file over
defaults, and an empty config value means the default; rerunning a command from a materialized config reproduces
every artifact byte for byte in single-threaded mode.

A trained model is one file, `model.ckpt`, which carries its vocabulary
and the seed of its 60/20/20 split. `evaluate` and `predict` take the
task, seed, seq_len, cell_size and embedding_dim from it; any of them
given explicitly with a different value is an input error, so evaluation
always scores the test rows the model never trained on.

Every table is written as CSV by `_write_table_csv` and every report or
summary as JSON by `_write_json`; only the dataset files (`labeled.csv`,
`issues.txt`) and the checkpoint have writers of their own.

Exit codes: 0 success, 1 internal error, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import csv
import json
import re
import sys
import traceback
from pathlib import Path

from .analytics import Table, full_report
from .checkpoint import ModelBundle, load_checkpoint, save_checkpoint
from .dataset import parse_csv, write_csv, write_issues
from .errors import InputError, input_lines
from .metrics import majority_baseline, roc_auc
from .sentiment import BUILTIN_LEXICON, SENTIMENT_CLASSES, auto_label_dataset, load_lexicon
from .rng import SeededRng
from .textprep import encode, load_glove, random_embeddings
from .training import (
    EpochStats,
    LabeledSplit,
    TrainConfig,
    build_training_data,
    evaluate,
    predict,
    tokenized_splits,
    train,
)

__all__ = ["main"]

_TRAIN_DEFAULTS = TrainConfig().as_dict()
# Every setting and its default; a hyper-parameter's value has its default's type.
_DEFAULTS = {
    **dict.fromkeys(("data", "lexicon", "embeddings", "checkpoint", "text")),
    "out": "runs",
    **_TRAIN_DEFAULTS,
}


def _parse_config_file(path) -> dict:
    """Read `key = value` lines; blank lines, # comments and empty values are skipped.

    A value that starts with `"` is a JSON string literal, so it can be
    empty, blank or hold a line break.
    """
    entries = {}
    for line_num, line in enumerate(input_lines(path), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise InputError(f"{path}: line {line_num}: expected key=value, got {stripped!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _DEFAULTS:
            raise InputError(f"{path}: line {line_num}: unknown key {key!r}")
        if value == "":
            continue
        default = _DEFAULTS[key]
        try:
            if value.startswith('"'):
                value = json.loads(value)
            entries[key] = value if default is None else type(default)(value)
        except ValueError as exc:
            raise InputError(f"{path}: line {line_num}: {exc}") from exc
    return entries


def _resolve(args) -> tuple[dict, set]:
    """Merge defaults, config file, and flags; track explicitly set keys."""
    cfg = dict(_DEFAULTS)
    provided = set()
    if getattr(args, "config", None):
        file_entries = _parse_config_file(args.config)
        cfg.update(file_entries)
        provided.update(file_entries)
    for key in _DEFAULTS:
        value = getattr(args, key, None)
        if value is not None:
            cfg[key] = value
            provided.add(key)
    if cfg["task"] not in ("recommendation", "sentiment"):
        raise InputError(
            f"unknown task {cfg['task']!r}, expected recommendation or sentiment"
        )
    return cfg, provided


def _new_run_dir(out, command: str) -> Path:
    base = Path(out)
    base.mkdir(parents=True, exist_ok=True)
    pattern = re.compile(rf"{re.escape(command)}-(\d{{4}})")
    taken = [
        int(m.group(1))
        for p in base.iterdir()
        if (m := pattern.fullmatch(p.name))
    ]
    number = max(taken, default=0) + 1
    while True:
        try:
            (run_dir := base / f"{command}-{number:04d}").mkdir()
            return run_dir
        except FileExistsError:  # a concurrent run took this number first
            number += 1


def _write_materialized_config(run_dir: Path, command: str, cfg: dict) -> None:
    lines = [f"# command: {command}"]
    for key in sorted(cfg):
        value = cfg[key]
        if key == "text" and value is not None:  # any text, line breaks included
            value = json.dumps(value)
        lines.append(f"{key}={'' if value is None else value}")
    (run_dir / "config.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_json(path, payload) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_table_csv(path, table: Table) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(table.header)
        writer.writerows(table.rows)


def _require(cfg: dict, key: str, command: str):
    if cfg[key] is None:
        raise InputError(f"{command} requires --{key}")
    return cfg[key]


def _load_lexicon(cfg: dict):
    return load_lexicon(cfg["lexicon"]) if cfg["lexicon"] else BUILTIN_LEXICON


def _train_config(cfg: dict) -> TrainConfig:
    try:
        return TrainConfig(**{key: cfg[key] for key in _TRAIN_DEFAULTS})
    except ValueError as exc:
        raise InputError(f"invalid configuration: {exc}") from exc


def _parse_records(cfg: dict, command: str, run_dir: Path):
    records, issues = parse_csv(_require(cfg, "data", command))
    if issues:
        write_issues(issues, run_dir / "issues.txt")
    return records


def _cmd_analyze(cfg: dict, provided: set, run_dir: Path) -> None:
    records = _parse_records(cfg, "analyze", run_dir)
    report = full_report(records)
    for name, table in report.items():
        _write_table_csv(run_dir / f"{name}.csv", table)
    _write_json(run_dir / "analysis.json", {name: t._asdict() for name, t in report.items()})
    print(f"wrote {len(report)} tables to {run_dir}")


def _cmd_label(cfg: dict, provided: set, run_dir: Path) -> None:
    records = _parse_records(cfg, "label", run_dir)
    labels, counts = auto_label_dataset(records, _load_lexicon(cfg))
    write_csv(records, run_dir / "labeled.csv", sentiment=labels)
    _write_table_csv(run_dir / "sentiment_by_recommendation.csv", Table(
        ("recommended", *SENTIMENT_CLASSES),
        tuple((int(state), *(counts.get((state, label), 0) for label in SENTIMENT_CLASSES))
              for state in (False, True)),
    ))
    print(f"labeled {len(records)} rows into {run_dir}")


def _build_embeddings(cfg: dict, vocab, config: TrainConfig):
    rng = SeededRng(config.seed + 1)
    if cfg["embeddings"]:
        emb = load_glove(cfg["embeddings"], vocab, rng)
        if emb.dim != config.embedding_dim:
            raise InputError(
                f"embedding file dimension {emb.dim} does not match "
                f"embedding_dim {config.embedding_dim}"
            )
        return emb
    return random_embeddings(len(vocab), config.embedding_dim, rng)


def _cmd_train(cfg: dict, provided: set, run_dir: Path) -> None:
    config = _train_config(cfg)
    records = _parse_records(cfg, "train", run_dir)
    prep = build_training_data(records, config, _load_lexicon(cfg))
    embeddings = _build_embeddings(cfg, prep.vocab, config)
    result = train(config, prep, embeddings)
    bundle = ModelBundle(
        task=config.task,
        class_names=config.class_names,
        seq_len=config.seq_len,
        seed=config.seed,
        vocab=prep.vocab,
        model=result.model,
        embeddings=result.embeddings,
    )
    save_checkpoint(bundle, run_dir / "model.ckpt")
    _write_table_csv(run_dir / "history.csv", Table(EpochStats._fields, result.history))
    n_train, n_val, n_test = len(prep.train), len(prep.validation), len(prep.test)
    summary = {
        "task": config.task,
        "dropped_records": prep.dropped,
        "split_sizes": {"train": n_train, "validation": n_val, "test": n_test},
        "vocab_size": len(prep.vocab),
        "epochs_run": len(result.history),
    }
    if result.history:
        last = result.history[-1]
        summary["final_epoch"] = {
            "train_loss": last.train_loss,
            "val_loss": last.val_loss,
            "val_acc": last.val_acc,
        }
    _write_json(run_dir / "train_summary.json", summary)
    print(f"trained {config.task} model into {run_dir}")


def _load_bundle(cfg: dict, provided: set, run_dir: Path, command: str) -> ModelBundle:
    """Load the checkpoint; cfg and config.txt take every setting it fixes."""
    bundle = load_checkpoint(_require(cfg, "checkpoint", command))
    fixed = {"task": bundle.task, "seed": bundle.seed, "seq_len": bundle.seq_len,
             "cell_size": bundle.model.cell_size, "embedding_dim": bundle.embeddings.dim}
    for key, value in fixed.items():
        if key in provided and cfg[key] != value:
            raise InputError(f"checkpoint was trained with {key} {value!r}, not {cfg[key]!r}")
        cfg[key] = value
    _write_materialized_config(run_dir, command, cfg)
    return bundle


def _cmd_evaluate(cfg: dict, provided: set, run_dir: Path) -> None:
    bundle = _load_bundle(cfg, provided, run_dir, "evaluate")
    config = _train_config(cfg)
    records = _parse_records(cfg, "evaluate", run_dir)
    (train_split, _, (tokens, labels)), _ = tokenized_splits(records, config, _load_lexicon(cfg))
    test = LabeledSplit(encode(tokens, bundle.vocab, bundle.seq_len), labels)
    report, probs = evaluate(
        bundle.model, bundle.embeddings, test, config.batch_size, bundle.class_names
    )
    if bundle.task == "recommendation":
        try:
            points, report["roc_auc"] = roc_auc(test.labels, probs[:, 1])
        except InputError:
            report["roc_auc"] = None
        else:
            _write_table_csv(run_dir / "roc.csv", Table(
                ("false_positive_rate", "true_positive_rate"), points))
    _write_json(run_dir / "metrics.json", report)
    _write_table_csv(run_dir / "confusion.csv", Table(
        ("true\\predicted", *bundle.class_names),
        tuple((name, *row) for name, row in zip(bundle.class_names, report["confusion"])),
    ))
    baseline = majority_baseline(
        train_split[1], test.labels, bundle.n_classes, bundle.class_names
    )
    _write_json(run_dir / "baseline.json", baseline)
    print(f"test accuracy {report['accuracy']:.6f} (metrics in {run_dir})")


def _cmd_predict(cfg: dict, provided: set, run_dir: Path) -> None:
    bundle = _load_bundle(cfg, provided, run_dir, "predict")
    text = _require(cfg, "text", "predict")
    line = json.dumps(predict(bundle, text), sort_keys=True)
    (run_dir / "prediction.json").write_text(line + "\n", encoding="utf-8")
    print(line)


_HANDLERS = {
    "analyze": _cmd_analyze,
    "label": _cmd_label,
    "train": _cmd_train,
    "evaluate": _cmd_evaluate,
    "predict": _cmd_predict,
}


def _add_common(sub, *flags):
    sub.add_argument("--out", help="output root for run directories (default: runs)")
    sub.add_argument("--config", help="key=value configuration file")
    if "data" in flags:
        sub.add_argument("--data", help="review dataset CSV")
    if "seed" in flags:
        sub.add_argument("--seed", type=int, help="RNG seed for split/init/shuffle")
    if "task" in flags:
        sub.add_argument("--task", choices=("recommendation", "sentiment"),
                         help="classification target")
    if "lexicon" in flags:
        sub.add_argument("--lexicon", help="token<TAB>valence sentiment lexicon file")
    if "embeddings" in flags:
        sub.add_argument("--embeddings", help="word-vector text file (space separated)")
    if "checkpoint" in flags:
        sub.add_argument("--checkpoint", help="trained model checkpoint")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reviewlab",
        description="Review analytics, sentiment labeling, and BiLSTM classification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    _add_common(sub.add_parser("analyze", help="write the analytics table battery"),
                "data")
    _add_common(sub.add_parser("label", help="auto-label sentiment via the lexicon"),
                "data", "lexicon")
    _add_common(sub.add_parser("train", help="train a classifier on the 60/20/20 split"),
                "data", "seed", "task", "lexicon", "embeddings")
    _add_common(sub.add_parser("evaluate", help="score a checkpoint on the test split"),
                "data", "seed", "task", "lexicon", "checkpoint")
    predict_parser = sub.add_parser("predict", help="label one text with a checkpoint")
    _add_common(predict_parser, "checkpoint")
    predict_parser.add_argument("--text", help="raw review text to classify")
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        cfg, provided = _resolve(args)
        run_dir = _new_run_dir(cfg["out"], args.command)
        _write_materialized_config(run_dir, args.command, cfg)
        _HANDLERS[args.command](cfg, provided, run_dir)
        return 0
    except (InputError, FileNotFoundError, PermissionError, IsADirectoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
