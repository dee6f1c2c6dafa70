"""Command-line pipeline: analyze | label | train | evaluate | predict.

Each command is declared once, in `_COMMANDS`: its handler, its help
line and its flags.  Every invocation creates a fresh numbered run
directory under --out (never overwriting a prior run) and, once the
command has succeeded, writes the fully materialized configuration
into it; a command that fails or is interrupted removes it again, and
then each directory of --out that it created and that is still empty.
Settings resolve as flags over config file over defaults, and an empty
config value means the default; each hyper-parameter line of a config
file is checked with those before it, as TrainConfig and the memory
check would in `train`, so every command refuses it at that line,
before it makes a run directory.  Rerunning a command from a
materialized config reproduces every artifact byte for byte in
single-threaded mode.  The resolved settings are one mapping whose first
layer holds what was given explicitly, over the defaults.

A trained model is one file, `model.ckpt`, which carries its vocabulary
and the seed of its 60/20/20 split. `train` gets its index rows from
`build_vocab`, and `evaluate` and `predict` theirs from `encode` with
the checkpoint's words. Those two take the task, seed, seq_len,
cell_size and embedding_dim from it; any of them given explicitly with
a different value is an input error, and `evaluate` refuses data whose
fingerprint differs from the one the checkpoint stores, so evaluation
always scores the test rows the model never trained on.

Every CSV, a table or `labeled.csv`, is written by `dataset.write_table`,
the checkpoint by `save_checkpoint`, and every other text artifact, UTF-8
with LF line ends on every platform, by `_write_lines`: `config.txt`,
`issues.txt`, `prediction.json` and each JSON report via `_write_json`.

A command runs with Python's cyclic garbage collector paused: its
records, token lists and arrays hold no reference cycles, so the
collector's passes over them find nothing.  `main` turns it back on
when it returns or raises, unless it was off already.

Exit codes: 0 success, 1 internal error, 2 usage or input error or out of memory.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import math
import os
import shutil
import sys
import time
import traceback
from collections import ChainMap
from pathlib import Path

from .analytics import FEATURE_ACCESSORS, cramers_v, crosstab, full_report, pearson
from .checkpoint import TASK_CLASSES, ModelBundle, load_checkpoint, save_checkpoint
from .dataset import COLUMNS, parse_csv, write_csv, write_table
from .errors import InputError, input_lines
from .metrics import majority_baseline, roc_auc
from .nn import block_shapes
from .sentiment import BUILTIN_LEXICON, SENTIMENT_CLASSES, auto_label_dataset, load_lexicon
from .rng import SeededRng
from .textprep import build_vocab, encode, load_glove, random_embeddings, sorted_vocab, tokenize
from .training import EpochStats, TrainConfig, evaluate, predict, tokenized_splits, train

__all__ = ["main"]

_TRAIN_DEFAULTS = vars(TrainConfig())  # each field's default
# Every setting and its default; a hyper-parameter's value has its default's type.
_DEFAULTS = {
    **dict.fromkeys(("data", "lexicon", "embeddings", "checkpoint", "text")),
    "out": "runs",
    **_TRAIN_DEFAULTS,
}


def _check_memory(config: TrainConfig) -> None:
    """Refuse settings whose arrays exceed physical memory, counted in Python ints: the
    float64 draws of the model's blocks, the float32 model and its two Adam moments, and
    the float32 table at vocab_size rows and its two moments."""
    try:
        physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):  # no sysconf, or not these names
        return
    weights = sum(map(math.prod, block_shapes(config.cell_size, config.embedding_dim,
                                              len(config.class_names))))
    need = (8 + 3 * 4) * weights + 3 * 4 * config.vocab_size * config.embedding_dim
    if 0 < physical < need:  # sysconf reads -1 for a value it cannot tell
        raise ValueError(f"cell_size {config.cell_size}, embedding_dim {config.embedding_dim} "
                         f"and vocab_size {config.vocab_size} need {need} bytes, more than "
                         f"the {physical} bytes of physical memory")


def _parse_config_file(path) -> dict:
    """Read `key = value` lines; blank lines, # comments and empty values are skipped.

    A value that starts with `"` is a JSON string literal, so it can be
    empty, blank or hold a line break.  Each hyper-parameter line is
    checked with every hyper-parameter read so far, over the defaults, as
    TrainConfig and `_check_memory` check them, and a refusal names it.
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
            if b"\0" in os.fsencode(value):  # no path or argument holds a NUL or lone surrogate
                raise ValueError("a value cannot hold a NUL character")
            entries[key] = value if default is None else type(default)(value)
            if key in _TRAIN_DEFAULTS:
                _check_memory(TrainConfig(**{k: v for k, v in entries.items()
                                             if k in _TRAIN_DEFAULTS}))
        except ValueError as exc:
            raise InputError(f"{path}: line {line_num}: invalid configuration: {exc}") from exc
    return entries


def _resolve(args) -> ChainMap:
    """Flags over config file over defaults; `maps[0]` holds what was given explicitly."""
    given = _parse_config_file(args.config) if args.config else {}
    for key in _DEFAULTS:
        value = getattr(args, key, None)
        if value is not None:
            given[key] = value
    return ChainMap(given, _DEFAULTS)


def _last_run_number(out, command: str) -> int:
    """The highest number of a `command` run under `out`, 0 if none."""
    prefix = f"{command}-"
    # Taken numbers: entries named prefix + a number as `{number:04d}` writes it, in decimal
    # digits (the set `\d` matches): four digits, or more with no leading zero.
    taken = [int(digits) for name in os.listdir(out) if name.startswith(prefix)
             and (digits := name[len(prefix):]).isdecimal()
             and (len(digits) == 4 or len(digits) > 4 and int(digits[0]))]
    return max(taken, default=0)


def _new_run_dir(out, command: str) -> tuple[Path, list[Path]]:
    """Make the next run directory under `out`; return it and the directories of `out`
    made for it, innermost first."""
    base = Path(out)
    missing = [p for p in (base, *base.parents) if not p.exists()]
    base.mkdir(parents=True, exist_ok=True)
    number = _last_run_number(base, command) + 1
    while True:
        try:
            (run_dir := base / f"{command}-{number:04d}").mkdir()
            return run_dir, missing
        except FileExistsError:  # a concurrent run took this number first
            number += 1


def _write_materialized_config(run_dir: Path, command: str, cfg: ChainMap) -> None:
    lines = [f"# command: {command}"]
    for key in sorted(cfg):
        value = cfg[key]
        # A JSON literal for text, and for any string the parser would not read back as is.
        if isinstance(value, str) and (key == "text" or not value or value != value.strip()
                                       or value.startswith('"') or not value.isprintable()):
            value = json.dumps(value)
        lines.append(f"{key}={'' if value is None else value}")
    _write_lines(run_dir / "config.txt", lines)


def _print_status(line: str) -> None:
    """Print a status line; a character stdout cannot encode becomes a backslash escape."""
    try:
        print(line)
    except UnicodeEncodeError as exc:  # the encoder failed before anything was written
        print(line.encode(exc.encoding, "backslashreplace").decode(exc.encoding))


def _write_lines(path, lines) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in lines:
            fh.write(f"{line}\n")


def _write_json(path, payload) -> None:
    _write_lines(path, [json.dumps(payload, indent=2, sort_keys=True)])


def _require(cfg: ChainMap, key: str, command: str):
    if cfg[key] is None:
        raise InputError(f"{command} requires --{key}")
    return cfg[key]


def _load_lexicon(cfg: ChainMap):
    return load_lexicon(cfg["lexicon"]) if cfg["lexicon"] else BUILTIN_LEXICON


def _parse_records(cfg: ChainMap, command: str, run_dir: Path):
    records, issues = parse_csv(_require(cfg, "data", command))
    if issues:
        _write_lines(run_dir / "issues.txt", issues)
    return records


def _cmd_analyze(cfg: ChainMap, run_dir: Path) -> None:
    records = _parse_records(cfg, "analyze", run_dir)
    report = full_report(records)
    for name, table in report.items():
        write_table(run_dir / f"{name}.csv", *table)
    _write_json(run_dir / "analysis.json", {name: t._asdict() for name, t in report.items()})
    _print_status(f"wrote {len(report)} tables to {run_dir}")


def _cmd_label(cfg: ChainMap, run_dir: Path) -> None:
    records = _parse_records(cfg, "label", run_dir)
    labels, compounds = auto_label_dataset([tokenize(r.review_text or "") for r in records],
                                           _load_lexicon(cfg))
    write_csv(records, run_dir / "labeled.csv", sentiment=labels)
    summary = {"records": len(records)}
    for name, column, header in (("recommendation", "Recommended IND", "recommended"),
                                 ("rating", "Rating", "rating")):
        values = list(map(FEATURE_ACCESSORS[column], records))
        low, high = COLUMNS[column][1]
        axis = range(low, high + 1)
        tables = {f"sentiment_by_{name}": crosstab(zip(values, labels), axis, SENTIMENT_CLASSES,
                                                   header)}
        if name == "recommendation":  # the abstract's "and vice-versa": P(recommended | sentiment)
            tables[f"{name}_by_sentiment"] = crosstab(zip(labels, values), SENTIMENT_CLASSES,
                                                      axis, "sentiment")
        for stem, (counts, shares) in tables.items():
            write_table(run_dir / f"{stem}.csv", *counts)
            write_table(run_dir / f"{stem}__normalized.csv", *shares)
        summary[f"pearson_compound_{header}"] = pearson(compounds, values)
        summary[f"cramers_v_{header}"] = cramers_v(tables[f"sentiment_by_{name}"][0])
    _write_json(run_dir / "label_summary.json", summary)
    _print_status(f"labeled {len(records)} rows into {run_dir}")


def _cmd_train(cfg: ChainMap, run_dir: Path) -> None:
    config = TrainConfig(**{key: cfg[key] for key in _TRAIN_DEFAULTS})
    records = _parse_records(cfg, "train", run_dir)
    splits, dropped, data_sha256 = tokenized_splits(records, config, _load_lexicon(cfg),
                                                    reads=(0, 1))
    n_train, n_val, n_test = (len(labels) for _, labels in splits)
    (train_tokens, train_labels), (val_tokens, val_labels), _ = splits
    # The vocabulary comes from the training split only, so validation and
    # test tokens unseen in training map to the out-of-vocabulary index.
    tokens, (train_indices, val_indices) = build_vocab(
        (train_tokens, val_tokens), config.min_freq, config.vocab_size, config.seq_len)
    del records, splits, train_tokens, val_tokens  # freed here, not held through training
    rng, glove = SeededRng(config.seed + 1), cfg["embeddings"]
    # train's call pops the one float64 table, so once train has cast it nothing holds it.
    tables = [load_glove(glove, tokens, config.embedding_dim, rng) if glove
              else random_embeddings(len(tokens) + 2, config.embedding_dim, rng)]
    history = []

    def on_epoch(stats: EpochStats, *_) -> None:
        history.append(stats)
        elapsed = time.perf_counter() - start
        print(f"epoch {stats.epoch}/{config.epochs}: train_loss {stats.train_loss:.4f} "
              f"val_loss {stats.val_loss:.4f} val_acc {stats.val_acc:.4f}, "
              f"{stats.epoch * n_train / elapsed:.0f} examples/s, "
              f"ETA {elapsed / stats.epoch * (config.epochs - stats.epoch):.1f} s",
              file=sys.stderr)

    start = time.perf_counter()
    model, table = train(config, (train_indices, train_labels), (val_indices, val_labels),
                         tables.pop(), on_epoch)
    words, table = sorted_vocab(tokens, table)
    bundle = ModelBundle(
        task=config.task,
        seq_len=config.seq_len,
        seed=config.seed,
        vocab=words,
        model=model,
        embeddings=table,
        data_sha256=data_sha256,
    )
    save_checkpoint(bundle, run_dir / "model.ckpt")
    write_table(run_dir / "history.csv", EpochStats._fields, history)
    summary = {
        "task": config.task,
        "dropped_records": dropped,
        "split_sizes": {"train": n_train, "validation": n_val, "test": n_test},
        "vocab_size": len(tokens) + 2,
        "epochs_run": len(history),
    }
    if history:
        summary["final_epoch"] = dict(zip(EpochStats._fields[1:], history[-1][1:]))
    _write_json(run_dir / "train_summary.json", summary)
    _print_status(f"trained {config.task} model into {run_dir}")


def _load_bundle(cfg: ChainMap, command: str) -> ModelBundle:
    """Load the checkpoint; cfg takes every setting it fixes."""
    bundle = load_checkpoint(_require(cfg, "checkpoint", command))
    fixed = {"task": bundle.task, "seed": bundle.seed, "seq_len": bundle.seq_len,
             "cell_size": bundle.model.cell_size, "embedding_dim": bundle.embeddings.shape[1]}
    for key, value in fixed.items():
        if key in cfg.maps[0] and cfg[key] != value:
            raise InputError(f"checkpoint was trained with {key} {value!r}, not {cfg[key]!r}")
        cfg[key] = value
    return bundle


def _cmd_evaluate(cfg: ChainMap, run_dir: Path) -> None:
    bundle = _load_bundle(cfg, "evaluate")
    config = TrainConfig(**{key: cfg[key] for key in _TRAIN_DEFAULTS})
    records = _parse_records(cfg, "evaluate", run_dir)
    splits, _, data_sha256 = tokenized_splits(records, config, _load_lexicon(cfg), reads=(2,))
    if data_sha256 != bundle.data_sha256:
        raise InputError(
            f"data_sha256 {data_sha256} is not the checkpoint's {bundle.data_sha256}: "
            f"evaluate with the --data and --lexicon the model was trained with"
        )
    train_split, _, (tokens, labels) = splits
    report, probs = evaluate(bundle.model, bundle.embeddings,
                             (encode(tokens, bundle.vocab, bundle.seq_len), labels),
                             config.batch_size, bundle.class_names)
    if bundle.task == "recommendation":
        points, report["roc_auc"] = roc_auc(labels, probs[:, 1])
        if points:
            write_table(run_dir / "roc.csv", ("false_positive_rate", "true_positive_rate"),
                        points)
    _write_json(run_dir / "metrics.json", report)
    write_table(run_dir / "confusion.csv", ("true\\predicted", *bundle.class_names),
                ((name, *row) for name, row in zip(bundle.class_names, report["confusion"])))
    baseline = majority_baseline(train_split[1], labels, bundle.class_names)
    _write_json(run_dir / "baseline.json", baseline)
    _print_status(f"test accuracy {report['accuracy']:.6f} (metrics in {run_dir})")


def _cmd_predict(cfg: ChainMap, run_dir: Path) -> None:
    bundle = _load_bundle(cfg, "predict")
    text = _require(cfg, "text", "predict")
    line = json.dumps(predict(bundle, text), sort_keys=True)
    _write_lines(run_dir / "prediction.json", [line])
    _print_status(line)


# Each flag's argparse keywords; every subcommand takes --out and --config first.
_FLAGS = {
    "out": {"help": "output root for run directories (default: runs)"},
    "config": {"help": "key=value configuration file"},
    "data": {"help": "review dataset CSV"},
    "seed": {"type": int, "help": "RNG seed for split/init/shuffle"},
    "task": {"choices": tuple(TASK_CLASSES), "help": "classification target"},
    "lexicon": {"help": "token<TAB>valence sentiment lexicon file"},
    "embeddings": {"help": "word-vector text file (space separated)"},
    "checkpoint": {"help": "trained model checkpoint"},
    "text": {"help": "raw review text to classify"},
}

# command: (handler, help line, its flags after --out and --config)
_COMMANDS = {
    "analyze": (_cmd_analyze, "write the analytics table battery", ("data",)),
    "label": (_cmd_label, "auto-label sentiment via the lexicon", ("data", "lexicon")),
    "train": (_cmd_train, "train a classifier on the 60/20/20 split",
              ("data", "seed", "task", "lexicon", "embeddings")),
    "evaluate": (_cmd_evaluate, "score a checkpoint on the test split",
                 ("data", "seed", "task", "lexicon", "checkpoint")),
    "predict": (_cmd_predict, "label one text with a checkpoint", ("checkpoint", "text")),
}


@functools.cache  # parse_args leaves the parser as it was, so every main() call shares one
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="reviewlab", description="Review analytics, "
                                     "sentiment labeling, and BiLSTM classification.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_line, flags) in _COMMANDS.items():
        command_parser = sub.add_parser(command, help=help_line)
        for flag in ("out", "config", *flags):
            command_parser.add_argument(f"--{flag}", **_FLAGS[flag])
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    run_dir, made, code = None, [], 1
    collecting = gc.isenabled()
    gc.disable()  # a command's records, token lists and arrays hold no reference cycles
    try:
        cfg = _resolve(args)
        run_dir, made = _new_run_dir(cfg["out"], args.command)
        _COMMANDS[args.command][0](cfg, run_dir)
        _write_materialized_config(run_dir, args.command, cfg)  # with the checkpoint's settings
        code = 0
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        code = 2
    except Exception:
        traceback.print_exc()
    finally:  # also on KeyboardInterrupt, which then propagates
        if collecting:
            gc.enable()
        if code and run_dir is not None:
            shutil.rmtree(run_dir, ignore_errors=True)
            for directory in made:  # stop at the first one another run has written into
                try:
                    directory.rmdir()
                except OSError:
                    break
    return code


if __name__ == "__main__":
    sys.exit(main())
