"""reviewlab benchmark: one workload, timed through the CLI.

    python3 perfbench/run.py --workload train-ref --seed 1 --seconds 10 --trace 0

Generates the workload's inputs from --seed, runs the program in fresh
worker processes with BLAS pinned to one thread, checks every output
and prints each metric by name and unit.  The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}.  With
--trace 0 the metrics are BENCHMARK.json's end_to_end list, measured
untraced; with --trace 1 they are its per_layer list, taken from a
traced pass, with trace.overhead_s = traced minus untraced pass time.

Workloads (closed loop, one client, sequential CLI calls):
  train-ref     analyze, label, then train 1 epoch at B=256 H=256 T=120
                D=50 and evaluate, on a 1,720-review corpus (split
                1032/344/344)
  predict-loop  >= 400 predict calls against a 20k-vocabulary
                checkpoint built during set-up on a 22,600-review corpus
"""

from __future__ import annotations

import os

# Set before numpy loads here or in a worker: single-threaded runs are
# the ones the program promises to reproduce bit for bit.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from corpus import predict_texts, write_corpus  # noqa: E402
from worker import SHAPE  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# corpus: (reviews with text, empty-text rows, malformed rows).
# min_passes: passes a run makes at least; it keeps going until --seconds pass.
# trace_passes: passes of each of the untraced and traced workers of a --trace 1 run.
WORKLOADS = {
    "train-ref": {"corpus": (1_720, 4, 2), "min_passes": 1, "trace_passes": 1},
    "predict-loop": {"corpus": (22_600, 40, 6), "min_passes": 400, "trace_passes": 200},
}
PREDICT_TEXTS = 200
SETUP_REPEATS = 5
# Deterministic facts that every worker of a run must agree on, and the
# commands whose ops fail when they do not.
CHECKED_FACTS = {
    "ckpt_sha256": ("train", "train-setup"),
    "val_loss": ("train",),
    "analysis_sha256": ("analyze",),
    "labeled_sha256": ("label",),
    "metrics_sha256": ("evaluate",),
}
RUN_BUDGET_S = 170.0


class WorkerFailed(Exception):
    pass


def run_worker(spec: dict, deadline: float) -> dict:
    """Run worker.py on spec in a fresh process and return its result."""
    spec_path = Path(spec["work"]) / "spec.json"
    Path(spec["work"]).mkdir(parents=True)
    spec_path.write_text(json.dumps(spec))
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(spec_path)],
            cwd=ROOT, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"{spec['workload']} worker exceeded the run's time budget") from None
    result = Path(spec["result"])
    if proc.returncode != 0 or not result.is_file():
        raise WorkerFailed(f"worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(result.read_text())


def nearest_rank(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def cross_check(results: list, key: str) -> None:
    """Mark ops failed when workers disagree on a deterministic fact."""
    values = [r["facts"][key] for r in results if key in r["facts"]]
    if len(set(values)) <= 1:
        return
    problem = f"{key} differs across workers: {values}"
    for r in results:
        for op in r["ops"]:
            if op["cmd"] in CHECKED_FACTS[key]:
                op["problems"].append(problem)


def typical_texts(texts: list) -> set:
    """Indices of the non-empty predict texts whose token count lies between the quartiles."""
    counts = [len(text.split()) for text in texts]
    q1, _, q3 = statistics.quantiles([c for c in counts if c], n=4)
    return {i for i, c in enumerate(counts) if c and q1 <= c <= q3}


def op_times(ops: list) -> dict:
    """Wall seconds of each measured CLI call, by command; set-up excluded."""
    by_cmd: dict = {}
    for op in ops:
        if op["cmd"] != "train-setup":
            by_cmd.setdefault(op["cmd"], []).append(op["seconds"])
    return by_cmd


def pass_min(result: dict, typical: set) -> float:
    """One pass through the workload's commands, each at its fastest call.

    Other tenants of the machine slow it by up to 1.7x in phases lasting
    seconds to minutes.  A run's fastest call follows the code's own cost
    once the run is long enough to meet one fast phase; its median
    follows the share of the run spent in slow phases.  Predict calls
    count only on texts of typical length, so that the figure is the
    cost of a real review, not of an empty or one-word text.
    """
    ops = [op for op in result["ops"] if "text" not in op or op["text"] in typical]
    return sum(min(times) for times in op_times(ops).values())


def command_metrics(result: dict) -> dict:
    """The per-command medians a user reads, named as in the ROADMAP."""
    by_cmd = op_times(result["ops"])
    out = {}
    for cmd, name in (("analyze", "analyze_s"), ("label", "label_s"),
                      ("train", "train_epoch_s"), ("evaluate", "evaluate_s")):
        if cmd in by_cmd:
            out[name] = (statistics.median(by_cmd[cmd]), "s")
    if "predict" in by_cmd:
        times = by_cmd["predict"]
        out["predict_p50_ms"] = (statistics.median(times) * 1e3, "ms")
        out["predict_p95_ms"] = (nearest_rank(times, 0.95) * 1e3, "ms")
        out["predict_calls"] = (len(times), "count")
    if "val_loss" in result["facts"]:
        out["val_loss"] = (result["facts"]["val_loss"], "nats")
    return out


def run(args, declared: dict, tmp: Path) -> int:
    workload = WORKLOADS[args.workload]
    csv_path = tmp / "corpus.csv"
    corpus_facts = write_corpus(csv_path, *workload["corpus"], seed=args.seed)
    base = {
        "workload": args.workload,
        "src": str(ROOT / "src"),
        "csv": str(csv_path),
        "corpus": corpus_facts,
        "texts": predict_texts(PREDICT_TEXTS, args.seed) if args.workload == "predict-loop" else [],
    }
    typical = typical_texts(base["texts"]) if base["texts"] else set()
    deadline = time.monotonic() + RUN_BUDGET_S

    def worker(name: str, **overrides) -> dict:
        work = tmp / name
        spec = {**base, "work": str(work), "result": str(work / "result.json"),
                "trace": False, "setup_only": False, "seconds": 0,
                "min_passes": workload["trace_passes"], **overrides}
        return run_worker(spec, deadline)

    if args.trace:
        plain = worker("untraced")
        traced = worker("traced", trace=True)
        results = [plain, traced]
        metrics = dict(traced["layers"])
        metrics["trace.overhead_s"] = pass_min(traced, typical) - pass_min(plain, typical)
        if traced["absent"]:
            print(f"trace: absent names {traced['absent']}")
    else:
        # Set-ups before and after the measurement, so that the fastest
        # of them is likely to meet a phase when the machine is quiet.
        setups = [worker(f"setup-{i}", setup_only=True) for i in range(SETUP_REPEATS // 2)]
        measured = worker("measure", seconds=args.seconds, min_passes=workload["min_passes"],
                          checkpoint=setups[0]["facts"].get("checkpoint"))
        setups += [worker(f"setup-{i}", setup_only=True)
                   for i in range(SETUP_REPEATS // 2, SETUP_REPEATS)]
        results = [*setups, measured]
        metrics = {
            "setup_s": min(r["setup_s"] for r in setups),
            "pass_min_s": pass_min(measured, typical),
            "peak_rss_mb": measured["peak_rss_mb"],
        }
    for key in CHECKED_FACTS:
        cross_check(results, key)

    missing = sorted(set(declared) - set(metrics))
    if missing:
        raise WorkerFailed(f"metrics not produced: {missing}")
    ops = [op for r in results for op in r["ops"]]
    failed = [op for op in ops if op["problems"]]
    for op in failed[:10]:
        print(f"FAILED {op['cmd']}: {'; '.join(op['problems'])}")

    last = results[-1]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"passes {len(last['pass_seconds'])}")
    print("env " + json.dumps(last["env"], sort_keys=True))
    print("corpus " + json.dumps(corpus_facts, sort_keys=True))
    facts = {k: v for r in results for k, v in r["facts"].items() if k != "checkpoint"}
    print("shape " + json.dumps({**SHAPE, **facts}, sort_keys=True))
    extras = {} if args.trace else command_metrics(last)
    extras["error_rate"] = (len(failed) / len(ops) if ops else 0.0, "ratio")
    for name, (value, unit) in extras.items():
        print(f"metric {name} {value!r} {unit}")
    for name in declared:
        print(f"metric {name} {metrics[name]!r} {declared[name]}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in declared.items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind: subprocess.run kills and reaps the worker, and
    # the finally below removes the run's directory.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "reviewlab" / "cli.py").is_file():
        print(f"error: no reviewlab source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    group = spec["per_layer"] if args.trace else spec["end_to_end"]
    declared = {m["name"]: m["unit"] for m in group}

    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        return run(args, declared, tmp)
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch.rmdir()


if __name__ == "__main__":
    sys.exit(main())
