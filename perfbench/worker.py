"""One workload run in a fresh process: set-up, timed passes, output checks.

Usage: python3 worker.py SPEC.json

The spec (written by run.py) names the workload, the generated inputs,
the checkout's ``src`` directory and where to write the result.  The
program is driven only through ``reviewlab.cli.main(argv)``.  Every CLI
call is one op; an op fails when it exits non-zero or any check on its
outputs fails.  BLAS threads are pinned by the parent's environment.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# Reference shape (B=256, H=256, T=120, D=50) with the trainer's defaults spelled out.
SHAPE = {
    "batch_size": 256, "cell_size": 256, "seq_len": 120, "embedding_dim": 50,
    "dropout_rate": 0.5, "vocab_size": 20000, "min_freq": 2, "seed": 0,
    "task": "recommendation",
}


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def peak_rss_mb() -> float:
    """High-water RSS of this process image (VmHWM), in MiB.

    Not ru_maxrss: Linux keeps that across exec, so a worker would report
    the larger footprint of run.py, from which it was forked.
    """
    status = Path("/proc/self/status").read_text().splitlines()
    return int(next(line for line in status if line.startswith("VmHWM:")).split()[1]) / 1024.0


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu_model = next(
        line.split(":", 1)[1].strip()
        for line in Path("/proc/cpuinfo").read_text().splitlines()
        if line.startswith("model name")
    )
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": {
            k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
    }


class Runner:
    """Runs CLI calls as ops and checks each one's outputs."""

    def __init__(self, cli, tracer=None):
        self.cli = cli
        self.tracer = tracer
        self.ops: list[dict] = []

    def call(self, name: str, argv: list, out: Path):
        """Run one CLI call; returns (op record, run directory, stdout)."""
        before = set(out.iterdir()) if out.exists() else set()
        buf = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            if self.tracer:
                rc = self.tracer.span(f"cli.{argv[0]}", self.cli.main, argv)
            else:
                rc = self.cli.main(argv)
        seconds = time.perf_counter() - start
        new = sorted(set(out.iterdir()) - before)
        op = {"cmd": name, "seconds": seconds, "problems": []}
        if rc != 0:
            op["problems"].append(f"exit code {rc}")
        if len(new) != 1:
            op["problems"].append(f"expected one new run directory, found {len(new)}")
        self.ops.append(op)
        return op, (new[0] if len(new) == 1 else out / "missing"), buf.getvalue()

    def require(self, op: dict, run_dir: Path, *names: str) -> bool:
        missing = [n for n in names if not (run_dir / n).is_file()]
        if missing:
            op["problems"].append(f"missing outputs: {', '.join(missing)}")
        return not missing


def record(op: dict, facts: dict, key: str, value) -> None:
    """Keep a deterministic fact; an op whose value differs from an earlier pass fails.

    run.py compares the facts of different workers in the same way.
    """
    expected = facts.setdefault(key, value)
    if value != expected:
        op["problems"].append(f"{key} differs from an earlier pass: {value!r} != {expected!r}")


def train_facts(op: dict, run_dir: Path) -> dict:
    """Checks shared by every train call; returns the facts later checks use."""
    facts = {}
    try:
        rows = (run_dir / "history.csv").read_text().strip().splitlines()[1:]
        summary = json.loads((run_dir / "train_summary.json").read_text())
        facts["vocab_size"] = summary["vocab_size"]
        facts["test_rows"] = summary["split_sizes"]["test"]
        facts["ckpt_sha256"] = sha256(run_dir / "model.ckpt")
        if rows:
            _, train_loss, val_loss, _ = rows[-1].split(",")
            facts["val_loss"] = float(val_loss)
            if not (math.isfinite(float(train_loss)) and math.isfinite(float(val_loss))):
                op["problems"].append(f"non-finite loss in history: {rows[-1]}")
    except (OSError, ValueError, KeyError) as exc:
        op["problems"].append(f"unreadable train outputs: {exc}")
    return facts


def write_config(path: Path, epochs: int) -> Path:
    path.write_text("".join(f"{k}={v}\n" for k, v in {**SHAPE, "epochs": epochs}.items()))
    return path


def setup(runner: Runner, spec: dict, work: Path) -> dict:
    """Program-side preparation: predict-loop builds its checkpoint here,
    unless the spec hands it one built by an earlier set-up worker."""
    if spec["workload"] != "predict-loop":
        return {}
    if spec.get("checkpoint"):
        return {"checkpoint": spec["checkpoint"]}
    cfg = write_config(work / "setup.cfg", epochs=0)
    out = work / "setup-runs"
    op, run_dir, _ = runner.call(
        "train-setup", ["train", "--data", spec["csv"], "--out", str(out), "--config", str(cfg)], out
    )
    facts = train_facts(op, run_dir)
    facts["checkpoint"] = str(run_dir / "model.ckpt")
    return facts


def pass_tables(runner: Runner, spec: dict, work: Path, facts: dict) -> None:
    out = work / "runs"
    op, run_dir, _ = runner.call("analyze", ["analyze", "--data", spec["csv"], "--out", str(out)], out)
    if runner.require(op, run_dir, "analysis.json", "issues.txt"):
        issues = (run_dir / "issues.txt").read_text().splitlines()
        if len(issues) != spec["corpus"]["issue_rows"]:
            op["problems"].append(f"{len(issues)} issue lines, expected {spec['corpus']['issue_rows']}")
        record(op, facts, "analysis_sha256", sha256(run_dir / "analysis.json"))

    op, run_dir, _ = runner.call("label", ["label", "--data", spec["csv"], "--out", str(out)], out)
    if runner.require(op, run_dir, "labeled.csv", "sentiment_by_recommendation.csv"):
        rows = (run_dir / "sentiment_by_recommendation.csv").read_text().splitlines()[1:]
        labeled = sum(int(v) for row in rows for v in row.split(",")[1:])
        if labeled != spec["corpus"]["parsed_records"]:
            op["problems"].append(f"{labeled} labeled records, expected {spec['corpus']['parsed_records']}")
        record(op, facts, "labeled_sha256", sha256(run_dir / "labeled.csv"))


def pass_train(runner: Runner, spec: dict, work: Path, facts: dict) -> None:
    out = work / "runs"
    cfg = write_config(work / "train.cfg", epochs=1)
    op, run_dir, _ = runner.call(
        "train", ["train", "--data", spec["csv"], "--out", str(out), "--config", str(cfg)], out
    )
    for key, value in train_facts(op, run_dir).items():
        record(op, facts, key, value)

    op, run_dir, _ = runner.call(
        "evaluate",
        ["evaluate", "--data", spec["csv"], "--out", str(out), "--config", str(cfg),
         "--checkpoint", str(run_dir / "model.ckpt")],
        out,
    )
    if runner.require(op, run_dir, "metrics.json", "confusion.csv", "roc.csv", "baseline.json"):
        total = json.loads((run_dir / "metrics.json").read_text()).get("total")
        if total != facts.get("test_rows"):
            op["problems"].append(f"metrics.json total {total}, expected {facts.get('test_rows')} test rows")
        record(op, facts, "metrics_sha256", sha256(run_dir / "metrics.json"))


def pass_predict(runner: Runner, spec: dict, work: Path, facts: dict) -> None:
    out = work / "runs"
    texts = spec["texts"]
    index = sum(1 for op in runner.ops if op["cmd"] == "predict") % len(texts)
    text = texts[index]
    op, _, stdout = runner.call(
        "predict", ["predict", "--out", str(out), "--checkpoint", facts["checkpoint"], "--text", text], out
    )
    op["text"] = index
    try:
        result = json.loads(stdout.strip().splitlines()[-1])
        probs = result["probabilities"]
        if abs(sum(probs.values()) - 1.0) > 1e-9:
            op["problems"].append(f"probabilities sum to {sum(probs.values())!r}")
        if result["label"] != max(probs, key=probs.get):
            op["problems"].append(f"label {result['label']!r} is not the argmax of {probs}")
        if result["empty_input"] != (text.strip() == ""):
            op["problems"].append(f"empty_input {result['empty_input']} for text {text[:40]!r}")
    except (IndexError, ValueError, KeyError, TypeError, AttributeError) as exc:
        op["problems"].append(f"unreadable prediction {stdout[-200:]!r}: {exc}")


def pass_train_ref(runner: Runner, spec: dict, work: Path, facts: dict) -> None:
    pass_tables(runner, spec, work, facts)
    pass_train(runner, spec, work, facts)


PASSES = {"train-ref": pass_train_ref, "predict-loop": pass_predict}


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    src = Path(spec["src"])
    sys.path.insert(0, str(src))
    import reviewlab.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        print(f"reviewlab imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2

    tracer = None
    if spec["trace"]:
        from tracing import Tracer, layer_metrics

        tracer = Tracer()
        tracer.install()
    work = Path(spec["work"])
    runner = Runner(cli, tracer)
    facts = setup(runner, spec, work)
    setup_s = time.perf_counter() - _T0

    pass_seconds = []
    if not spec["setup_only"]:
        run_pass = PASSES[spec["workload"]]
        start = time.perf_counter()
        while len(pass_seconds) < spec["min_passes"] or time.perf_counter() - start < spec["seconds"]:
            t0 = time.perf_counter()
            run_pass(runner, spec, work, facts)
            pass_seconds.append(time.perf_counter() - t0)

    result = {
        "setup_s": setup_s,
        "pass_seconds": pass_seconds,
        "ops": runner.ops,
        "facts": facts,
        "peak_rss_mb": peak_rss_mb(),
        "env": environment(),
    }
    if tracer:
        tracer.uninstall()
        result["layers"] = layer_metrics(tracer, SHAPE, facts.get("test_rows"))
        result["absent"] = tracer.absent
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
