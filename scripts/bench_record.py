#!/usr/bin/env python3
"""Record the benchmark for the current commit as one BENCH_<n>.json file.

    python3 scripts/bench_record.py --out BENCH_2.json

Runs `perfbench/run.py --seconds 10 --trace 0` for seeds 2-11 on every
workload in BENCHMARK.json, then one `--trace 1` run per workload at the
first seed, one run at a time.  The file holds the commit sha, each
run's environment line and final JSON line, and the median and
quartiles of every gated (end-to-end) metric per workload.  It reads
BENCHMARK.json and runs perfbench as they are and changes neither.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(2, 12)
SECONDS = 10


def git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def bench(workload: str, seed: int, trace: int) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(SECONDS), "--trace", str(trace)]
    print("$ " + " ".join(argv[1:]), file=sys.stderr, flush=True)
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    env = [json.loads(line[len("env "):]) for line in lines if line.startswith("env ")]
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "exit_code": proc.returncode,
        "env": env[-1] if env else None,  # moved to the file's distinct "env" list
        "result": json.loads(lines[-1]) if proc.returncode == 0 and lines else None,
        "stderr": proc.stderr[-2000:] if proc.returncode else "",
    }


def summary(runs, names) -> dict:
    """Median and quartiles (inclusive method) of each metric over the runs that produced it."""
    out = {}
    for name in names:
        values = [r["result"]["metrics"][name]["value"] for r in runs if r["result"]]
        if len(values) < 2:
            continue
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
        out[name] = {"median": median, "q1": q1, "q3": q3, "runs": len(values)}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="output file, e.g. BENCH_2.json")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    gated = [m["name"] for m in spec["end_to_end"]]
    record = {
        "commit": git("rev-parse", "HEAD"),
        "dirty": bool(git("status", "--porcelain", "--untracked-files=no")),
        "command": f"perfbench/run.py --seconds {SECONDS} --trace 0, seeds "
                   f"{SEEDS.start}-{SEEDS.stop - 1}, plus one --trace 1 run per workload",
        "runs": [],
        "summary": {},
    }
    for workload in workloads:
        runs = [bench(workload, seed, 0) for seed in SEEDS]
        record["runs"] += runs + [bench(workload, SEEDS.start, 1)]
        record["summary"][workload] = summary(runs, gated)
    envs = {json.dumps(r.pop("env"), sort_keys=True) for r in record["runs"]}
    record["env"] = [json.loads(e) for e in sorted(envs - {"null"})]
    Path(args.out).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    failed = [r for r in record["runs"] if r["exit_code"]]
    for r in failed:
        print(f"run failed: {r['workload']} seed {r['seed']} trace {r['trace']}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
