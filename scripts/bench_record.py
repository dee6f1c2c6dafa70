#!/usr/bin/env python3
"""Record the benchmark for the current commit as one BENCH_<n>.json file.

    python3 scripts/bench_record.py --out BENCH_2.json
    python3 scripts/bench_record.py --out BENCH_2.json --against HEAD~1

Runs `perfbench/run.py --seconds 10 --trace 0` for seeds 2-11 on every
workload in BENCHMARK.json, then one `--trace 1` run per workload at the
first seed, one run at a time.  The file holds the commit sha, each
run's environment line, its printed metrics (gated or not, such as
val_loss) and final JSON line, and the median, quartiles and
interquartile range of every gated (end-to-end) metric per workload.
The runs use a temporary export (`git archive`) of the working tree's
tracked files, taken as the commit `git stash create` makes (it
touches no ref or file), or HEAD when the tree is clean; "dirty" says
which.  Untracked files are not exported.  With --against REV, each
seed runs both on an export of REV made the same way and on the
working tree's, one right after the other, so both sides start from
equal trees (no .git, no __pycache__, no leftovers of earlier runs)
and meet the same phases of a shared machine; which side runs first
alternates from seed to seed.  The file then also holds REV's sha,
runs and summary under "against".  It reads BENCHMARK.json and runs
perfbench as they are and changes neither.
"""

import argparse
import contextlib
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(2, 12)
SECONDS = 10


def git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def bench(workload: str, seed: int, trace: int, tree: Path) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(SECONDS), "--trace", str(trace)]
    print(f"$ ({tree}) " + " ".join(argv[1:]), file=sys.stderr, flush=True)
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    env = [json.loads(line[len("env "):]) for line in lines if line.startswith("env ")]
    printed = [line.split()[1:3] for line in lines if line.startswith("metric ")]
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "exit_code": proc.returncode,
        "env": env[-1] if env else None,  # moved to the file's distinct "env" list
        "printed": {name: float(value) for name, value in printed},
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
        out[name] = {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1, "runs": len(values)}
    return out


@contextlib.contextmanager
def exported(commit: str):
    """A temporary directory holding commit's files, removed on exit."""
    with tempfile.TemporaryDirectory(prefix="bench-against-") as tmp:
        archive = subprocess.run(["git", "archive", commit], cwd=ROOT, check=True,
                                 capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        yield Path(tmp)


def record_runs(trees: list, workloads: list, gated: list) -> list:
    """Run every seed on each tree in turn; returns one {"runs", "summary"} per tree."""
    sides = [{"runs": [], "summary": {}} for _ in trees]
    for workload in workloads:
        runs = [[] for _ in trees]
        for seed in SEEDS:
            pairs = list(zip(trees, runs))
            if seed % 2:  # alternate the side that runs first
                pairs.reverse()
            for tree, tree_runs in pairs:
                tree_runs.append(bench(workload, seed, 0, tree))
        for tree, tree_runs, side in zip(trees, runs, sides):
            side["runs"] += tree_runs + [bench(workload, SEEDS.start, 1, tree)]
            side["summary"][workload] = summary(tree_runs, gated)
    return sides


def distinct_envs(runs: list) -> list:
    """Moves each run's env line out, returning the distinct ones."""
    envs = {json.dumps(r.pop("env"), sort_keys=True) for r in runs}
    return [json.loads(e) for e in sorted(envs - {"null"})]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="output file, e.g. BENCH_2.json")
    parser.add_argument("--against", metavar="REV",
                        help="also run REV, from an export of its files made as this "
                             "tree's is, alternating with this tree")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    gated = [m["name"] for m in spec["end_to_end"]]
    record = {
        "commit": git("rev-parse", "HEAD"),
        "dirty": bool(git("status", "--porcelain", "--untracked-files=no")),
        "command": f"perfbench/run.py --seconds {SECONDS} --trace 0, seeds "
                   f"{SEEDS.start}-{SEEDS.stop - 1}, plus one --trace 1 run per workload",
    }
    # `stash create` prints nothing when no tracked file differs from HEAD.
    working = git("stash", "create") or record["commit"]
    if args.against is None:
        with exported(working) as tree:
            (side,) = record_runs([tree], workloads, gated)
    else:
        commit = git("rev-parse", "--verify", f"{args.against}^{{commit}}")
        record["command"] += (f"; each seed run on {args.against} and on this tree, "
                              f"{args.against} first on even seeds")
        with exported(commit) as theirs, exported(working) as ours:
            against, side = record_runs([theirs, ours], workloads, gated)
        record["against"] = {"commit": commit, **against}
    record.update(side)
    runs = side["runs"] + record.get("against", {}).get("runs", [])
    record["env"] = distinct_envs(runs)
    Path(args.out).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    failed = [r for r in runs if r["exit_code"]]
    for r in failed:
        print(f"run failed: {r['workload']} seed {r['seed']} trace {r['trace']}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
