#!/usr/bin/env python3
"""Benchmark a git ref against the working tree, in alternating pairs.

    tools/ab_bench.py <ref> --workloads train-desk infer-full synth-desk \
        --pairs 10 --seconds 30 --out BENCH_pr<N>.json

Runs perfbench/run.py (untraced) on a `git archive` of <ref> (the parent)
and of the working tree (the change) as `git add -A` stages it: its tracked
files as they are on disk, uncommitted edits included, and its untracked
files that git does not ignore. Both trees are extracted the same way into
fresh directories under one temporary parent, so neither side runs from a
directory the other does not have.
Pair i runs both sides with seed i; odd pairs run the parent first, even
pairs the change. One run at a time, so the two sides never compete for
the host.

The record written to --out has the keys what, command, parent, change,
host, summary and runs. summary holds, per workload and end-to-end metric
of BENCHMARK.json, each side's median and quartiles, change_over_parent
(the ratio of the medians), pairs_change_better, the metric's bound and
within_bound (the change's median is not worse than the parent's by more
than bound times the parent's median), and each side's median minor page
faults a run; runs holds every run's last stdout line and its minor page
faults. The record is rewritten after each pair, so an interrupted session
keeps the pairs it finished.

Run from anywhere inside the repository; exits 1 when a run failed.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

COMMAND = ("python3 perfbench/run.py --workload <workload> --seed <seed> "
           "--seconds <seconds> --trace 0")
WHAT = ("perfbench/run.py runs of the parent commit and of this change on one "
        "host, each side from a fresh copy under one temporary directory, "
        "pairs alternating which side runs first ('first' marks the side "
        "that ran first; pair i runs seed i on both sides); each run's "
        "'result' is the last stdout line of run.py, 'host_line' the line it "
        "prints before its metrics; quartiles are numpy.percentile 25/50/75 of "
        "each side's runs; pairs_change_better counts pairs in which the "
        "change reads better (per BENCHMARK.json's 'better'); 'bound' is the "
        "metric's BENCHMARK.json bound, and 'within_bound' says the change's "
        "median is not worse than the parent's by more than bound times the "
        "parent's median; 'minor_faults' "
        "is a run's minor page faults, the change in "
        "getrusage(RUSAGE_CHILDREN).ru_minflt across its run.py process, and "
        "minor_faults_median each side's median of them; written by "
        "tools/ab_bench.py")


def run_once(tree, workload, seed, seconds):
    """One untraced run.py job in `tree` -> (host line, last-line JSON or None,
    minor page faults of the run.py process)."""
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - faults
    lines = proc.stdout.splitlines()
    host = next((line for line in lines if line.startswith("workload ")), None)
    try:
        result = json.loads(lines[-1]) if proc.returncode == 0 else None
    except (IndexError, json.JSONDecodeError):
        result = None
    if result is None:
        sys.stderr.write(f"{tree}: {workload} seed {seed} failed "
                         f"(exit {proc.returncode})\n{proc.stderr[-2000:]}")
    return host, result, faults


def quartiles(values):
    return [round(float(q), 6) for q in np.percentile(values, [25, 50, 75])]


def summarize(runs, workload, metrics):
    """Per-metric medians, quartiles, pair wins and bound check of one
    workload's runs, and each side's median minor page faults."""
    pairs, faults = {}, {}
    for run in runs:
        if run["workload"] == workload:
            pairs.setdefault(run["seed"], {})[run["side"]] = run["result"]
            faults.setdefault(run["side"], []).append(run["minor_faults"])
    done = [p for p in pairs.values() if p.get("parent") and p.get("change")]
    summary = {}
    for metric in metrics if done else ():
        name, higher = metric["name"], metric["better"] == "higher"
        bound = metric["bound"]
        parent = [p["parent"]["metrics"][name]["value"] for p in done]
        change = [p["change"]["metrics"][name]["value"] for p in done]
        pq, cq = quartiles(parent), quartiles(change)
        summary[name] = {
            "pairs": len(done),
            "parent_median": pq[1], "parent_quartiles": pq,
            "change_median": cq[1], "change_quartiles": cq,
            "change_over_parent": round(cq[1] / pq[1], 4),
            "pairs_change_better": sum((c > p) if higher else (c < p)
                                       for p, c in zip(parent, change)),
            "bound": bound,
            "within_bound": bool(cq[1] >= pq[1] * (1 - bound) if higher
                                 else cq[1] <= pq[1] * (1 + bound)),
        }
    summary["failed_runs"] = sum(
        1 for p in pairs.values() for side in p.values()
        if side is None or not side.get("correct"))
    summary["minor_faults_median"] = {side: float(np.median(counts))
                                      for side, counts in faults.items()}
    return summary


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("ref", help="the parent: a commit, branch or tag")
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    if args.pairs < 1 or not args.seconds > 0:
        parser.error("--pairs must be >= 1 and --seconds > 0")
    root = Path(subprocess.run(["git", "rev-parse", "--show-toplevel"], check=True,
                               capture_output=True, text=True,
                               cwd=Path(__file__).resolve().parent).stdout.strip())

    def git(*argv, env=None):
        return subprocess.run(["git", *argv], cwd=root, check=True, env=env,
                              capture_output=True).stdout

    parent_id = git("rev-parse", "--short", args.ref).decode().strip()
    metrics = json.loads((root / "BENCHMARK.json").read_text())["end_to_end"]
    out = Path(args.out).resolve()

    with tempfile.TemporaryDirectory(prefix="ab-bench-") as work:
        # a temporary index leaves the repository's own index as it was
        env = {**os.environ, "GIT_INDEX_FILE": str(Path(work) / "index")}
        git("read-tree", "HEAD", env=env)
        git("add", "-A", env=env)
        change_tree = git("write-tree", env=env).decode().strip()
        trees = {"parent": Path(work) / "parent", "change": Path(work) / "change"}
        for side, treeish in (("parent", parent_id), ("change", change_tree)):
            with tarfile.open(fileobj=io.BytesIO(git("archive", treeish))) as tar:
                tar.extractall(trees[side], filter="data")
        runs, host = [], None
        for workload in args.workloads:
            for seed in range(1, args.pairs + 1):
                order = ("parent", "change") if seed % 2 else ("change", "parent")
                for side in order:
                    host_line, result, faults = run_once(trees[side], workload, seed,
                                                         args.seconds)
                    if host is None and host_line:
                        host = host_line.split(": ", 1)[-1]
                    runs.append({"workload": workload, "seed": seed, "side": side,
                                 "first": side == order[0], "seconds": args.seconds,
                                 "trace": 0, "host_line": host_line, "result": result,
                                 "minor_faults": faults})
                record = {
                    "what": WHAT, "command": COMMAND, "parent": parent_id,
                    "change": "the commit that adds this file", "host": host,
                    "summary": {f"{w} seed 1-{args.pairs}": summarize(runs, w, metrics)
                                for w in args.workloads},
                    "runs": runs,
                }
                out.write_text(json.dumps(record, indent=1) + "\n")
                print(f"{workload} pair {seed}: " + ", ".join(
                    f"{r['side']} {r['result']['metrics']['frames_per_ref']['value']:.2f}"
                    for r in runs[-2:] if r["result"]), flush=True)
    return 1 if any(r["result"] is None or not r["result"]["correct"] for r in runs) else 0


if __name__ == "__main__":
    sys.exit(main())
