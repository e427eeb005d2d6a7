#!/usr/bin/env python3
"""Run the benchmark in two trees alternately and compare them pair by pair.

    python3 scripts/paired_bench.py PARENT_TREE CHANGE_TREE --workload solve-ex1 --pairs 10 \\
        --seconds 30 [--seed 1] [--json OUT]

Each pair runs `python3 perfbench/run.py --workload W --seed SEED --seconds S`
first in PARENT_TREE, then in CHANGE_TREE, each from its own root, so each
tree imports its own src.  The end-to-end metric names come from
PARENT_TREE's BENCHMARK.json.  For each pair the script prints both runs'
metrics and failed-operation counts; then, for each metric, both medians,
the parent's IQR over its median (quartiles as numpy.percentile's linear
interpolation gives them) and the number of pairs in which the change read
lower (a tie counts for neither).  --json writes the runs and the summary.
A run that exits non-zero stops the script.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys


def end_to_end_names(tree) -> list[str]:
    """The end-to-end metric names of a tree's BENCHMARK.json, in order."""
    spec = json.loads((pathlib.Path(tree) / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["end_to_end"]]


def run_tree(tree, workload: str, seed: int, seconds: float) -> dict:
    """The last stdout line of one perfbench/run.py in tree, as JSON."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{tree}: perfbench exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _iqr(values) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def summarize(names, pairs) -> dict:
    """Per metric name: both medians, the parent's IQR / median and the count
    of pairs in which the change read lower.  pairs is a list of (parent,
    change) dicts, each mapping a metric name to its value."""
    out = {}
    for name in names:
        parent = [p[name] for p, _ in pairs]
        change = [c[name] for _, c in pairs]
        median = statistics.median(parent)
        out[name] = {
            "parent_median": median,
            "change_median": statistics.median(change),
            "parent_iqr_over_median": _iqr(parent) / median if median else 0.0,
            "change_lower": sum(c < p for p, c in zip(parent, change)),
            "pairs": len(pairs),
        }
    return out


def summary_lines(summary: dict) -> list[str]:
    return [f"{name}: parent median {s['parent_median']:.4g}, change median "
            f"{s['change_median']:.4g} ({s['change_median'] / s['parent_median'] - 1:+.1%}), "
            f"parent IQR/median {s['parent_iqr_over_median']:.3f}, change lower in "
            f"{s['change_lower']} of {s['pairs']} pairs"
            for name, s in summary.items()]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent_tree")
    ap.add_argument("change_tree")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--json", dest="json_out")
    args = ap.parse_args(argv)

    names = end_to_end_names(args.parent_tree)
    runs, pairs = [], []
    for i in range(args.pairs):
        pair = [run_tree(tree, args.workload, args.seed, args.seconds)
                for tree in (args.parent_tree, args.change_tree)]
        runs.append(pair)
        pairs.append(tuple({n: r["metrics"][n]["value"] for n in names} for r in pair))
        print(f"pair {i}: " + "; ".join(
            f"{side} " + " ".join(f"{n}={v[n]:.4g}" for n in names) + f" failed={r['failed']}"
            for side, v, r in zip(("parent", "change"), pairs[-1], pair)), flush=True)
    summary = summarize(names, pairs)
    for line in summary_lines(summary):
        print(line)
    if args.json_out:
        pathlib.Path(args.json_out).write_text(json.dumps(
            {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
             "runs": [{"parent": p, "change": c} for p, c in runs], "summary": summary},
            indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
