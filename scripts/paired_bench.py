#!/usr/bin/env python3
"""Run the benchmark in two trees alternately and compare them pair by pair.

    python3 scripts/paired_bench.py PARENT_TREE CHANGE_TREE --workload solve-ex1 --pairs 10 \\
        --seconds 30 [--seed 1] [--json OUT]

Each pair runs `python3 perfbench/run.py --workload W --seed SEED --seconds S`
once in PARENT_TREE and once in CHANGE_TREE, each from its own root, so each
tree imports its own src.  The order alternates: the parent runs first in
pairs 0, 2, 4, ... and the change first in pairs 1, 3, 5, ..., so a host
that drifts during a pair leans neither way over the run.  The end-to-end
metric names come from PARENT_TREE's BENCHMARK.json.  For each pair the
script prints which tree ran first and both runs' metrics and
failed-operation counts; then, for each metric, both medians, the parent's
IQR over its median (quartiles as numpy.percentile's linear interpolation
gives them) and the number of pairs in which the change read lower (a tie
counts for neither): over all pairs, and over the pairs of each order.
--json writes the runs, each with its order, and the three summaries.  A
run that exits non-zero stops the script.
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


def first_tree(i: int) -> str:
    """Which tree runs first in pair i: the parent in even pairs, the change in odd ones."""
    return "parent" if i % 2 == 0 else "change"


def run_pairs(trees: dict, n_pairs: int, run, report) -> list[dict]:
    """n_pairs pairs of run(tree) over trees {"parent": ..., "change": ...},
    in the order first_tree gives, calling report(i, pair) after each; each
    pair as {"first", "parent", "change"}."""
    runs = []
    for i in range(n_pairs):
        first = first_tree(i)
        order = (first, "change" if first == "parent" else "parent")
        pair = {"first": first}
        for side in order:
            pair[side] = run(trees[side])
        runs.append(pair)
        report(i, pair)
    return runs


def summaries(names, runs) -> dict:
    """summarize over all pairs ("all") and over the pairs of each order
    ("parent_first", "change_first"); runs as run_pairs gives them."""
    def values(pair):
        return tuple({n: pair[side]["metrics"][n]["value"] for n in names}
                     for side in ("parent", "change"))

    out = {}
    for key, first in (("all", None), ("parent_first", "parent"), ("change_first", "change")):
        chosen = [values(p) for p in runs if first in (None, p["first"])]
        if chosen:
            out[key] = summarize(names, chosen)
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

    def run(tree):
        return run_tree(tree, args.workload, args.seed, args.seconds)

    def report(i, pair):
        print(f"pair {i} ({pair['first']} first): " + "; ".join(
            f"{side} " + " ".join(f"{n}={pair[side]['metrics'][n]['value']:.4g}" for n in names)
            + f" failed={pair[side]['failed']}" for side in ("parent", "change")), flush=True)

    runs = run_pairs({"parent": args.parent_tree, "change": args.change_tree}, args.pairs, run,
                     report)
    summary = summaries(names, runs)
    for key, label in (("all", "all pairs"), ("parent_first", "parent first"),
                       ("change_first", "change first")):
        if key in summary:
            print(f"-- {label}:")
            for line in summary_lines(summary[key]):
                print(line)
    if args.json_out:
        pathlib.Path(args.json_out).write_text(json.dumps(
            {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
             "runs": runs, "summary": summary}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
