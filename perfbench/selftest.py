"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py [--workload W ...] [--seed N]

Run from the repository root.  Per workload (default: all three; solve-ex2
alone takes a few minutes) it runs one plain and two traced rounds with the
same inputs and checks that

1. the traced and the plain round give identical operation outputs;
2. the two traced rounds give identical per-layer counts;
3. every correctness check is live: moving one recorded reference value
   just outside its tolerance (or, for the 3-SE bound, the analytic value)
   makes that check fail, so the failure ratio rises above 0.

It prints the tracing overhead (traced minus plain task time) and exits 1
if any check fails.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import sys
import time

import numpy as np

import checks
import run
import task


def _bumped(ref: checks.Reference, edit) -> checks.Reference:
    out = copy.copy(ref)
    out.expected = copy.deepcopy(ref.expected)
    out.grids = dict(ref.grids)
    edit(out)
    return out


def perturbations(ref: checks.Reference, ops: list[dict]):
    """Yield (label, reference, ops) cases that each must fail a check."""
    if ref.workload != "crosscheck":
        moves = {
            "strategy_kind": lambda v: "none",
            "verified": lambda v: not v,
            "failures": lambda v: v + 1,
            "thresholds": lambda v: v[:-1] + [v[-1] + 2 * checks.THRESHOLD_ABS],
            "V0": lambda v: v * (1 + 2 * checks.SOLVE_V0_REL),
        }
        for key, move in moves.items():
            yield f"solve {key}", _bumped(ref, lambda r: r.expected.update(
                {key: move(r.expected[key])})), ops
        return

    ev = next(op for op in ops if op["op"] == "evaluate")
    key = checks.grid_key(ev["policy"], ev["index"])
    pol = ev["policy"]

    def grid_edit(r):
        grid = r.grids[key].copy()
        grid[1, len(grid[1]) // 2] *= 1 + 2 * checks.SURFACE_REL
        r.grids[key] = grid

    yield "evaluate grid value", _bumped(ref, grid_edit), ops
    yield "evaluate V0", _bumped(ref, lambda r: r.expected["policies"][pol]["evaluate"][
        str(ev["index"])].update(V0=ev["V0"] * (1 + 2 * checks.SURFACE_REL))), ops
    vp = next(op["policy"] for op in ops if op["op"] == "verify")
    yield "verify failures", _bumped(ref, lambda r: r.expected["policies"][vp]["verify"].update(
        failures=r.expected["policies"][vp]["verify"]["failures"] + 1)), ops
    yield "verify passed", _bumped(ref, lambda r: r.expected["policies"][vp]["verify"].update(
        passed=not r.expected["policies"][vp]["verify"]["passed"])), ops
    sim = next(op for op in ops if op["op"] == "simulate")

    def mean_edit(r):
        est = r.expected["policies"][sim["policy"]]["simulate"][str(sim["index"])]["estimate"]
        est["mean"] = float(np.nextafter(est["mean"], np.inf))

    yield "simulate bit identity", _bumped(ref, mean_edit), ops
    far = copy.deepcopy(ops)
    op = next(o for o in far if o["op"] == "simulate")
    est = op["estimate"]
    op["analytic"] = est["mean"] + 1.01 * (checks.SIM_SE * est["std_error"] + est["truncation_bound"])
    yield "simulate 3-SE bound (analytic value moved)", ref, far


def selftest(workload: str, seed: int, exact: set[str]) -> list[str]:
    problems = []
    deadline = time.monotonic() + 900
    plain = run.run_round(workload, seed, 0, deadline)
    traced = [run.run_round(workload, seed, 0, deadline, trace=True) for _ in range(2)]
    ref = checks.Reference(task.REFERENCE, workload)

    base = checks.failures(plain["ops"], ref)
    print(f"[{workload}] plain round: {len(plain['ops'])} operations, {len(base)} failed, "
          f"task {plain['task_s']:.2f} s")
    problems += [f"[{workload}] plain round fails its reference: {m}" for m in base]

    for i, rd in enumerate(traced):
        same = rd["ops"] == plain["ops"]
        print(f"[{workload}] 1. traced round {i} outputs identical to plain: {same}; "
              f"overhead {rd['task_s'] - plain['task_s']:+.2f} s")
        if not same:
            problems.append(f"[{workload}] traced round {i} changed the outputs")

    counts = {k: v for k, v in traced[0]["layers"].items() if k in exact}
    again = {k: v for k, v in traced[1]["layers"].items() if k in exact}
    print(f"[{workload}] 2. counts repeat across traced rounds: {counts == again}")
    print(f"[{workload}]    {json.dumps(counts)}")
    if counts != again:
        diff = {k: (counts[k], again.get(k)) for k in counts if counts[k] != again.get(k)}
        problems.append(f"[{workload}] traced counts differ: {diff}")

    for label, bad_ref, ops in perturbations(ref, plain["ops"]):
        ratio = len(checks.failures(ops, bad_ref)) / len(ops)
        print(f"[{workload}] 3. perturbed {label}: fail_ratio {ratio:.3f}")
        if not ratio > 0:
            problems.append(f"[{workload}] perturbed {label} went undetected")
    return problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=task.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    with open(os.path.join(task.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    # per-layer counts and ratios are exact; times are not compared
    exact = {m["name"] for m in spec["per_layer"] if m["unit"] in ("count", "ratio")}
    problems = []
    for workload in args.workload or task.WORKLOADS:
        problems += selftest(workload, args.seed, exact)
    for p in problems:
        print("SELFTEST FAIL", p)
    print("selftest:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
