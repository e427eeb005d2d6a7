"""Correctness checks of one round's operation outputs against the references.

The references were recorded at the commit that introduced the benchmark
(see make_reference.py).  Tolerances:

* solve: strategy kind, verified flag and failure count equal; thresholds
  within 1e-6 absolute; V0 within 1e-9 relative.  The reference is the
  computed optimum, not the tabulated thresholds of acceptance criteria
  1b and 2c.
* evaluate: V0 and every V1/V2 grid value within 1e-10 relative.
* verify: pass/fail outcome and number of failures equal.
* simulate: the SimEstimate is bit-identical to the recorded one, and its
  mean lies within 3 standard errors plus the truncation bound of the
  analytic value computed in the same round.
"""

from __future__ import annotations

import json
import os

import numpy as np

THRESHOLD_ABS = 1e-6
SOLVE_V0_REL = 1e-9
SURFACE_REL = 1e-10
SIM_SE = 3.0


class Reference:
    """All recorded outputs of one workload."""

    def __init__(self, directory: str, workload: str):
        self.workload = workload
        if workload == "crosscheck":
            with open(os.path.join(directory, "crosscheck-expected.json")) as fh:
                self.expected = json.load(fh)
            with np.load(os.path.join(directory, "crosscheck-grids.npz")) as npz:
                self.grids = {k: npz[k] for k in npz.files}
        else:
            with open(os.path.join(directory, f"{workload}.json")) as fh:
                self.expected = json.load(fh)
            self.grids = {}


def grid_key(policy: int, index: int) -> str:
    return f"p{policy}_{'base' if index < 0 else index}"


def _rel_ok(value, ref, rel: float) -> bool:
    value = np.asarray(value, dtype=float)
    ref = np.asarray(ref, dtype=float)
    return value.shape == ref.shape and bool(
        np.all(np.isfinite(value)) and np.all(np.abs(value - ref) <= rel * np.abs(ref))
    )


def check_op(op: dict, ref: Reference) -> str | None:
    """None when the operation is correct, else the reason it is not."""
    if "error" in op:
        return op["error"]
    kind = op["op"]
    if kind == "solve":
        exp = ref.expected
        for key in ("strategy_kind", "verified", "failures"):
            if op[key] != exp[key]:
                return f"solve {key} {op[key]!r} != reference {exp[key]!r}"
        th, th_ref = np.asarray(op["thresholds"]), np.asarray(exp["thresholds"])
        if th.shape != th_ref.shape or np.max(np.abs(th - th_ref)) > THRESHOLD_ABS:
            return f"solve thresholds {op['thresholds']} != reference {exp['thresholds']}"
        if not _rel_ok(op["V0"], exp["V0"], SOLVE_V0_REL):
            return f"solve V0 {op['V0']!r} != reference {exp['V0']!r}"
        return None

    pol = ref.expected["policies"][op["policy"]]
    if kind == "evaluate":
        key = grid_key(op["policy"], op["index"])
        exp_v0 = pol["evaluate"][str(op["index"])]["V0"]
        if not _rel_ok(op["V0"], exp_v0, SURFACE_REL):
            return f"evaluate {key}: V0 {op['V0']!r} != reference {exp_v0!r}"
        grid = ref.grids[key]
        for phase, name in ((0, "V1"), (1, "V2")):
            if not _rel_ok(op[name], grid[phase], SURFACE_REL):
                return f"evaluate {key}: {name} differs from the reference beyond 1e-10"
        return None
    if kind == "verify":
        exp = pol["verify"]
        if (op["passed"], op["failures"]) != (exp["passed"], exp["failures"]):
            return (f"verify policy {op['policy']}: passed={op['passed']} failures="
                    f"{op['failures']}, reference passed={exp['passed']} "
                    f"failures={exp['failures']}")
        return None
    if kind == "simulate":
        est = op["estimate"]
        exp = pol["simulate"][str(op["index"])]["estimate"]
        if est != exp:
            return f"simulate policy {op['policy']} case {op['index']}: estimate not bit-identical"
        slack = SIM_SE * est["std_error"] + est["truncation_bound"]
        if not abs(est["mean"] - op["analytic"]) <= slack:
            return (f"simulate policy {op['policy']} case {op['index']}: mean {est['mean']} "
                    f"vs analytic {op['analytic']} exceeds {slack}")
        return None
    return f"unknown operation {kind!r}"


def failures(ops: list[dict], ref: Reference) -> list[str]:
    return [msg for msg in (check_op(op, ref) for op in ops) if msg is not None]
