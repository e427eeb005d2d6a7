"""Record the benchmark's inputs and reference outputs.

    python3 perfbench/make_reference.py      # from the repository root

Run once, at the commit that introduced the benchmark; a later run would
re-record the outputs of whatever code is checked out and so must not be
used to make a failing check pass.  It writes perfbench/reference/:

* solve-ex1.json, solve-ex2.json: escalate on configs/ex1.json, ex2.json;
* crosscheck-inputs.json: the four cross-check policies (the computed
  optima of ex1, ex2 and ex3, and (1.0, 1.5, 4.0) on ex1 with the
  hyper-exponential demand of perfbench/configs/ex1-hyper.json), each with
  a pool of threshold perturbations and of simulation start cases;
* crosscheck-expected.json, crosscheck-grids.npz: every pool entry's
  outputs, from the same code path a benchmark round runs.
"""

from __future__ import annotations

import json
import os
import sys

import numpy as np

import checks
import task

GEN_SEED = 20261017
N_PERTURB = 10
N_SIM_CASES = 6
PERTURB = 0.02      # threshold noise, as a share of b
MIN_GAP = 1e-3      # ordering gap between perturbed thresholds, share of b


def perturb(rng, thresholds, b: float) -> list[float]:
    th = np.asarray(thresholds, dtype=float)
    doshi = len(th) == 3 and th[0] == th[1]
    th = np.sort(np.clip(th + PERTURB * b * rng.uniform(-1.0, 1.0, len(th)), 0.0, 0.995 * b))
    for i in range(1, len(th)):
        if i == 1 and len(th) == 3:
            continue  # y2 <= y3 may be equal
        th[i] = max(th[i], th[i - 1] + MIN_GAP * b)
    if doshi:
        th[1] = th[0]
    return [float(v) for v in th]


def main() -> int:
    sys.path.insert(0, os.path.join(task.ROOT, "src"))
    import bandctl
    from bandctl.cli import load_config

    models = {
        name: bandctl.validate(load_config(os.path.join(task.ROOT, path)))
        for name, path in task.CONFIGS["crosscheck"].items()
    }
    os.makedirs(task.REFERENCE, exist_ok=True)

    optima = {}
    for name in ("ex1", "ex2", "ex3"):
        (op,), steps = task.solve(bandctl, models[name])
        if "error" in op:
            raise SystemExit(f"escalate on {name} failed: {op['error']}")
        print(f"escalate {name}: {op['strategy_kind']} {op['thresholds']} "
              f"V0={op['V0']!r} verified={op['verified']} ({steps['task_s']:.1f} s)")
        optima[name] = op
        if f"solve-{name}" in task.CONFIGS:
            with open(os.path.join(task.REFERENCE, f"solve-{name}.json"), "w") as fh:
                json.dump(op, fh, indent=1)

    rng = np.random.default_rng(GEN_SEED)
    policies = [
        {"config": "ex1", "band": optima["ex1"]["thresholds"]},
        {"config": "ex2", "band": optima["ex2"]["thresholds"]},
        {"config": "ex3", "band": optima["ex3"]["thresholds"]},
        {"config": "ex1-hyper", "band": [1.0, 1.5, 4.0]},
    ]
    for pol in policies:
        b = models[pol["config"]].b
        pol["perturbations"] = [perturb(rng, pol["band"], b) for _ in range(N_PERTURB)]
        pol["sim_cases"] = [
            {"x0": round(float(rng.uniform(0.05, 0.95)) * b, 3),
             "phase": int(rng.integers(1, 3)),
             "seed": int(rng.integers(0, 2**31))}
            for _ in range(N_SIM_CASES)
        ]
    inputs = {"generator_seed": GEN_SEED, "policies": policies}
    with open(os.path.join(task.REFERENCE, "crosscheck-inputs.json"), "w") as fh:
        json.dump(inputs, fh, indent=1)

    everything = [(list(range(N_PERTURB)), list(range(N_SIM_CASES)))] * len(policies)
    ops, steps = task.crosscheck(bandctl, models, inputs, everything)
    expected = {"policies": [{"evaluate": {}, "simulate": {}} for _ in policies]}
    grids = {}
    for op in ops:
        if "error" in op:
            raise SystemExit(f"crosscheck operation failed: {op}")
        pol = expected["policies"][op["policy"]]
        if op["op"] == "evaluate":
            pol["evaluate"][str(op["index"])] = {"V0": op["V0"]}
            grids[checks.grid_key(op["policy"], op["index"])] = np.array([op["V1"], op["V2"]])
        elif op["op"] == "verify":
            pol["verify"] = {"passed": op["passed"], "failures": op["failures"]}
        else:
            pol["simulate"][str(op["index"])] = {"estimate": op["estimate"],
                                                 "analytic": op["analytic"]}
    with open(os.path.join(task.REFERENCE, "crosscheck-expected.json"), "w") as fh:
        json.dump(expected, fh, indent=1)
    np.savez_compressed(os.path.join(task.REFERENCE, "crosscheck-grids.npz"), **grids)

    bad = checks.failures(ops, checks.Reference(task.REFERENCE, "crosscheck"))
    for msg in bad:
        print("CHECK FAILS ON ITS OWN REFERENCE:", msg)
    print(f"crosscheck: {len(ops)} operations recorded, {len(bad)} failing; "
          f"{json.dumps({k: round(v, 3) for k, v in steps.items()})}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
