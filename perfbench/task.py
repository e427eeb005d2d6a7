"""One benchmark round of one workload, in a fresh interpreter.

    python3 perfbench/task.py --workload solve-ex2 --seed 1 --round 0 [--trace] [--setup-only]

Run from the repository root.  The round times its own set-up (importing
bandctl from ./src, loading and validating the workload's configs, the
first build_scale), then the workload's task, and prints one JSON object
with the timings, its peak resident memory and every operation's output.
It checks nothing: run.py compares the outputs with the references.
With --trace the layer entry points are wrapped (see spans.py) and the
per-layer counts and self times are added; the span file goes to
perfbench/out/.

Only the standard library is imported before the set-up clock starts.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE = os.path.join(HERE, "reference")
OUT = os.path.join(HERE, "out")

# workload -> {config name: path relative to the repository root}
CONFIGS = {
    "solve-ex1": {"ex1": "configs/ex1.json"},
    "solve-ex2": {"ex2": "configs/ex2.json"},
    "crosscheck": {
        "ex1": "configs/ex1.json",
        "ex2": "configs/ex2.json",
        "ex3": "configs/ex3.json",
        "ex1-hyper": "perfbench/configs/ex1-hyper.json",
    },
}
WORKLOADS = tuple(CONFIGS)

# crosscheck sizes: per policy and round, the policy itself plus K_EVAL
# perturbations from its pool are evaluated on a GRID-point grid, and K_SIM
# start states from its pool are simulated with N_PATHS paths each
GRID = 400
K_EVAL = 5
K_SIM = 2
N_PATHS = 5000


def crosscheck_inputs() -> dict:
    with open(os.path.join(REFERENCE, "crosscheck-inputs.json")) as fh:
        return json.load(fh)


def crosscheck_picks(inputs: dict, seed: int, round_idx: int) -> list[tuple[list, list]]:
    """Per policy: (perturbation indices, simulation case indices) of one round."""
    import numpy as np

    rng = np.random.default_rng([seed, round_idx])
    picks = []
    for pol in inputs["policies"]:
        ev = rng.choice(len(pol["perturbations"]), K_EVAL, replace=False)
        sim = rng.choice(len(pol["sim_cases"]), K_SIM, replace=False)
        picks.append((sorted(int(i) for i in ev), sorted(int(i) for i in sim)))
    return picks


def _band(bandctl, thresholds):
    return bandctl.BandTwo(*thresholds) if len(thresholds) == 4 else bandctl.BandOne(*thresholds)


def _surface(bandctl, model, band):
    if isinstance(band, bandctl.BandTwo):
        return bandctl.total_cost_two(model, band)
    return bandctl.total_cost(model, band)


def _failed(op: dict, exc: Exception) -> None:
    # every bandctl error, and any defect a change introduces, fails only its
    # own operation; the round goes on and run.py reports and counts it
    where = traceback.extract_tb(exc.__traceback__)[-1]
    op["error"] = (f"{type(exc).__name__}: {exc} "
                   f"(at {os.path.basename(where.filename)}:{where.lineno})")


def solve(bandctl, model) -> tuple[list, dict]:
    op = {"op": "solve"}
    t0 = time.perf_counter()
    try:
        res = bandctl.escalate(model)
        op.update(
            strategy_kind=res.strategy_kind,
            verified=bool(res.verified),
            failures=len(res.report.failures),
            thresholds=list(dataclasses.astuple(res.band)),
            V0=float(res.objective),
        )
    except Exception as exc:
        _failed(op, exc)
    return [op], {"task_s": time.perf_counter() - t0}


def crosscheck(bandctl, models, inputs, picks) -> tuple[list, dict]:
    """Evaluate, verify and simulate each policy; picks as crosscheck_picks."""
    import numpy as np

    ops = []
    steps = {"evaluate_s": 0.0, "verify_s": 0.0, "simulate_s": 0.0, "paths": 0}
    t_start = time.perf_counter()
    for p, (pol, (ev_idx, sim_idx)) in enumerate(zip(inputs["policies"], picks)):
        model = models[pol["config"]]
        grid = np.linspace(0.0, model.b, GRID)
        base = None
        for j in [-1] + list(ev_idx):
            op = {"op": "evaluate", "policy": p, "index": j}
            thresholds = pol["band"] if j < 0 else pol["perturbations"][j]
            t0 = time.perf_counter()
            try:
                surface = _surface(bandctl, model, _band(bandctl, thresholds))
                op.update(
                    V0=float(surface.V0),
                    V1=surface.V(1, grid).tolist(),
                    V2=surface.V(2, grid).tolist(),
                )
                if j < 0:
                    base = surface
            except Exception as exc:
                _failed(op, exc)
            steps["evaluate_s"] += time.perf_counter() - t0
            ops.append(op)

        op = {"op": "verify", "policy": p}
        t0 = time.perf_counter()
        try:
            report = bandctl.verify_strategy(model, base)
            op.update(passed=bool(report.passed), failures=len(report.failures))
        except Exception as exc:
            _failed(op, exc)
        steps["verify_s"] += time.perf_counter() - t0
        ops.append(op)

        strategy = bandctl.SimStrategy.from_band(_band(bandctl, pol["band"]), model)
        for c in sim_idx:
            case = pol["sim_cases"][c]
            op = {"op": "simulate", "policy": p, "index": c}
            t0 = time.perf_counter()
            try:
                est = bandctl.estimate_cost(model, strategy, case["x0"], case["phase"],
                                            N_PATHS, base_seed=case["seed"], jobs=1)
                steps["simulate_s"] += time.perf_counter() - t0
                steps["paths"] += N_PATHS
                op.update(estimate=dataclasses.asdict(est),
                          analytic=float(base.V(case["phase"], case["x0"])))
            except Exception as exc:
                steps["simulate_s"] += time.perf_counter() - t0
                _failed(op, exc)
            ops.append(op)
    steps["task_s"] = time.perf_counter() - t_start
    return ops, steps


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--round", type=int, default=0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import bandctl
    from bandctl.cli import load_config

    src = os.path.realpath(os.path.join(ROOT, "src"))
    if not os.path.realpath(bandctl.__file__).startswith(src + os.sep):
        raise SystemExit(f"bandctl imported from {bandctl.__file__}, not from {src}")
    models = {
        name: bandctl.validate(load_config(os.path.join(ROOT, path)))
        for name, path in CONFIGS[args.workload].items()
    }
    bandctl.build_scale(next(iter(models.values())), 1)
    out = {"setup_s": time.perf_counter() - t0}
    if args.setup_only:
        print(json.dumps(out))
        return 0

    if args.workload == "crosscheck":
        inputs = crosscheck_inputs()
        picks = crosscheck_picks(inputs, args.seed, args.round)

    rec = None
    if args.trace:
        import spans

        rec = spans.install(f"{args.workload}-seed{args.seed}-round{args.round}")
    try:
        if args.workload == "crosscheck":
            ops, steps = crosscheck(bandctl, models, inputs, picks)
        else:
            ops, steps = solve(bandctl, next(iter(models.values())))
    finally:
        if rec is not None:
            rec.uninstall()
    out.update(steps)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["ops"] = ops
    if rec is not None:
        out["layers"] = spans.layer_metrics(rec)
        os.makedirs(OUT, exist_ok=True)
        path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json")
        rec.dump(path)
        out["trace_file"] = os.path.relpath(path, ROOT)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
