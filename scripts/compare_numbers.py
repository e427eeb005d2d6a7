#!/usr/bin/env python3
"""Dump the numbers the analytic engine, the optimizer and the simulator produce, and diff two dumps.

    PYTHONPATH=src python3 scripts/compare_numbers.py dump OUT.npz
    python3 scripts/compare_numbers.py diff A.npz B.npz
    PYTHONPATH=src python3 scripts/compare_numbers.py polish-bits OUT.json

Run from the repository root.  `dump` imports bandctl from the current
PYTHONPATH, so two trees are compared by dumping once with each tree's src
first on the path.  It writes:

* escalate/<ex>: the strategy kind, thresholds, objective, verified flag and
  failure count of escalate() on configs/ex1.json, ex2.json, ex3.json, as
  the repr of a tuple (_escalate_summary), run as a user runs it, with the
  polish starts spread over the usable CPUs.  The verification report's
  numbers are under verify/escalate-<ex>/* alone, so a change to the
  verifier leaves these arrays as they are;
* polish/<ex>/<stage>: rows (y2, y3, y1, V0) of every band the polish of
  stage doshi or one evaluated during a second escalate(), in call order
  (captured by wrapping optimize.total_cost inside optimize._polish), so the
  Nelder-Mead objective is compared bit for bit, not only its result.  The
  wrapper sees only this process, so that escalate() runs on one usable CPU,
  which keeps every start in this process; it must give the same repr as
  the first, or the dump stops;
* starts/<config>/<stage>: the Nelder-Mead starts that optimize_doshi and
  optimize_type_one hand to the polish (stage doshi or one), on ex1, ex2,
  ex3 and ex1-hyper; the polish itself is skipped;
* band/<case>/V0 and band/<case>/p<phase>s<side>: V0, and V, H, S, K of
  both phases at sides -1/0/+1 on a 401-point grid over [0, b], for the 44
  bands of perfbench/reference/crosscheck-inputs.json (each base policy,
  then its perturbations 0-9);
* sim/<config>-base-<case>: the simulator's estimate for each of the 24
  recorded start states (sim_cases) of those base policies, at SIM_PATHS
  paths with jobs=1, as the SimEstimate fields in order (mean, std_error,
  n_paths, holding, shortage and switching mean and std_error,
  truncation_horizon, truncation_bound).  Only SimStrategy.from_band and
  estimate_cost are called, so the script dumps older trees too;
* verify/<case>/<field>: the residual_L1, residual_L2, switch_slack_12,
  switch_slack_21, L0_residual, boundary_1, boundary_2 and scale of
  verify_strategy at its default grid, the grid itself (so that each
  dump's arrays read against its own points), and the crossovers
  (verify._min_crossovers) at which the verifier cuts its panels,
  for the four base policies (<config>-base) and for the escalate winners
  (escalate-<ex>), each surface rebuilt from its band by total_cost or
  total_cost_two.  Only those, verify_strategy and _min_crossovers are
  called, so older trees dump these too;
* kernel/<config>/p<phase>/<fn>: W, Wbar, Wbarbar, Z and Zbar of both
  phases of every config, on the fixed _kernel_inputs (a 0-d, two 1-d and a
  (3, 200, 48) array over [-1, b + 1]), each result raveled and the four
  concatenated; and kernel/<config>/p2/resolvent_transform, the
  killed-resolvent transform of the phase-2 ExitContext on (b/4, b) at the
  1-d and 2-d inputs of _resolvent_inputs (the 3001-point one spans several
  of integrate_rows' row blocks), for ex3 and ex1-hyper.  Only
  build_scale, ScaleSet and ExitContext are called, so older trees dump
  these too.

`polish-bits` writes, as JSON, every POLISH_BITS_STEP-th row (y2, y3, y1,
V0) of the polish/<ex>/<stage> capture, each number as float.hex, for the
Doshi and type-one polish of ex2 and the Doshi polish of ex1
(tests/data/polish-bits.json, which tests/test_cost_one.py re-evaluates
bit for bit).

Only crosscheck-inputs.json and the four configs are read.  `diff` lists
every array that is missing from one dump or not bit-identical, with its
largest absolute and largest relative difference (a residual near 0 can
move by a large relative amount and a tiny absolute one), and exits 1 when
there is any.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import pathlib
import sys

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parents[1]
CONFIGS = {
    "ex1": "configs/ex1.json",
    "ex2": "configs/ex2.json",
    "ex3": "configs/ex3.json",
    "ex1-hyper": "perfbench/configs/ex1-hyper.json",
}
GRID = 401
POLISH_BITS_STEP = 25
POLISH_BITS = {"ex1": ("doshi",), "ex2": ("doshi", "one")}
SIM_PATHS = 5000  # paths per recorded estimate, as in tests/test_reference_surfaces.py
KERNEL_FNS = ("W", "Wbar", "Wbarbar", "Z", "Zbar")
RESOLVENT_CONFIGS = ("ex3", "ex1-hyper")
VERIFY_FIELDS = ("residual_L1", "residual_L2", "switch_slack_12", "switch_slack_21",
                 "L0_residual", "boundary_1", "boundary_2", "scale", "grid")


def _models():
    from bandctl import validate
    from bandctl.cli import load_config

    return {name: validate(load_config(ROOT / path)) for name, path in CONFIGS.items()}


def _starts(model) -> dict:
    """The polish starts of both lattice stages, captured by stubbing the polish."""
    import bandctl.optimize as opt

    seen = {}

    def capture(model, starts, doshi):
        seen["doshi" if doshi else "one"] = np.asarray(list(starts), dtype=float)
        return opt._project_one(starts[0], model.b, doshi), 0.0

    polish = opt._polish
    opt._polish = capture
    try:
        opt.optimize_doshi(model)
        opt.optimize_type_one(model)
    finally:
        opt._polish = polish
    return seen


def _escalate_with_polish(model):
    """escalate(model) on one usable CPU, and the (y2, y3, y1, V0) rows each
    polish stage evaluated."""
    import bandctl.optimize as opt

    rows, stage = {}, []

    def polish(model, starts, doshi):
        stage.append("doshi" if doshi else "one")
        try:
            return real_polish(model, starts, doshi)
        finally:
            stage.pop()

    def total_cost(model, band):
        surface = real_cost(model, band)
        if stage:
            rows.setdefault(stage[-1], []).append((band.y2, band.y3, band.y1, surface.V0))
        return surface

    real_polish, real_cost = opt._polish, opt.total_cost
    opt._polish, opt.total_cost = polish, total_cost
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        result = opt.escalate(model)
    finally:
        os.sched_setaffinity(0, cpus)
        opt._polish, opt.total_cost = real_polish, real_cost
    return result, {k: np.asarray(v, dtype=float) for k, v in rows.items()}


def _escalate_summary(result) -> np.ndarray:
    """(kind, thresholds, objective, verified, failure count) of an escalate() result, as a repr."""
    return np.array(repr((result.strategy_kind, dataclasses.astuple(result.band), result.objective,
                          result.verified, len(result.report.failures))))


def _surface(model, th):
    """The cost surface of the band with thresholds th (three or four)."""
    from bandctl import BandOne, BandTwo, total_cost, total_cost_two

    return total_cost_two(model, BandTwo(*th)) if len(th) == 4 else total_cost(model, BandOne(*th))


def _verify_arrays(case: str, model, th) -> dict:
    """verify/<case>/<field> and verify/<case>/crossovers for the band with thresholds th."""
    from bandctl import verify_strategy
    from bandctl.verify import _min_crossovers

    surface = _surface(model, th)
    report = verify_strategy(model, surface)
    arrays = {f"verify/{case}/{name}": np.asarray(getattr(report, name)) for name in VERIFY_FIELDS}
    arrays[f"verify/{case}/crossovers"] = np.asarray(_min_crossovers(surface), dtype=float)
    return arrays


def _kernel_inputs(b: float) -> list:
    """The fixed kernel inputs over [-1, b + 1]: 0-d, 48 and 401 points, and (3, 200, 48)."""
    rng = np.random.default_rng(16)
    return [np.array(0.37 * b), np.linspace(-1.0, b + 1.0, 48), np.linspace(-1.0, b + 1.0, 401),
            rng.uniform(-1.0, b + 1.0, (3, 200, 48))]


def _resolvent_inputs(b: float) -> list:
    """The fixed resolvent-transform inputs over [0, b]: 401 points, (20, 48), 3001
    points (several row blocks of integrate_rows) and (40, 9) (trailing row axis)."""
    rng = np.random.default_rng(17)
    return [np.linspace(0.0, b, 401), rng.uniform(0.0, b, (20, 48)), np.linspace(0.0, b, 3001),
            rng.uniform(0.0, b, (40, 9))]


def _kernel_arrays(config: str, model) -> dict:
    """kernel/<config>/p<phase>/<fn> on the fixed inputs."""
    from bandctl import build_scale
    from bandctl.passage import ExitContext

    arrays = {}
    for phase in (1, 2):
        scale = build_scale(model, phase)
        for fn in KERNEL_FNS:
            arrays[f"kernel/{config}/p{phase}/{fn}"] = np.concatenate(
                [np.ravel(getattr(scale, fn)(x)) for x in _kernel_inputs(model.b)])
    if config in RESOLVENT_CONFIGS:
        scale, a = build_scale(model, 2), 0.25 * model.b
        ctx = ExitContext(scale, a, model.b)
        arrays[f"kernel/{config}/p2/resolvent_transform"] = np.concatenate(
            [np.ravel(ctx.resolvent_transform(x, scale.W(x - a) / scale.W(model.b - a)))
             for x in _resolvent_inputs(model.b)])
    return arrays


def dump(out: str) -> None:
    from bandctl import BandOne, BandTwo, SimStrategy, escalate, estimate_cost

    models = _models()
    arrays = {}
    for name, model in models.items():
        arrays.update(_kernel_arrays(name, model))
    for name in ("ex1", "ex2", "ex3"):
        winner = escalate(models[name])
        one_cpu, polished = _escalate_with_polish(models[name])
        if repr(one_cpu) != repr(winner):
            sys.exit(f"escalate/{name}: one usable CPU gives another result than the default")
        arrays[f"escalate/{name}"] = _escalate_summary(winner)
        arrays.update(_verify_arrays(f"escalate-{name}", models[name],
                                     dataclasses.astuple(winner.band)))
        for stage, rows in polished.items():
            arrays[f"polish/{name}/{stage}"] = rows
    for name, model in models.items():
        for stage, starts in _starts(model).items():
            arrays[f"starts/{name}/{stage}"] = starts

    with open(ROOT / "perfbench" / "reference" / "crosscheck-inputs.json") as fh:
        policies = json.load(fh)["policies"]
    for pol in policies:
        model = models[pol["config"]]
        xs = np.linspace(0.0, model.b, GRID)
        for j, th in enumerate([pol["band"]] + pol["perturbations"]):
            case = f"band/{pol['config']}-{'base' if j == 0 else j - 1}"
            surface = _surface(model, th)
            arrays[f"{case}/V0"] = np.array(surface.V0)
            for phase in (1, 2):
                for side in (-1, 0, 1):
                    arrays[f"{case}/p{phase}s{side}"] = np.stack(
                        surface.components(phase, xs, side))
        th = pol["band"]
        arrays.update(_verify_arrays(f"{pol['config']}-base", model, th))
        strategy = SimStrategy.from_band(BandTwo(*th) if len(th) == 4 else BandOne(*th), model)
        for c, start in enumerate(pol["sim_cases"]):
            est = estimate_cost(model, strategy, start["x0"], start["phase"], SIM_PATHS,
                                base_seed=start["seed"], jobs=1)
            arrays[f"sim/{pol['config']}-base-{c}"] = np.hstack(dataclasses.astuple(est))
    np.savez(out, **arrays)
    print(f"{len(arrays)} arrays written to {out}")


def polish_bits(out: str) -> None:
    models = _models()
    doc = {}
    for name, stages in POLISH_BITS.items():
        polished = _escalate_with_polish(models[name])[1]
        doc[name] = {stage: [[float(v).hex() for v in row]
                             for row in polished[stage][::POLISH_BITS_STEP]]
                     for stage in stages}
    pathlib.Path(out).write_text(json.dumps(doc, indent=1) + "\n")
    print(f"{sum(len(r) for d in doc.values() for r in d.values())} bands written to {out}")


def _largest_diffs(a: np.ndarray, b: np.ndarray) -> tuple[float, float]:
    """The largest absolute and the largest relative elementwise difference."""
    if a.dtype.kind not in "fi" or b.dtype.kind not in "fi" or a.shape != b.shape:
        return float("nan"), float("nan")
    if not a.size:
        return 0.0, 0.0
    scale = np.maximum(np.abs(a), np.abs(b))
    gap = np.abs(a - b)
    rel = np.where(scale > 0, gap / np.where(scale > 0, scale, 1.0), 0.0)
    return float(np.max(gap)), float(np.max(rel))


def diff(path_a: str, path_b: str) -> int:
    with np.load(path_a) as fa, np.load(path_b) as fb:
        a = {k: fa[k] for k in fa.files}
        b = {k: fb[k] for k in fb.files}
    differing = []
    for key in sorted(set(a) | set(b)):
        if key not in a or key not in b:
            differing.append(f"{key}: only in {path_a if key in a else path_b}")
        elif not (a[key].shape == b[key].shape and np.array_equal(a[key], b[key])):
            gap, rel = _largest_diffs(a[key], b[key])
            differing.append(f"{key}: largest absolute difference {gap:.3g}, relative {rel:.3g}")
    print(f"{len(set(a) | set(b))} arrays compared; differing: {len(differing)}")
    for line in differing:
        print(f"  {line}")
    return 1 if differing else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    sub.add_parser("dump").add_argument("out")
    sub.add_parser("polish-bits").add_argument("out")
    d = sub.add_parser("diff")
    d.add_argument("a")
    d.add_argument("b")
    args = ap.parse_args(argv)
    if args.cmd == "dump":
        dump(args.out)
        return 0
    if args.cmd == "polish-bits":
        polish_bits(args.out)
        return 0
    return diff(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main())
