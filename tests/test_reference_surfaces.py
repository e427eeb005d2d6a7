"""The analytic surfaces and the simulator reproduce the recorded cross-check references.

perfbench/reference holds V0 and the V1/V2 grid values of four base
policies (ex1, ex2, ex3 and a three-component hyper-exponential ex1) and of
ten perturbations of each, recorded by perfbench/make_reference.py.  The
type-two perturbations of ex2 and ex3 move y4, so they reach the overlay's
landing integrals.  It also holds the simulator's estimate for six start
states of each base policy, and the escalate() result on ex1 and ex2.
These tests only read those files; surfaces and solves get the benchmark's
own tolerances, estimates must be bit-identical.
"""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from bandctl import (
    BandOne,
    BandTwo,
    SimStrategy,
    estimate_cost,
    total_cost,
    total_cost_two,
    validate,
)
from bandctl.cli import load_config

ROOT = Path(__file__).resolve().parents[1]
REFERENCE = ROOT / "perfbench" / "reference"
CONFIGS = {
    "ex1": "configs/ex1.json",
    "ex2": "configs/ex2.json",
    "ex3": "configs/ex3.json",
    "ex1-hyper": "perfbench/configs/ex1-hyper.json",
}
SURFACE_REL = 1e-10
SOLVE_THRESHOLD_ABS = 1e-6
SOLVE_V0_REL = 1e-9
SIM_PATHS = 5000  # paths per recorded estimate

with open(REFERENCE / "crosscheck-inputs.json") as fh:
    POLICIES = json.load(fh)["policies"]
# (policy index, perturbation index); -1 is the base policy itself
CASES = [(i, j) for i, pol in enumerate(POLICIES)
         for j in [-1] + list(range(len(pol["perturbations"])))]
# (policy index, simulation case index)
SIM_CASES = [(i, c) for i, pol in enumerate(POLICIES) for c in range(len(pol["sim_cases"]))]


def _case_id(case):
    i, j = case
    return POLICIES[i]["config"] + ("" if j < 0 else f"-{j}")


@pytest.mark.parametrize("index, pert", CASES, ids=[_case_id(c) for c in CASES])
def test_base_policy_matches_reference(index, pert):
    pol = POLICIES[index]
    with open(REFERENCE / "crosscheck-expected.json") as fh:
        v0_ref = json.load(fh)["policies"][index]["evaluate"][str(pert)]["V0"]
    with np.load(REFERENCE / "crosscheck-grids.npz") as npz:
        grids = npz[f"p{index}_{'base' if pert < 0 else pert}"]
    model = validate(load_config(ROOT / CONFIGS[pol["config"]]))
    th = pol["band"] if pert < 0 else pol["perturbations"][pert]
    if len(th) == 4:
        surface = total_cost_two(model, BandTwo(*th))
    else:
        surface = total_cost(model, BandOne(*th))
    xs = np.linspace(0.0, model.b, grids.shape[1])
    assert surface.V0 == pytest.approx(v0_ref, rel=SURFACE_REL, abs=0)
    for phase in (1, 2):
        np.testing.assert_allclose(surface.V(phase, xs), grids[phase - 1],
                                   rtol=SURFACE_REL, atol=0)


@pytest.mark.parametrize("index, case", SIM_CASES,
                         ids=[f"{POLICIES[i]['config']}-sim{c}" for i, c in SIM_CASES])
def test_simulator_matches_recorded_estimate(index, case):
    pol = POLICIES[index]
    with open(REFERENCE / "crosscheck-expected.json") as fh:
        expected = json.load(fh)["policies"][index]["simulate"][str(case)]["estimate"]
    model = validate(load_config(ROOT / CONFIGS[pol["config"]]))
    th = pol["band"]
    band = BandTwo(*th) if len(th) == 4 else BandOne(*th)
    start = pol["sim_cases"][case]
    est = estimate_cost(model, SimStrategy.from_band(band, model), start["x0"], start["phase"],
                        SIM_PATHS, base_seed=start["seed"], jobs=1)
    assert dataclasses.asdict(est) == expected


@pytest.mark.parametrize("name", ["ex1", "ex2"])
def test_escalate_matches_recorded_solve(name, solve_cached):
    with open(REFERENCE / f"solve-{name}.json") as fh:
        ref = json.load(fh)
    res = solve_cached(name, validate(load_config(ROOT / CONFIGS[name])))
    assert res.strategy_kind == ref["strategy_kind"]
    assert bool(res.verified) == ref["verified"]
    assert len(res.report.failures) == ref["failures"]
    thresholds = np.asarray(dataclasses.astuple(res.band))
    assert thresholds.shape == np.shape(ref["thresholds"])
    assert np.max(np.abs(thresholds - ref["thresholds"])) <= SOLVE_THRESHOLD_ABS
    assert res.objective == pytest.approx(ref["V0"], rel=SOLVE_V0_REL, abs=0)
