"""The analytic surfaces reproduce the recorded cross-check references.

perfbench/reference holds V0 and the V1/V2 grid values of four base
policies (ex1, ex2, ex3 and a three-component hyper-exponential ex1),
recorded by perfbench/make_reference.py.  This test only reads those files
and applies the benchmark's own surface tolerance.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from bandctl import BandOne, BandTwo, total_cost, total_cost_two, validate
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

with open(REFERENCE / "crosscheck-inputs.json") as fh:
    POLICIES = json.load(fh)["policies"]


@pytest.mark.parametrize("index", range(len(POLICIES)), ids=[p["config"] for p in POLICIES])
def test_base_policy_matches_reference(index):
    pol = POLICIES[index]
    with open(REFERENCE / "crosscheck-expected.json") as fh:
        v0_ref = json.load(fh)["policies"][index]["evaluate"]["-1"]["V0"]
    with np.load(REFERENCE / "crosscheck-grids.npz") as npz:
        grids = npz[f"p{index}_base"]
    model = validate(load_config(ROOT / CONFIGS[pol["config"]]))
    th = pol["band"]
    if len(th) == 4:
        surface = total_cost_two(model, BandTwo(*th))
    else:
        surface = total_cost(model, BandOne(*th))
    xs = np.linspace(0.0, model.b, grids.shape[1])
    assert surface.V0 == pytest.approx(v0_ref, rel=SURFACE_REL, abs=0)
    for phase in (1, 2):
        np.testing.assert_allclose(surface.V(phase, xs), grids[phase - 1],
                                   rtol=SURFACE_REL, atol=0)
