"""scripts/sweep.py's jitter recipe, and the solver on its configs ex1-7-1 and ex2-7-6.

ex1-7-1 breaks the restart inequality K0i <= K0j + Kji, so every optimizer
entry point rejects it before any search.  On ex2-7-6 type one's optimum puts y1 at b - 1e-6, so the type-two stage
searches y4 in a (y1, b) 1.0e-6 wide.  Its golden-section band fails, and
the verifier raises on some y4 in that gap (the expected failure below).
"""

import importlib.util
import json
from pathlib import Path

import pytest

from bandctl import (BandTwo, escalate, optimize, optimize_doshi, optimize_type_one,
                     optimize_type_two, total_cost_two, verify_strategy)
from bandctl.cli import EXIT_OK, EXIT_UNVERIFIED, main
from bandctl.errors import QuadratureNotConverged, SwitchInequalityViolated
from bandctl.verify import VerificationReport

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "sweep.py"
_spec = importlib.util.spec_from_file_location("sweep", SCRIPT)
sweep = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(sweep)

# ex2-7-6's type-one (y2, y3, y1), as escalate finds it
EX2_7_6_ONE = (1.468096759776385, 13.44120806917843, 20.185896196849342)


def _ex2_7_6_doc() -> dict:
    return dict(sweep.sweep_configs())["ex2-7-6"]


@pytest.fixture(scope="module")
def ex2_7_6(tmp_path_factory):
    return sweep.load_model(_ex2_7_6_doc(), tmp_path_factory.mktemp("ex2-7-6"))


def test_recipe_draw_counts_and_first_ex2_draw():
    labels = [label for label, _ in sweep.sweep_configs()]
    assert labels == ([f"ex1-7-{i}" for i in range(8)] + [f"ex2-7-{i}" for i in range(12)]
                      + [f"ex3-7-{i}" for i in range(12)])
    doc = sweep.jittered("ex2", 1)[0]
    assert doc == dict(sweep.sweep_configs())["ex2-7-0"]
    assert doc == {
        "sigma1": 2.2357491472497433, "sigma2": 1.7391209095803426,
        "lambda": 2.1811213676478243, "q": 0.07434617720005257, "b": 20.43058405168027,
        "l": 0.0, "demand": {"kind": "exponential", "rate": 1.0},
        "h1": {"a": 0.022043980645944723, "c": 0.0010044614399136523},
        "h2": {"a": 0.014449947901303817, "c": 0.0009601874101974315},
        "h0_b": 0.018572149672980535,
        "penalty": {"p0": 0.5935306033158171, "p1": 0.30177112320252764},
        "switching": [[None, 0.0, 0.0], [0.00425854647179383, None, 0.04169716893821044],
                      [0.005382299667216768, 0.06343126827371018, None]],
    }


@pytest.mark.parametrize("solve", [escalate, optimize_doshi, optimize_type_one,
                                   optimize_type_two])
def test_optimizers_reject_ex1_7_1_before_any_lattice(solve, tmp_path, monkeypatch):
    def lattice_V0(*args):
        raise AssertionError("lattice_V0 called on a model that validate rejects")

    monkeypatch.setattr(optimize, "lattice_V0", lattice_V0)
    model = sweep.load_model(dict(sweep.sweep_configs())["ex1-7-1"], tmp_path)
    with pytest.raises(SwitchInequalityViolated, match="K0i <= K0j \\+ Kji"):
        solve(model)


def test_escalate_on_ex2_7_6_returns_a_flagged_type_two_band(ex2_7_6):
    res = escalate(ex2_7_6)
    assert res.strategy_kind == "two" and not res.verified
    assert len(res.report.failures) == 1
    assert (res.band.y2, res.band.y3, res.band.y1) == EX2_7_6_ONE
    assert res.band.y1 < res.band.y4 < ex2_7_6.b


def test_solve_on_ex2_7_6_exits_unverified_only_when_required(tmp_path):
    config = tmp_path / "ex2-7-6.json"
    config.write_text(json.dumps(_ex2_7_6_doc()))
    out = str(tmp_path / "report.json")
    assert main(["solve", str(config), "--output", out]) == EXIT_OK
    assert main(["solve", str(config), "--require-verified", "--output", out]) == EXIT_UNVERIFIED


@pytest.mark.xfail(raises=QuadratureNotConverged, strict=True,
                   reason="the verifier's panels do not converge on this 1e-6 wide zone")
@pytest.mark.parametrize("y4", [20.18589657184934, 20.185896846849342])
def test_verifier_reports_on_a_type_two_band_in_a_narrow_zone(ex2_7_6, y4):
    # y4 - y1 = 3.75e-7 and 6.5e-7: a report should come back, verified or not
    surface = total_cost_two(ex2_7_6, BandTwo(*EX2_7_6_ONE, y4))
    assert isinstance(verify_strategy(ex2_7_6, surface), VerificationReport)
