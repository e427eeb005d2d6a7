import numpy as np
import pytest

from bandctl import BandOne, BandTwo, total_cost, total_cost_two
from bandctl.errors import ValidationError
from bandctl.model import HoldingCost, ModelConfig, PenaltyCost, SwitchMatrix
from bandctl.verify import level_b_value, operator_L, operator_L0, verify_strategy
from .conftest import make_ex1, make_ex2, make_ex3


def test_operator_on_constant_function():
    # with no penalty and flat holding cbar, L(w) = -q C + cbar for w = C
    m = make_ex1()
    flat = ModelConfig(**{
        **m.__dict__,
        "h1": HoldingCost(0.7, 0.0), "h2": HoldingCost(0.7, 0.0), "h0_b": 0.7,
        "penalty": PenaltyCost(0.0, 0.0),
    })
    xs = np.linspace(0.5, 9.0, 7)
    for C in (2.0, 0.7 / flat.q):
        vals = operator_L(flat, 1, lambda x: np.full_like(np.asarray(x, float), C), xs)
        assert vals == pytest.approx(np.full(7, -flat.q * C + 0.7), abs=1e-9)
    tight = operator_L(flat, 2, lambda x: np.full_like(np.asarray(x, float), 0.7 / flat.q), xs)
    assert tight == pytest.approx(np.zeros(7), abs=1e-10)


def test_residual_vanishes_on_nonaction_zones():
    m = make_ex1()
    band = BandOne(1.526, 1.526, 5.077)
    surf = total_cost(m, band)
    xs1 = np.linspace(0.05, band.y1 - 0.05, 50)
    r1 = operator_L(m, 1, lambda x: surf.V(1, x), xs1, breakpoints=surf.thresholds)
    scale = max(1.0, float(np.max(np.abs(surf.V(1, xs1)))))
    assert np.max(np.abs(r1)) < 5e-4 * scale
    xs2 = np.linspace(band.y2 + 0.05, m.b - 0.05, 50)
    r2 = operator_L(m, 2, lambda x: surf.V(2, x), xs2, breakpoints=surf.thresholds)
    assert np.max(np.abs(r2)) < 5e-4 * scale


def test_supersolution_slack_on_switching_zone():
    m = make_ex1()
    surf = total_cost(m, BandOne(0.0, 0.0, 3.3743))  # the verified optimum
    xs = np.linspace(3.5, m.b - 0.05, 25)  # phase-1 switching zone interior
    r = operator_L(m, 1, lambda x: surf.V(1, x), xs, breakpoints=surf.thresholds)
    assert np.min(r) > -5e-4 * max(1.0, abs(surf.V0))


def test_operator_L0_zero_cost_surface():
    m = make_ex1()
    trivial = ModelConfig(**{
        **m.__dict__,
        "h1": HoldingCost(0.0, 0.0), "h2": HoldingCost(0.0, 0.0), "h0_b": 0.0,
        "penalty": PenaltyCost(0.0, 0.0),
        "switching": SwitchMatrix(0, 0, 0, 1e-9, 1e-9, 0),
    })
    surf = total_cost(trivial, BandOne(1.5, 1.5, 5.0))
    assert abs(operator_L0(trivial, surf, selection="min")) < 1e-8
    assert abs(surf.V0) < 1e-7  # only the 1e-9 switching charges remain


def test_operator_L0_strategy_selection_vanishes():
    # the fixed-point identity holds for any band, optimal or not
    for m, band in (
        (make_ex1(), BandOne(2.4, 3.3, 6.1)),
        (make_ex3(), BandOne(1.0, 2.0, 5.5)),
    ):
        surf = total_cost(m, band)
        res = operator_L0(m, surf, selection="strategy")
        assert abs(res) < 5e-4 * max(1.0, abs(surf.V0))


def test_operator_L0_computed_surfaces():
    for m, band in ((make_ex1(), BandOne(0.0, 0.0, 3.3743)),
                    (make_ex2(), BandOne(6.213, 9.805, 17.294))):
        surf = total_cost(m, band)
        assert abs(operator_L0(m, surf, selection="min")) < 5e-4 * max(1.0, abs(surf.V0))


def test_verify_passes_example_one_optimum():
    m = make_ex1()
    rep = verify_strategy(m, total_cost(m, BandOne(0.0, 0.0, 3.3743)))
    assert rep.passed, rep.summary()


def test_verify_fails_suboptimal_band():
    m = make_ex1()
    rep = verify_strategy(m, total_cost(m, BandOne(3.0, 3.0, 8.0)))
    assert not rep.passed


def test_verify_example3_type_one_fails_type_two_passes():
    m = make_ex3()
    rep1 = verify_strategy(m, total_cost(m, BandOne(2.468, 3.114, 4.610)))
    assert not rep1.passed
    rep2 = verify_strategy(m, total_cost_two(m, BandTwo(2.468, 3.114, 4.610, 7.660)))
    assert rep2.passed, rep2.summary()


def test_verdict_deterministic():
    m = make_ex3()
    surf = total_cost_two(m, BandTwo(2.468, 3.114, 4.610, 7.660))
    r1 = verify_strategy(m, surf)
    r2 = verify_strategy(m, surf)
    assert r1.passed == r2.passed
    assert np.array_equal(r1.residual_L1, r2.residual_L1)
    assert r1.L0_residual == r2.L0_residual


def test_grid_avoids_thresholds():
    m = make_ex1()
    surf = total_cost(m, BandOne(1.526, 1.526, 5.077))
    rep = verify_strategy(m, surf)
    for t in surf.thresholds:
        assert np.min(np.abs(rep.grid - t)) > 1e-4


def test_level_b_value_matches_assembly_for_optimal_selection():
    m = make_ex3()
    band = BandOne(2.468, 3.114, 4.610)
    surf = total_cost(m, band)
    # y3 at the crossover: min-selection and strategy selection coincide
    assert level_b_value(m, surf, selection="min") == pytest.approx(
        level_b_value(m, surf, selection="strategy"), abs=1e-6
    )


def test_each_phase_evaluated_once_on_the_grid(monkeypatch):
    # the derivative's centre value, the w(x) term of L, both switch slacks
    # and the scale all reuse one evaluation of each phase on the grid
    from bandctl.cost_one import CostSurface

    m = make_ex3()
    surf = total_cost_two(m, BandTwo(2.468, 3.114, 4.610, 7.660))
    calls = []
    original = CostSurface.V

    def counting(self, phase, x, side=0):
        calls.append((phase, np.array(x, dtype=float)))
        return original(self, phase, x, side)

    monkeypatch.setattr(CostSurface, "V", counting)
    rep = verify_strategy(m, surf)
    on_grid = [phase for phase, x in calls
               if x.shape == rep.grid.shape and np.array_equal(x, rep.grid)]
    assert sorted(on_grid) == [1, 2]


@pytest.mark.parametrize("tol, grid_points", [
    (float("nan"), 400), (float("inf"), 400), (0.0, 400), (-1.0, 400), (5e-4, 0),
], ids=["tol-nan", "tol-inf", "tol-zero", "tol-negative", "grid-zero"])
def test_verify_rejects_degenerate_tolerance(tol, grid_points):
    # NaN compares false against every residual, so it would certify any band
    surf = total_cost(make_ex1(), BandOne(1.526, 1.526, 5.077))
    with pytest.raises(ValidationError, match="finite tol > 0"):
        verify_strategy(make_ex1(), surf, tol=tol, grid_points=grid_points)
