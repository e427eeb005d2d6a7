import numpy as np
import pytest

from bandctl import (
    BandTwo,
    SimStrategy,
    estimate_cost,
    total_cost,
    total_cost_two,
    upper_cost_bound,
)
from bandctl import build_scale, passage
from bandctl.errors import ValidationError
from bandctl.model import HoldingCost, ModelConfig
from bandctl.passage import ExitContext
from ._oracles import mc_two_sided
from .conftest import assert_within_se, make_ex3

EX3_BAND = BandTwo(2.468, 3.114, 4.610, 7.660)


def test_band_two_ordering():
    with pytest.raises(ValidationError):
        BandTwo(2.0, 3.0, 5.0, 4.5).check(10.0)
    with pytest.raises(ValidationError):
        BandTwo(2.0, 3.0, 5.0, 10.0).check(10.0)


def exit1(model):
    """Phase 1 killed on leaving (y4, b) of EX3_BAND."""
    return ExitContext(build_scale(model, 1), EX3_BAND.y4, model.b)


def test_holding_exit_phase1_edges():
    m = make_ex3()
    assert exit1(m).exits(m.b, m.h1)[2] == pytest.approx(0.0, abs=1e-12)
    free = ModelConfig(**{**m.__dict__, "h1": HoldingCost(0.0, 0.0)})
    xs = np.linspace(EX3_BAND.y4, m.b, 7)
    assert exit1(free).exits(xs, free.h1)[2] == pytest.approx(np.zeros(7), abs=1e-12)


def test_holding_exit_phase1_against_mc():
    m = make_ex3()
    mc = mc_two_sided(m, 1, EX3_BAND.y4, m.b, 8.5, 100_000, seed=23)
    mean, se = mc["hold"]
    assert abs(exit1(m).exits(8.5, m.h1)[2] - mean) < 3 * se


def test_upper_costs_capacity_limits():
    # up-crossing factor tends to one; landing integrals vanish; the
    # switching component keeps the switch-off charge
    m = make_ex3()
    surf = total_cost_two(m, EX3_BAND)
    h, s, k = surf.components(1, m.b)[1:]
    assert h == pytest.approx(surf.H0, abs=1e-9)
    assert s == pytest.approx(surf.S0, abs=1e-9)
    assert k == pytest.approx(surf.K0 + m.switching.k10, abs=1e-9)


def test_switch_cost_free_model_zero_kbar():
    m = make_ex3()
    from bandctl.model import SwitchMatrix

    free = ModelConfig(**{**m.__dict__, "switching": SwitchMatrix(0, 0, 0, 0, 0, 0)})
    _, _, k = total_cost_two(free, EX3_BAND).components(1, 9.0)[1:]
    assert k == pytest.approx(0.0, abs=1e-12)


def test_total_cost_two_zones():
    m = make_ex3()
    surf = total_cost_two(m, EX3_BAND)
    one = total_cost(m, EX3_BAND.lower())
    # shared regions agree exactly with the type-one assembly
    lo = np.linspace(0.0, EX3_BAND.y1 - 0.01, 9)
    assert surf.V(1, lo) == pytest.approx(one.V(1, lo), abs=0)
    mid = np.linspace(EX3_BAND.y1, EX3_BAND.y4, 9)
    assert surf.V(1, mid) == pytest.approx(
        surf.V(2, mid) + m.switching.k12, abs=1e-12
    )
    ph2 = np.linspace(EX3_BAND.y2 + 0.01, m.b, 9)
    assert surf.V(2, ph2) == pytest.approx(one.V(2, ph2), abs=0)


def test_v0_invariant_in_y4():
    m = make_ex3()
    vals = [
        total_cost_two(m, BandTwo(2.468, 3.114, 4.610, y4)).V0
        for y4 in (EX3_BAND.y1 + 0.5, 7.66, m.b - 0.5)
    ]
    one = total_cost(m, EX3_BAND.lower()).V0
    assert max(vals) - min(vals) < 1e-9
    assert abs(vals[0] - one) < 1e-12


def test_capacity_switch_gap_is_k10():
    m = make_ex3()
    surf = total_cost_two(m, EX3_BAND)
    assert surf.components(1, m.b, side=-1)[3] - surf.K0 == pytest.approx(
        m.switching.k10, abs=1e-9
    )
    # in return, V1 at b- ends K10 above the idle value
    assert surf.V(1, m.b, side=-1) - surf.V0 == pytest.approx(
        m.switching.k10, abs=1e-9
    )


def test_downward_jump_at_y4():
    # leaving the switching zone upward drops the switching component; at
    # the verified y4 the total is nearly continuous (indifference point)
    m = make_ex3()
    surf = total_cost_two(m, EX3_BAND)
    y4 = EX3_BAND.y4
    k_jump = surf.components(1, y4, side=+1)[3] - surf.components(1, y4, side=-1)[3]
    v_jump = surf.V(1, y4, side=+1) - surf.V(1, y4, side=-1)
    assert k_jump < -1e-4
    assert abs(v_jump) < 0.05 * abs(k_jump)


def test_type_two_converges_to_type_one():
    m = make_ex3()
    near = BandTwo(2.468, 3.114, 4.610, m.b - 1e-3)
    surf2 = total_cost_two(m, near)
    surf1 = total_cost(m, near.lower())
    xs = np.linspace(0.05, near.y4 - 0.05, 10)
    for phase in (1, 2):
        assert surf2.V(phase, xs) == pytest.approx(surf1.V(phase, xs), abs=1e-4)


def test_upper_values_match_simulator():
    m = make_ex3()
    surf = total_cost_two(m, EX3_BAND)
    strat = SimStrategy.from_band(EX3_BAND, m)
    est = estimate_cost(m, strat, 9.0, 1, 100_000, base_seed=29, jobs=2)
    slack = 1e-4 * upper_cost_bound(m)
    assert_within_se(float(surf.V(1, 9.0)), est.mean, est.std_error, slack, label="V1(9)")
    _, H, S, K = surf.components(1, 9.0)
    for name, val, comp in (("H", H, est.holding), ("S", S, est.shortage),
                            ("K", K, est.switching)):
        assert_within_se(float(val), comp.mean, comp.std_error,
                         slack, label=f"{name}bar(9)")


def test_surface_evaluation_integrates_each_tail_once(monkeypatch):
    # the transfer-map tails and the phase-1 shortage integral are closed
    # forms, so one phase-2 stack needs only its resolvent transform, a
    # phase-1 stack no quadrature, and the upper region of a type-two band
    # its resolvent transform
    m = make_ex3()
    one = total_cost(m, EX3_BAND.lower())
    two = total_cost_two(m, EX3_BAND)
    real = passage.integrate_rows
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(passage, "integrate_rows", counted)

    def count(surface, phase, lo, hi):
        calls.clear()
        surface.V(phase, np.linspace(lo, hi, 9))
        return len(calls)

    assert count(one, 2, EX3_BAND.y2 + 0.01, m.b) == 1
    assert count(one, 1, 0.0, EX3_BAND.y1 - 0.01) == 0
    assert count(two, 1, EX3_BAND.y4 + 0.01, m.b) == 1
