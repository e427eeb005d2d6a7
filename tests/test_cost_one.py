import json
import math
import os
import pathlib
import re

import mpmath
import numpy as np
import pytest

from bandctl import (BandOne, BandTwo, SimStrategy, build_scale, estimate_cost, total_cost,
                     total_cost_two, upper_cost_bound)
from bandctl import cost_one, optimize, passage, scale
from bandctl.cli import load_config
from bandctl.cost_one import TypeOneAssembly, _contractive, lattice_V0, phase_two_context
from bandctl.passage import ExitContext, _against_exp
from bandctl.errors import (FixedPointNotContractive, OutOfBand, QuadratureNotConverged,
                            ValidationError)
from bandctl.model import HoldingCost, ModelConfig, PenaltyCost, SwitchMatrix, validate
from ._oracles import MpScale, mc_reflected, mc_two_sided
from .conftest import assert_within_se, make_ex1, make_ex1_hyper, make_ex2, make_ex3

EX1_BAND = BandOne(1.526, 1.526, 5.077)
EX3_ONE = BandOne(2.468, 3.114, 4.61)
EX3_TWO = BandTwo(2.468, 3.114, 4.61, 7.66)


def flat_model(cbar=1.0):
    m = make_ex1()
    return ModelConfig(**{
        **m.__dict__,
        "h1": HoldingCost(cbar, 0.0), "h2": HoldingCost(cbar, 0.0), "h0_b": cbar,
        "penalty": PenaltyCost(0.0, 0.0),
        "switching": SwitchMatrix(0, 0, 0, 0, 0, 0),
    })


def test_band_ordering_checked():
    m = make_ex1()
    with pytest.raises(ValidationError):
        BandOne(2.0, 1.0, 5.0).check(m.b)
    with pytest.raises(ValidationError):
        BandOne(1.0, 5.0, 5.0).check(m.b)
    with pytest.raises(ValidationError):
        BandOne(1.0, 2.0, m.b).check(m.b)


def exit2(model):
    """Phase 2 killed on leaving (y2, b) of EX1_BAND."""
    return ExitContext(build_scale(model, 2), EX1_BAND.y2, model.b)


def test_holding_two_sided_edges():
    m = make_ex1()
    assert exit2(m).exits(m.b, m.h2)[2] == pytest.approx(0.0, abs=1e-12)
    free = ModelConfig(**{**m.__dict__, "h2": HoldingCost(0.0, 0.0)})
    xs = np.linspace(EX1_BAND.y2, m.b, 9)
    assert exit2(free).exits(xs, free.h2)[2] == pytest.approx(np.zeros(9), abs=1e-12)


def test_holding_two_sided_against_mc():
    m = make_ex1()
    mc = mc_two_sided(m, 2, EX1_BAND.y2, m.b, 3.0, 100_000, seed=11)
    mean, se = mc["hold"]
    assert abs(exit2(m).exits(3.0, m.h2)[2] - mean) < 3 * se


def test_holding_reflected_edges():
    m = make_ex1()
    y1 = EX1_BAND.y1
    assert TypeOneAssembly(m, EX1_BAND).H1xy(y1) == pytest.approx(0.0, abs=1e-12)
    pure = ModelConfig(**{**m.__dict__, "h1": HoldingCost(m.h1.a, 0.0)})
    s1 = build_scale(m, 1)
    xs = np.linspace(0, y1, 7)
    expected = (m.h1.a / m.q) * (1 - s1.Z(xs) / s1.Z(y1))
    assert TypeOneAssembly(pure, EX1_BAND).H1xy(xs) == pytest.approx(expected, rel=1e-12)


def test_holding_reflected_against_mc():
    m = make_ex1()
    mc = mc_reflected(m, 1, EX1_BAND.y1, 0.0, 100_000, seed=13)
    mean, se = mc["hold"]
    assert abs(TypeOneAssembly(m, EX1_BAND).H1xy(0.0) - mean) < 3 * se


def test_shortage_reflected_cases():
    m = make_ex1()
    nop = ModelConfig(**{**m.__dict__, "penalty": PenaltyCost(0.0, 0.0)})
    xs = np.linspace(0.0, EX1_BAND.y1, 6)
    assert TypeOneAssembly(nop, EX1_BAND).S1xy(xs) == pytest.approx(np.zeros(6), abs=1e-14)
    assert TypeOneAssembly(m, EX1_BAND).S1xy(EX1_BAND.y1) == pytest.approx(0.0, abs=1e-10)
    # closed-form demand tail of the affine penalty at z = 1
    assert m.demand.penalty_tail(1.0, 0.8, 0.4) == pytest.approx(
        math.exp(-1.5) * (0.8 + 0.4 / 1.5)
    )


def test_shortage_reflected_against_mc():
    m = make_ex1()
    mc = mc_reflected(m, 1, EX1_BAND.y1, 1.0, 100_000, seed=15)
    mean, se = mc["penalty"]
    assert abs(TypeOneAssembly(m, EX1_BAND).S1xy(1.0) - mean) < 3 * se


@pytest.mark.parametrize("make, band", [
    (make_ex1, EX1_BAND),
    (make_ex3, BandOne(2.468, 3.114, 4.61)),
    (make_ex1_hyper, BandOne(1.0, 1.5, 4.0)),
], ids=["ex1", "ex3", "ex1-hyper"])
def test_shortage_reflected_against_mpmath(make, band):
    # S1xy from the closed-form shortage integral P(x) = int_0^x W1(x-z) lam
    # ptail(z) dz, against 40-digit quadrature of that integral built from
    # 40-digit scale functions and the penalty tail
    m = make()
    asm = TypeOneAssembly(m, band)
    xs = np.array([0.0, 0.37 * band.y1, 0.8 * band.y1])
    got = asm.S1xy(xs)
    with mpmath.workdps(40):
        s1 = MpScale(m, 1)
        lam, p0, p1 = (mpmath.mpf(v) for v in (m.lam, m.penalty.p0, m.penalty.p1))
        comps = [(mpmath.mpf(w), mpmath.mpf(mu))
                 for w, mu in zip(m.demand.weights, m.demand.rates)]

        def P(x):
            ptail = lambda z: sum(w * mpmath.exp(-mu * z) * (p0 + p1 / mu) for w, mu in comps)
            return mpmath.quad(lambda z: s1.W(x - z) * lam * ptail(z), [0, x])

        y1 = mpmath.mpf(band.y1)
        P1, W1y1, Z1y1 = P(y1), s1.W(y1), s1.Z(y1)
        assert abs(asm.P1 - float(P1)) <= 1e-12 * float(P1)
        for x, val in zip(xs, got):
            x = mpmath.mpf(x)
            ref = float(s1.W(x) * P1 / W1y1 - P(x)
                        + (s1.Z(x) - s1.W(x) * Z1y1 / W1y1) * P1 / Z1y1)
            assert abs(val - ref) <= 1e-12 * abs(ref), (x, val, ref)


def test_constant_cost_closure_analytic():
    cbar = 1.0
    m = flat_model(cbar)
    asm = TypeOneAssembly(m, EX1_BAND)
    h0 = asm.H0
    xs = np.linspace(0.0, m.b - 1e-6, 50)
    assert h0 == pytest.approx(cbar / m.q, abs=1e-10)
    assert asm.costs(1, np.linspace(0, EX1_BAND.y1, 30))[0] == pytest.approx(
        np.full(30, cbar / m.q), abs=1e-10
    )
    assert asm.costs(2, np.linspace(EX1_BAND.y2, m.b, 30))[0] == pytest.approx(
        np.full(30, cbar / m.q), abs=1e-10
    )
    surf = total_cost(m, EX1_BAND)
    assert surf.V(1, xs) == pytest.approx(np.full(50, cbar / m.q), abs=1e-10)
    assert surf.V(2, xs) == pytest.approx(np.full(50, cbar / m.q), abs=1e-10)
    assert surf.V0 == pytest.approx(cbar / m.q, abs=1e-10)


def test_level_b_continuity():
    m = make_ex1()
    asm = TypeOneAssembly(m, EX1_BAND)
    b = np.asarray([m.b])
    H2, S2, K2 = asm.costs(2, b)
    assert float(H2[0]) == pytest.approx(asm.H0, abs=1e-10)
    assert float(S2[0]) == pytest.approx(asm.S0, abs=1e-10)
    assert float(K2[0]) == pytest.approx(asm.K0 + m.switching.k20, abs=1e-10)
    # phase-1 value function is continuous at y1 into the phase-2 branch
    y1 = np.asarray([EX1_BAND.y1])
    assert float(asm.costs(1, y1)[0][0]) == pytest.approx(
        float(asm.costs(2, y1)[0][0]), abs=1e-10
    )


def test_shortage_zero_penalty_assembly():
    nop = ModelConfig(**{**make_ex1().__dict__, "penalty": PenaltyCost(0.0, 0.0)})
    asm = TypeOneAssembly(nop, EX1_BAND)
    s0 = asm.S0
    assert s0 == pytest.approx(0.0, abs=1e-14)
    assert asm.costs(1, np.linspace(0, 5, 9))[1] == pytest.approx(np.zeros(9), abs=1e-13)
    assert asm.costs(2, np.linspace(2, 9, 9))[1] == pytest.approx(np.zeros(9), abs=1e-13)


def test_switching_zero_costs_assembly():
    free = ModelConfig(**{**make_ex1().__dict__,
                          "switching": SwitchMatrix(0, 0, 0, 0, 0, 0)})
    asm = TypeOneAssembly(free, EX1_BAND)
    k0 = asm.K0
    assert k0 == pytest.approx(0.0, abs=1e-14)
    assert asm.costs(1, np.linspace(0, 5, 9))[2] == pytest.approx(np.zeros(9), abs=1e-13)


def test_switching_identity_at_y1():
    m = make_ex1()
    asm = TypeOneAssembly(m, EX1_BAND)
    y1 = np.asarray([EX1_BAND.y1])
    assert float(asm.costs(1, y1)[2][0]) == pytest.approx(
        m.switching.k12 + float(asm.costs(2, y1)[2][0]), abs=1e-10
    )


@pytest.mark.parametrize("call, error, message", [
    (lambda: BandTwo(2.0, 3.0, 3.0 + 5e-10, 6.0).check(10.0), ValidationError,
     "thresholds must be separated by at least 1e-9"),
    (lambda: BandTwo(2.0, 3.0, 5.0, 5.0 + 5e-10).check(10.0), ValidationError,
     "thresholds must be separated by at least 1e-9"),
    (lambda: total_cost(make_ex1(), EX1_BAND).V(1, -1e-6), OutOfBand, "x outside [l, b]"),
    (lambda: total_cost(make_ex1(), EX1_BAND).components(2, [5.0, 10.0 + 1e-6]), OutOfBand,
     "x outside [l, b]"),
    # NaN fails both range comparisons; it must not reach the quadrature
    (lambda: total_cost(make_ex3(), EX3_ONE).V(1, np.nan), OutOfBand, "x outside [l, b]"),
    (lambda: total_cost(make_ex3(), EX3_ONE).components(2, [1.0, np.nan]), OutOfBand,
     "x outside [l, b]"),
    (lambda: total_cost_two(make_ex3(), EX3_TWO).V(2, [1.0, np.nan]), OutOfBand,
     "x outside [l, b]"),
    (lambda: total_cost_two(make_ex3(), EX3_TWO).components(1, np.nan), OutOfBand,
     "x outside [l, b]"),
], ids=["band-two-y1-y3", "band-two-y4-y1", "surface-below-l", "surface-above-b",
        "surface-one-V-nan", "surface-one-components-nan-array", "surface-two-V-nan-array",
        "surface-two-components-nan"])
def test_typed_errors(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$") as exc:
        call()
    assert exc.type is error


@pytest.mark.parametrize("phase", [0, 3, 1.5, True], ids=["0", "3", "1.5", "True"])
def test_surface_phase_must_be_one_or_two(phase):
    # a phase other than 1 or 2 must not fall through to phase 1's zones
    for surface in (total_cost(make_ex1(), EX1_BAND), total_cost_two(make_ex3(), EX3_TWO)):
        for call in (surface.V, surface.components):
            with pytest.raises(ValidationError, match="phase must be the integer 1 or 2"):
                call(phase, 5.0)


def test_surface_phase_may_be_a_numpy_integer():
    surface = total_cost(make_ex1(), EX1_BAND)
    assert surface.V(np.int64(2), 5.0) == surface.V(2, 5.0)
    xs = [1.0, 5.0]
    assert surface.components(np.int64(1), xs)[0].tolist() == surface.V(1, xs).tolist()


def test_switching_capacity_gaps():
    m = make_ex1()
    surf = total_cost(m, EX1_BAND)
    b = m.b
    assert surf.components(2, b, side=-1)[3] - surf.K0 == pytest.approx(
        m.switching.k20, abs=1e-10
    )
    assert surf.components(1, b, side=-1)[3] - surf.K0 == pytest.approx(
        m.switching.k12 + m.switching.k20, abs=1e-10
    )


def test_table_adjustments():
    m = make_ex1()
    surf = total_cost(m, EX1_BAND)
    lo = np.array([0.2, 1.0, EX1_BAND.y2])
    assert surf.V(2, lo) - surf.V(1, lo) == pytest.approx(
        np.full(3, m.switching.k21), abs=1e-10
    )
    hi = np.array([EX1_BAND.y1, 7.0, 9.9])
    assert surf.V(2, hi) - surf.V(1, hi) == pytest.approx(
        np.full(3, -m.switching.k12), abs=1e-10
    )


def test_jump_directions_at_y2():
    m = make_ex1()
    surf = total_cost(m, EX1_BAND)
    y2 = EX1_BAND.y2
    assert surf.components(2, y2, side=-1)[1] > surf.components(2, y2, side=+1)[1]
    assert surf.components(2, y2, side=-1)[2] < surf.components(2, y2, side=+1)[2]


def test_surface_bounded():
    for m in (make_ex1(), make_ex3()):
        band = BandOne(0.2 * m.b, 0.3 * m.b, 0.6 * m.b)
        surf = total_cost(m, band)
        xs = np.linspace(0, m.b - 1e-9, 80)
        bound = upper_cost_bound(m)
        for phase in (1, 2):
            vals = surf.V(phase, xs)
            assert np.all(vals >= 0)
            assert np.all(vals <= bound)
        for phase in (1, 2):
            _, H, S, K = surf.components(phase, xs)
            assert np.all(np.stack([H, S, K]) >= -1e-12)


def test_totals_match_simulator_spot():
    m = make_ex1()
    surf = total_cost(m, EX1_BAND)
    strat = SimStrategy.from_band(EX1_BAND, m)
    slack = 1e-4 * upper_cost_bound(m)
    for x0, phase, seed in ((0.0, 1, 70), (6.5, 2, 71)):
        est = estimate_cost(m, strat, x0, phase, 100_000, base_seed=seed, jobs=2)
        assert_within_se(float(surf.V(phase, x0)), est.mean, est.std_error, slack,
                         label=f"V{phase}({x0})")
        _, H, S, K = surf.components(phase, x0)
        for name, val, comp in (("H", H, est.holding), ("S", S, est.shortage),
                                ("K", K, est.switching)):
            assert_within_se(float(val), comp.mean,
                             comp.std_error, slack, label=f"{name}{phase}({x0})")


def test_objective_bitwise_deterministic():
    m = make_ex3()
    band = BandOne(2.468, 3.114, 4.610)
    v1 = total_cost(m, band).V0
    v2 = total_cost(m, band).V0
    assert v1 == v2


def test_lattice_row_checks_every_band():
    m = make_ex1()
    for y1s in ([3.0, 2.0 + 1e-12], [3.0, m.b], [1.5, 3.0]):
        with pytest.raises(ValidationError):
            TypeOneAssembly(m, BandOne(1.0, 2.0, np.array(y1s)))


@pytest.mark.parametrize("make, bands", [
    (make_ex1, [BandOne(0.0, 0.0, 3.3743305488598034), BandOne(1.526, 1.526, 5.077)]),
    (make_ex2, [BandOne(6.2125852514684965, 9.804502364299498, 17.294129965012793),
                BandOne(6.213, 9.805, 17.294)]),
    (make_ex3, [BandOne(2.4680949887268673, 3.1139494044399276, 4.610298075485835),
                BandOne(2.468, 3.114, 4.610)]),
], ids=["ex1", "ex2", "ex3"])
def test_one_band_is_a_row_of_one(make, bands):
    # the recorded optimum (the crosscheck base) and the tabulated band of each
    # config: one band and a lattice row holding only it give the same bits
    m = make()
    for band in bands:
        row_band = BandOne(band.y2, band.y3, np.array([band.y1]))
        assert total_cost(m, band).V0 == lattice_V0(m, band.y2, band.y3, [band.y1])[0]
        one, row = TypeOneAssembly(m, band), TypeOneAssembly(m, row_band)
        for phase, lo, hi in ((1, 0.0, band.y1), (2, band.y2, m.b)):
            xs = np.linspace(lo, hi, 41)
            for a, b in zip(one.costs(phase, xs), row.costs(phase, xs)):
                assert b.shape == (1,) + a.shape
                assert np.array_equal(a, b[0])


def test_contraction_failure_names_first_failing_band():
    r = np.array([[0.5], [1.5], [-0.1]])
    with pytest.raises(FixedPointNotContractive, match=r"r=1\.5 outside"):
        _contractive((0 <= r) & (r < 1), r, "r={} outside [0,1)")
    with pytest.raises(FixedPointNotContractive, match=r"r=1\.5 outside"):
        _contractive((0 <= 1.5) & (1.5 < 1), 1.5, "r={} outside [0,1)")
    _contractive(np.array([True, True]), np.array([0.1, 0.2]), "{}")


def _clear_caches():
    for cached in (cost_one._assembly, cost_one.phase_two_context, cost_one.model_parts,
                   cost_one.PhaseTwoContext._bases_at, scale.build_scale, passage._gl_nodes,
                   passage._transfer_sources):
        cached.cache_clear()


def _numbers(m, band, grid=401):
    """H0, S0, K0 and (V, H, S, K) of both phases on a grid over [0, b]."""
    surface = total_cost(m, band)
    xs = np.linspace(0.0, m.b, grid)
    return [np.array([surface.H0, surface.S0, surface.K0])] + [
        np.stack(surface.components(phase, xs)) for phase in (1, 2)]


@pytest.mark.parametrize("case", ["ex1-boundary", "ex3-interior"])
def test_warm_phase_two_context_gives_identical_numbers(case):
    # a band warmed through bands with the same y2 and another y3, with the
    # same y3 and another y2 (the same J2 nodes in another context), and the
    # same (y2, y3) must reproduce a cold evaluation bit for bit
    m, band, warmers = {
        "ex1-boundary": (make_ex1(), BandOne(0.0, 0.0, 3.3743),
                         [BandOne(0.0, 1.0, 7.0), BandOne(0.0, 0.0, 6.1)]),
        "ex3-interior": (make_ex3(), BandOne(2.468, 3.114, 4.610),
                         [BandOne(2.468, 3.6, 7.0), BandOne(1.0, 3.114, 5.0),
                          BandOne(2.468, 3.114, 5.9)]),
    }[case]
    _clear_caches()
    cold = _numbers(m, band)
    _clear_caches()
    for other in warmers:
        total_cost(m, other)
    ctx = phase_two_context(m, band.y2)
    hits = cost_one.PhaseTwoContext._bases_at.cache_info().hits
    warm = _numbers(m, band)
    assert cost_one.PhaseTwoContext._bases_at.cache_info().hits > hits
    assert cost_one._assembly(m, band).p2 is ctx
    for a, b in zip(cold, warm):
        assert np.array_equal(a, b)


def test_phase_two_context_arrays_are_read_only():
    m = make_ex3()
    _clear_caches()
    total_cost(m, BandOne(2.468, 3.114, 4.610))
    ctx = phase_two_context(m, 2.468)
    nodes = m.b - np.linspace(0.1, 6.0, 16)
    memo = ctx.at_nodes(nodes)
    assert ctx.at_nodes(nodes.copy()) is memo
    cached = [ctx.parts.mus, ctx.parts.ws, ctx.exit2._B, ctx.om._coef_z, ctx.om._coef_w, *memo]
    for arr in cached:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[...] = 0.0


def test_doshi_builds_phase_two_objects_once_per_y2(monkeypatch):
    m = make_ex1()
    _clear_caches()
    y2s, exits, omegas = set(), [], []
    real_asm = TypeOneAssembly.__init__
    real_exit = passage.ExitContext.__init__
    real_omega = passage.Omega2.__init__

    def asm_init(self, model, band):
        y2s.add(float(band.y2))
        real_asm(self, model, band)

    def exit_init(self, sc, a, d):
        if sc.phase == 2:
            exits.append(float(a))
        real_exit(self, sc, a, d)

    def omega_init(self, scale1, exit2):
        omegas.append(float(exit2.a))
        real_omega(self, scale1, exit2)

    monkeypatch.setattr(TypeOneAssembly, "__init__", asm_init)
    monkeypatch.setattr(passage.ExitContext, "__init__", exit_init)
    monkeypatch.setattr(passage.Omega2, "__init__", omega_init)
    # one usable CPU: the polish runs its starts in this process, where the
    # stubs above see what it builds
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    optimize.optimize_doshi(m)
    assert len(y2s) > 25
    for built in (exits, omegas):
        assert len(built) == len(set(built)) and set(built) <= y2s


def test_against_exp_on_empty_segment_skips_the_integrand():
    def fn(u):
        raise AssertionError("integrand called on an empty segment")

    out = _against_exp(np.array([1.0, 2.0]), fn, 1.5, 1.5, (3,))
    assert out.shape == (3, 2) and not out.any()
    assert _against_exp(np.array([1.0]), fn, 2.0, 1.0).shape == (1,)


@pytest.mark.parametrize("make, b_ok, b_fails", [(make_ex1, 80.0, 90.0), (make_ex2, 100.0, 150.0),
                                                 (make_ex3, 100.0, 150.0)],
                         ids=["ex1", "ex2", "ex3"])
def test_large_b_envelope(make, b_ok, b_fails):
    # the documented limit (README): on bands (0.2b, 0.2b, 0.5b) the
    # level-b quadrature stops converging between these capacities, through
    # cancellation between exponentially large kernel terms
    def band_cost(b):
        model = validate(ModelConfig(**{**make().__dict__, "b": b}))
        return total_cost(model, BandOne(0.2 * b, 0.2 * b, 0.5 * b)).V0

    assert np.isfinite(band_cost(b_ok))
    with pytest.raises(QuadratureNotConverged):
        band_cost(b_fails)


_POLISH_BITS = pathlib.Path(__file__).parent / "data" / "polish-bits.json"
_POLISH_CONFIGS = {"ex1": "configs/ex1.json", "ex2": "configs/ex2.json"}


@pytest.mark.parametrize("config, stage", [("ex1", "doshi"), ("ex2", "doshi"), ("ex2", "one")])
def test_polish_objective_is_bit_pinned(config, stage):
    # every 25th band the polish of escalate() evaluated, with its V0 as
    # float.hex (scripts/compare_numbers.py polish-bits): the engine's
    # arithmetic on the polish path must not move by one bit
    rows = json.loads(_POLISH_BITS.read_text())[config][stage]
    m = validate(load_config(_POLISH_BITS.parents[2] / _POLISH_CONFIGS[config]))
    assert rows
    for row in rows:
        y2, y3, y1, v0 = (float.fromhex(v) for v in row)
        assert total_cost(m, BandOne(y2, y3, y1)).V0.hex() == v0.hex(), row
