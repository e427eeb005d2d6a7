"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see every line.

Two tabulated optima disagree with the configurations they belong to (see
README, "known benchmark discrepancies"), and criteria 1b and 2c check each
disagreement itself.  The tabulated thresholds for the first benchmark are not
the optimum of `configs/ex1.json`: the verifier rejects them and the
independent simulator confirms that the computed band costs less.  The
tabulated class for the second benchmark is single-component, which leaves out
the upper non-action component that the capacity switch-off condition forces;
the ladder's verified winner keeps the tabulated thresholds and adds that
component (it is not the optimum: see README and ROADMAP items 1 and 2).
"""

import numpy as np
import pytest

from bandctl import (
    BandOne,
    BandTwo,
    SimStrategy,
    build_scale,
    check_laplace_identity,
    estimate_cost,
    optimize_doshi,
    total_cost,
    total_cost_two,
    upper_cost_bound,
    verify_strategy,
)
from bandctl.cli import main
from bandctl.model import HoldingCost, ModelConfig, PenaltyCost, SwitchMatrix
from bandctl.verify import operator_L
from ._oracles import level_b_value, simpson_adaptive
from .conftest import assert_within_se, strip_timing

REFERENCE = {
    # externally tabulated optima for the three benchmark configurations; the
    # ex1 entry is not the optimum of configs/ex1.json (criterion 1b), and the
    # ex2 entry is tabulated as single-component, without the upper
    # non-action component that the capacity condition forces (criterion 2c)
    "ex1": {"y2": 1.526, "y1": 5.077},
    "ex2": {"y2": 6.213, "y3": 9.805, "y1": 17.294},
    "ex3": {"y2": 2.468, "y3": 3.114, "y1": 4.610, "y4": 7.660},
}

# Verified optimum of configs/ex1.json.  Criterion 1b establishes it against
# REFERENCE["ex1"]: the verifier rejects the tabulated band on its 1->2 switch
# slack (step c), and the simulator confirms both analytic costs and separates
# them (step d).
VERIFIED_EX1 = {"y2": 0.000, "y1": 3.374}


def _line(num: str, ok: bool, detail: str) -> None:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} - {detail}")


# -- criterion 1: first benchmark reproduction --------------------------------

def test_criterion_01a_verified_doshi_within_budget(solve_cached, ex1):
    res = solve_cached("ex1", ex1)
    runtime = solve_cached.runtimes["ex1"]
    ok = res.strategy_kind == "doshi" and res.verified and runtime < 60.0
    _line("1a", ok, f"solve -> {res.strategy_kind}, verified={res.verified}, "
                    f"{runtime:.1f}s (budget 60s)")
    assert ok


def test_criterion_01b_reference_thresholds(solve_cached, ex1):
    res = solve_cached("ex1", ex1)
    ref = REFERENCE["ex1"]
    tab_band = BandOne(ref["y2"], ref["y2"], ref["y1"])
    tab = total_cost(ex1, tab_band)
    # (a, b) escalation stops at a verified Doshi band that beats the tabulated one
    ok_found = (res.strategy_kind == "doshi" and res.verified
                and res.surface.V0 < tab.V0)
    # (c) switching 1->2 strictly improves on part of the tabulated keep-fast zone
    rep = verify_strategy(ex1, tab)
    slack12 = float(np.min(rep.switch_slack_12[rep.grid < tab_band.y1]))
    ok_rejected = not rep.passed and slack12 < -rep.tol * rep.scale
    # (d) from (b, phase 0) each simulated mean confirms its own analytic V0,
    # and the tabulated band costs more than the computed one
    bands = {"tabulated": (tab_band, tab), "computed": (res.band, res.surface)}
    ests = {
        name: estimate_cost(ex1, SimStrategy.from_band(band, ex1), ex1.b, 0,
                            100_000, base_seed=1_000, jobs=2)
        for name, (band, _) in bands.items()
    }
    ok_mc = all(abs(ests[name].mean - surf.V0)
                <= 3 * ests[name].std_error + ests[name].truncation_bound
                for name, (_, surf) in bands.items())
    est_tab, est_got = ests["tabulated"], ests["computed"]
    gap = est_tab.mean - est_got.mean
    sep = 3 * float(np.hypot(est_tab.std_error, est_got.std_error))
    # (e) the computed thresholds are the verified optimum recorded above
    got = (res.band.y2, res.band.y1)
    ok_thresholds = (abs(got[0] - VERIFIED_EX1["y2"]) <= 0.02
                     and abs(got[1] - VERIFIED_EX1["y1"]) <= 0.02)
    ok = ok_found and ok_rejected and ok_mc and gap > sep and ok_thresholds
    _line("1b", ok, f"computed {res.strategy_kind} {got[0]:.3f}/{got[1]:.3f} "
                    f"verified={res.verified}, V0 {res.surface.V0:.4f} < tabulated "
                    f"{ref['y2']}/{ref['y1']} V0 {tab.V0:.4f}; tabulated 1->2 switch "
                    f"slack {slack12:.4f} < -tol; MC {est_tab.mean:.4f} vs "
                    f"{est_got.mean:.4f}, gap {gap:.4f} > 3 SE {sep:.4f}")
    assert ok_found, (f"escalate -> {res.strategy_kind}, verified={res.verified}, "
                      f"V0 {res.surface.V0:.4f} vs tabulated {tab.V0:.4f}")
    assert ok_rejected, (f"tabulated band {rep.summary()}; min 1->2 switch slack "
                         f"below y1 = {slack12:.6g}")
    for name, (_, surf) in bands.items():
        est = ests[name]
        assert_within_se(surf.V0, est.mean, est.std_error, est.truncation_bound,
                         label=f"{name} V0")
    assert gap > sep, f"simulated gap {gap:.4f} does not exceed 3 SE {sep:.4f}"
    assert ok_thresholds, f"computed (y2, y1) = {got} vs {VERIFIED_EX1}"


# -- criterion 2: second benchmark reproduction -------------------------------

@pytest.fixture(scope="session")
def ex2_doshi(ex2):
    res = optimize_doshi(ex2)
    return res, res.report


def test_criterion_02a_best_doshi_fails(ex2_doshi):
    res, report = ex2_doshi
    ok = not report.passed
    _line("2a", ok, f"best Doshi ({res.band.y2:.3f}, {res.band.y1:.3f}) verification: "
                    f"{'fail as required' if ok else 'unexpected pass'}; "
                    f"first failure: {report.failures[0] if report.failures else '-'}")
    assert ok


def test_criterion_02b_escalation_thresholds(solve_cached, ex2):
    res = solve_cached("ex2", ex2)
    runtime = solve_cached.runtimes["ex2"]
    ref = REFERENCE["ex2"]
    got = (res.band.y2, res.band.y3, res.band.y1)
    ok = (
        res.verified
        and all(abs(g - ref[k]) <= 0.02 for g, k in zip(got, ("y2", "y3", "y1")))
        and runtime < 120.0
    )
    _line("2b", ok, f"verified={res.verified}, (y2,y3,y1)=({got[0]:.3f},{got[1]:.3f},"
                    f"{got[2]:.3f}) vs tabulated, {runtime:.1f}s (budget 120s)")
    assert ok


def test_criterion_02c_single_component_class(solve_cached, ex2):
    res = solve_cached("ex2", ex2)
    ref = REFERENCE["ex2"]
    sw = ex2.switching
    got = (res.band.y2, res.band.y3, res.band.y1)
    # (a) the tabulated class at the same thresholds: every type-one band runs
    # up to capacity in phase 1 and pays K12 + K20 there where switching off
    # directly costs K10, so it fails the phase-1 capacity condition by exactly
    # the difference, and nothing else
    one = total_cost(ex2, BandOne(*got))
    rep = verify_strategy(ex2, one)
    forced = sw.k12 + sw.k20 - sw.k10
    ok_one = (len(rep.failures) == 1
              and rep.failures[0].startswith("capacity condition phase 1")
              and abs(rep.boundary_1 - forced) <= 1e-8)
    # (b) the verified winner adds the upper component and keeps the thresholds
    ok_two = (res.strategy_kind == "two" and res.verified
              and all(abs(g - ref[k]) <= 1e-3 for g, k in zip(got, ("y2", "y3", "y1"))))
    # (c) the upper component changes w1 near b but not the idle value
    ok_v0 = abs(res.surface.V0 - one.V0) <= 1e-8 * abs(one.V0)
    ok = ok_one and ok_two and ok_v0
    _line("2c", ok, f"type-one at ({got[0]:.3f},{got[1]:.3f},{got[2]:.3f}) fails only "
                    f"the phase-1 capacity condition ({len(rep.failures)} failures), "
                    f"by {rep.boundary_1:.4f} = K12 + K20 - K10; escalated class "
                    f"{res.strategy_kind!r} keeps (y2,y3,y1) to 1e-3 and V0 to 1e-8 "
                    f"(gap {abs(res.surface.V0 - one.V0):.1e})")
    assert ok_one, f"type-one band: {rep.summary()}"
    assert ok_two, (f"escalated {res.strategy_kind}, verified={res.verified}, "
                    f"(y2, y3, y1) = {got} vs tabulated {ref}")
    assert ok_v0, f"V0 {res.surface.V0!r} (two) vs {one.V0!r} (one)"


# -- criterion 3: third benchmark reproduction --------------------------------

def test_criterion_03_type_two(solve_cached, ex3):
    res = solve_cached("ex3", ex3)
    runtime = solve_cached.runtimes["ex3"]
    ref = REFERENCE["ex3"]
    got = (res.band.y2, res.band.y3, res.band.y1)
    ok_thresholds = all(
        abs(g - ref[k]) <= 0.02 for g, k in zip(got, ("y2", "y3", "y1"))
    )
    tabulated = total_cost_two(ex3, BandTwo(ref["y2"], ref["y3"], ref["y1"], ref["y4"]))
    rep_tab = verify_strategy(ex3, tabulated)
    ok = (
        res.strategy_kind == "two"
        and ok_thresholds
        and res.verified
        and rep_tab.passed
        and runtime < 300.0
    )
    _line("3", ok, f"type-two (y2,y3,y1,y4)=({got[0]:.3f},{got[1]:.3f},{got[2]:.3f},"
                   f"{res.band.y4:.3f}), verified={res.verified}, tabulated y4 "
                   f"surface verified={rep_tab.passed}, {runtime:.1f}s (budget 300s)")
    assert ok


# -- criterion 4: oracle equivalence -------------------------------------------

def test_criterion_04_oracle_equivalence(solve_cached, ex1, ex2, ex3):
    worst = 0.0
    for name, model in (("ex1", ex1), ("ex2", ex2), ("ex3", ex3)):
        res = solve_cached(name, model)
        surf = res.surface
        strat = SimStrategy.from_band(res.band, model)
        slack = 1e-4 * upper_cost_bound(model)
        for phase in (1, 2):
            xs = np.linspace(0.08 * model.b, 0.92 * model.b, 20)
            # nudge points off the policy thresholds
            for t in surf.thresholds:
                xs = np.where(np.abs(xs - t) < 1e-6, xs + 1e-4, xs)
            for i, x0 in enumerate(xs):
                est = estimate_cost(model, strat, float(x0), phase, 100_000,
                                    base_seed=9_000 + 37 * i + phase, jobs=2)
                pairs = [
                    ("V", est.mean, est.std_error),
                    ("H", est.holding.mean, est.holding.std_error),
                    ("S", est.shortage.mean, est.shortage.std_error),
                    ("K", est.switching.mean, est.switching.std_error),
                ]
                values = map(float, surf.components(phase, float(x0)))  # V, H, S, K
                for (comp, mean, se), ana in zip(pairs, values):
                    assert_within_se(ana, mean, se, slack,
                                     label=f"{name} {comp}{phase}({x0:.2f})")
                    if se > 0:
                        worst = max(worst, abs(ana - mean) / (3 * se + slack))
    _line("4", True, f"3 benchmarks x 2 phases x 20 states x 4 components within "
                     f"3 SE (worst normalized gap {worst:.2f})")


# -- criterion 5: scale-function suite -----------------------------------------

def test_criterion_05_scale_suite(ex1, ex2, ex3):
    rng = np.random.default_rng(501)
    worst_resid = 0.0
    worst_quad = 0.0
    for model in (ex1, ex2, ex3):
        for phase in (1, 2):
            sc = build_scale(model, phase)
            for theta in rng.uniform(sc.phi_q + 0.1, sc.phi_q + 5.0, size=10):
                r = check_laplace_identity(sc, float(theta))
                worst_resid = max(worst_resid, r)
                assert r < 1e-8
            assert abs(sc.W(0.0) - 1 / model.sigma(phase)) < 1e-10
            assert abs(sc.Z(0.0) - 1.0) < 1e-10
            for x in np.linspace(0.2, model.b, 5):
                wb = simpson_adaptive(lambda z: sc.W(z), 0.0, float(x), tol=1e-12)
                wbb = simpson_adaptive(lambda z: sc.Wbar(z), 0.0, float(x), tol=1e-12)
                worst_quad = max(worst_quad, abs(sc.Wbar(x) - wb), abs(sc.Wbarbar(x) - wbb))
                assert abs(sc.Wbar(x) - wb) < 1e-9
                assert abs(sc.Wbarbar(x) - wbb) < 1e-9
    _line("5", True, f"transform residual < 1e-8 (worst {worst_resid:.2e}), "
                     f"closed-form integrals vs quadrature (worst {worst_quad:.2e})")


# -- criterion 6: structural invariants on the first benchmark -----------------

def test_criterion_06_remark_invariants(ex1):
    band = BandOne(REFERENCE["ex1"]["y2"], REFERENCE["ex1"]["y2"], REFERENCE["ex1"]["y1"])
    surf = total_cost(ex1, band)
    k = ex1.switching
    lo = np.linspace(0.0, band.y2, 25)
    assert np.max(np.abs(surf.V(2, lo) - surf.V(1, lo) - k.k21)) < 1e-8
    hi = np.linspace(band.y1, ex1.b - 1e-9, 25)
    assert np.max(np.abs(surf.V(2, hi) - surf.V(1, hi) + k.k12)) < 1e-8
    assert abs(surf.V(2, ex1.b, side=-1) - surf.V0 - k.k20) < 1e-8
    for i, level, tol in ((1, surf.H0, 1e-6), (2, surf.S0, 1e-6)):  # H, S
        left2 = surf.components(2, ex1.b, side=-1)[i]
        left1 = surf.components(1, ex1.b, side=-1)[i]
        assert abs(left2 - level) < tol
        assert abs(left1 - level) < tol
    h_jump = surf.components(2, band.y2, side=+1)[1] - surf.components(2, band.y2, side=-1)[1]
    s_jump = surf.components(2, band.y2, side=+1)[2] - surf.components(2, band.y2, side=-1)[2]
    assert h_jump < 0, "holding must jump downward entering the keep-slow zone"
    assert s_jump > 0, "shortage must jump upward entering the keep-slow zone"
    _line("6", True, f"switch-gap, capacity-continuity and jump-sign checks on the "
                     f"reference band (H jump {h_jump:.4f}, S jump {s_jump:+.4f})")


# -- criterion 7: fixed-point identities on arbitrary bands ---------------------

def test_criterion_07_fixed_point_suite(ex1, ex2, ex3):
    rng = np.random.default_rng(707)
    tol = 5e-4
    checked = 0
    for model in (ex1, ex2, ex3):
        b = model.b
        margin = max(0.05, 0.02 * b)
        for _ in range(10):
            y2 = rng.uniform(0.0, 0.5 * b)
            y3 = y2 + rng.uniform(0.0, 0.2 * b)
            y1 = y3 + rng.uniform(0.3, 0.35 * b)
            y1 = min(y1, b - 2 * margin)
            if y1 <= y3 + 1e-3:
                continue
            band = BandOne(y2, y3, y1)
            surf = total_cost(model, band)
            scale = max(1.0, abs(surf.V0))
            xs1 = np.linspace(margin, y1 - margin, 12)
            r1 = operator_L(model, 1, lambda x: surf.V(1, x), xs1,
                            breakpoints=surf.thresholds)
            assert np.max(np.abs(r1)) < tol * scale, f"{band} phase1 {np.max(np.abs(r1))}"
            xs2 = np.linspace(y2 + margin, b - margin, 12)
            r2 = operator_L(model, 2, lambda x: surf.V(2, x), xs2,
                            breakpoints=surf.thresholds)
            assert np.max(np.abs(r2)) < tol * scale, f"{band} phase2 {np.max(np.abs(r2))}"
            sw1 = np.linspace(y1 + margin, b - margin, 8)
            slack1 = surf.V(2, sw1) + model.switching.k12 - surf.V(1, sw1)
            assert np.max(np.abs(slack1)) < tol * scale
            if y2 > 2 * margin:
                sw2 = np.linspace(margin, y2 - margin, 6)
                slack2 = surf.V(1, sw2) + model.switching.k21 - surf.V(2, sw2)
                assert np.max(np.abs(slack2)) < tol * scale
            res0 = (model.q + model.lam) * (level_b_value(model, surf, "strategy") - surf.V0)
            assert abs(res0) < tol * scale, f"{band} L0 {res0}"
            checked += 1
    _line("7", True, f"{checked} random bands: interior residuals, switch slacks and "
                     f"restart identity all within 5e-4 (scaled)")


# -- criterion 8: the upper threshold never moves the idle value ----------------

def test_criterion_08_y4_invariance(ex3):
    ref = REFERENCE["ex3"]
    vals = [
        total_cost_two(ex3, BandTwo(ref["y2"], ref["y3"], ref["y1"], y4)).V0
        for y4 in (ref["y1"] + 0.5, 7.66, ex3.b - 0.5)
    ]
    spread = max(vals) - min(vals)
    _line("8", spread < 1e-9, f"V0 spread across y4 choices: {spread:.2e}")
    assert spread < 1e-9


# -- criterion 9: constant-cost closure ------------------------------------------

def test_criterion_09_trivial_closure(ex1):
    cbar = 1.0
    # all-zero switching violates the admissibility inequalities, so the
    # closure is checked on the raw assembly and the raw simulator
    flat = ModelConfig(**{
        **ex1.__dict__,
        "h1": HoldingCost(cbar, 0.0), "h2": HoldingCost(cbar, 0.0), "h0_b": cbar,
        "penalty": PenaltyCost(0.0, 0.0),
        "switching": SwitchMatrix(0, 0, 0, 0, 0, 0),
    })
    band = BandOne(1.5, 2.5, 5.0)
    surf = total_cost(flat, band)
    xs = np.linspace(0.0, flat.b - 1e-9, 60)
    worst = max(
        float(np.max(np.abs(surf.V(1, xs) - cbar / flat.q))),
        float(np.max(np.abs(surf.V(2, xs) - cbar / flat.q))),
        abs(surf.V0 - cbar / flat.q),
    )
    assert worst < 1e-10
    strat = SimStrategy.from_band(band, flat)
    est = estimate_cost(flat, strat, 3.0, 1, 1000, base_seed=90)
    gap = abs(est.mean - cbar / flat.q)
    assert gap <= 3 * est.std_error + est.truncation_bound + 1e-12
    _line("9", True, f"analytic closure to {worst:.1e}; simulated gap {gap:.2e} within "
                     f"truncation bound {est.truncation_bound:.2e}")


# -- criterion 10: byte-identical reports -----------------------------------------

def test_criterion_10_determinism(tmp_path):
    cfg = str((tmp_path / "cfg.json"))
    import shutil
    from pathlib import Path

    shutil.copy(Path(__file__).resolve().parents[1] / "configs" / "ex1.json", cfg)
    outs = []
    for i in range(2):
        out = tmp_path / f"solve{i}.json"
        assert main(["solve", cfg, "--strategy", "doshi", "--output", str(out)]) == 0
        outs.append(strip_timing(out.read_text()))
    assert outs[0] == outs[1]
    sims = []
    for i, jobs in enumerate(("1", "3")):
        out = tmp_path / f"sim{i}.json"
        assert main(["simulate", cfg, "--y2", "1.526", "--y1", "5.077", "--x0", "2.0",
                     "--phase", "1", "--paths", "30000", "--seed", "11",
                     "--jobs", jobs, "--output", str(out)]) == 0
        sims.append(strip_timing(out.read_text()))
    assert sims[0] == sims[1]
    _line("10", True, "solve reports byte-identical across repeats, simulate reports "
                      "across worker counts (timing excluded)")
