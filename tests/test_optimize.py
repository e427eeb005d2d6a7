import logging
import os
import sys
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

import bandctl.optimize as optimize
from bandctl import (
    BandOne,
    ModelConfig,
    escalate,
    optimize_doshi,
    optimize_type_one,
    optimize_type_two,
    total_cost,
    upper_cost_bound,
)
from bandctl._workers import usable_workers
from bandctl.cli import EXIT_NUMERIC, main
from bandctl.errors import FixedPointNotContractive, NoFeasiblePoint, ValidationError
from bandctl.optimize import (
    OptimizationResult,
    _lattice,
    _multistart,
    _nelder_mead,
    _polish,
    _project_one,
)
from bandctl.verify import VerificationReport
from .conftest import make_ex1, make_ex1_hyper, make_ex2, make_ex3, record_forks

MODELS = {"ex1": make_ex1, "ex2": make_ex2, "ex3": make_ex3, "ex1-hyper": make_ex1_hyper}
CONFIGS = Path(__file__).resolve().parents[1] / "configs"
# ex3's type-one optimum, rounded; the type-two stage only reads base.band
EX3_ONE = BandOne(2.468, 3.114, 4.610)


def _type_one_base(band: BandOne) -> OptimizationResult:
    """A type-one result for optimize_type_two, which reads only its band."""
    return OptimizationResult("one", band, 0.0, None, False, None)


def test_project_repairs_ordering():
    band = _project_one([3.0, 2.0, 1.0], 10.0, doshi=False)
    assert 0 <= band.y2 <= band.y3 < band.y1 < 10.0
    dosh = _project_one([-1.0, 12.0], 10.0, doshi=True)
    assert dosh.y2 == 0.0 and dosh.y3 == dosh.y2 and dosh.y1 < 10.0


def test_doshi_local_optimality(solve_cached, ex1):
    result = solve_cached("ex1", ex1)
    assert result.strategy_kind == "doshi"
    base = result.objective
    y2, y1 = result.band.y2, result.band.y1
    for dy2, dy1 in ((0.2, 0.0), (-0.2, 0.0), (0.0, 0.2), (0.0, -0.2)):
        p2 = min(max(y2 + dy2, 0.0), ex1.b - 0.01)
        p1 = min(max(y1 + dy1, p2 + 1e-6), ex1.b - 0.005)
        assert total_cost(ex1, BandOne(p2, p2, p1)).V0 >= base - 1e-9


def test_objective_reproducible_bitwise(solve_cached, ex1):
    result = solve_cached("ex1", ex1)
    band = result.band
    assert total_cost(ex1, band).V0 == result.objective


def test_type_one_collapses_on_example_one(ex1):
    doshi = optimize_doshi(ex1)
    one = optimize_type_one(ex1)
    assert one.objective <= doshi.objective + 1e-9
    assert abs(one.objective - doshi.objective) < 1e-6


def test_interior_gradient_small(ex3):
    # central differences of the objective at the type-one optimum
    res = optimize_type_one(ex3)
    y = np.array([res.band.y2, res.band.y3, res.band.y1])
    h = 1e-4

    def f(p):
        return total_cost(ex3, _project_one(p, ex3.b, doshi=False)).V0

    for i in range(3):
        e = np.zeros(3)
        e[i] = h
        grad = (f(y + e) - f(y - e)) / (2 * h)
        assert abs(grad) < 1e-3, f"component {i}: {grad}"


def _rosen(x):
    return float(100 * (x[1] - x[0] ** 2) ** 2 + (1 - x[0]) ** 2)


def _quad3(x):
    return float((x[0] - 1) ** 2 + 2 * (x[1] + 0.5) ** 2 + 3 * (x[2] - 2) ** 2
                 + x[0] * x[1] - 0.5 * x[1] * x[2])


def _cusp3(x):
    # nonsmooth at its minimum, so the simplex shrinks (first at calls 116-118)
    return float(np.sqrt(abs(x[0] - 1)) + np.sqrt(abs(x[1] + 0.5)) + np.sqrt(abs(x[2] - 2)))


def _plateaus(fn, step):
    # piecewise constant, so comparisons meet ties and their direction matters
    return lambda x: float(np.floor(fn(x) / step) * step)


# (objective, start, maxfev); the polish settings are xatol=1e-4, fatol=1e-8
NM_CASES = {
    "2d": (_rosen, (-1.2, 1.0), 800),
    "3d": (_quad3, (0.5, -0.2, 1.0), 800),
    "2d-plateaus": (_plateaus(_rosen, 0.25), (-1.2, 1.0), 800),
    "3d-plateaus": (_plateaus(_quad3, 0.125), (0.5, -0.2, 1.0), 800),
    "2d-plateaus-slope": (_plateaus(lambda x: -(x[0] + 2 * x[1]), 0.25), (2.0, 2.0), 800),
    "zero-coordinates": (_rosen, (0.0, 0.0), 800),
    "3d-zero-coordinate-shrinks": (_cusp3, (0.5, 0.0, 1.0), 800),
    # the 3rd vertex of the initial simplex would be call 3
    "cut-in-initial-simplex": (_rosen, (-1.2, 1.0), 2),
    # call 4 is the first reflection, call 5 its expansion
    "cut-in-expansion": (_rosen, (-1.2, 1.0), 4),
    # calls 116-118 shrink; the cut stops the run after the first of them
    "cut-in-shrink": (_cusp3, (0.5, 0.0, 1.0), 116),
}


@pytest.mark.parametrize("case", list(NM_CASES))
def test_nelder_mead_matches_scipy_bitwise(case):
    minimize = pytest.importorskip("scipy.optimize").minimize
    fn, x0, maxfev = NM_CASES[case]

    def recorder(calls):
        def f(x):
            calls.append(x.tobytes())
            val = fn(x)
            x[:] = np.nan  # harmless only if the minimizer hands out copies
            return val
        return f

    ours, theirs = [], []
    x = _nelder_mead(recorder(ours), np.array(x0), xatol=1e-4, fatol=1e-8, maxfev=maxfev)
    res = minimize(recorder(theirs), np.array(x0), method="Nelder-Mead",
                   options=dict(xatol=1e-4, fatol=1e-8, maxfev=maxfev))
    assert ours == theirs
    assert x.tobytes() == res.x.tobytes()
    if maxfev < 800:
        assert len(ours) == maxfev


def test_start_noise_is_the_seeded_generators_first_draws():
    # where the frozen numbers came from: numpy's Generator streams may change
    # between versions (NEP 19), so this test may fail on a later numpy
    # without any change to the starts
    want = np.random.default_rng(20240801).standard_normal(12)
    assert optimize._START_NOISE.tobytes() == want.tobytes()


def _generator_starts(winners, spacing: float) -> list:
    """The starts as _multistart drew them from numpy's seeded generator."""
    rng = np.random.default_rng(20240801)
    starts = [np.asarray(w, dtype=float) for w in winners[:1]]
    for w in winners[:4]:
        starts.append(np.asarray(w, dtype=float) + rng.normal(0.0, spacing / 2, len(w)))
    return starts


@pytest.mark.parametrize("doshi", [True, False], ids=["doshi", "one"])
@pytest.mark.parametrize("name", list(MODELS))
def test_multistart_matches_the_seeded_generator_bitwise(name, doshi):
    # 2- (Doshi) and 3-coordinate (type-one) winners at each config's lattice spacing
    cands, spacing = _lattice_of(name, doshi)
    winners = [point for _, point in sorted(cands, key=lambda t: t[0])]
    for count in range(1, 7):
        ours = _multistart(winners[:count], spacing)
        theirs = _generator_starts(winners[:count], spacing)
        assert [s.tobytes() for s in ours] == [s.tobytes() for s in theirs], count


def _polish_starts(stage, model) -> list:
    """The starts that stage (optimize_doshi or optimize_type_one) hands to the polish."""
    seen = []

    def capture(model, starts, doshi):
        seen.append(starts)
        return _project_one(starts[0], model.b, doshi), 0.0

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(optimize, "_polish", capture)
        stage(model)
    return seen[0]


def _one_cpu(monkeypatch):
    """Make the polish see one usable CPU, so it runs its starts in this process."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})


@pytest.mark.parametrize("name, stage, doshi", [("ex1", optimize_doshi, True),
                                                ("ex3", optimize_type_one, False)])
def test_polish_in_workers_equals_serial_bitwise(name, stage, doshi, monkeypatch):
    model = MODELS[name]()
    starts = _polish_starts(stage, model)
    if doshi:
        # ex1's lattice winner has y2 = 0: the zero-coordinate initial simplex
        assert starts[0][0] == 0.0
    forks = record_forks(monkeypatch)
    parallel = _polish(model, starts, doshi)
    workers = usable_workers(len(starts))
    made = workers if workers > 1 else 0
    assert len(forks) == made
    _one_cpu(monkeypatch)
    serial = _polish(model, starts, doshi)
    assert len(forks) == made
    assert repr(parallel) == repr(serial)


def test_polish_without_sched_getaffinity_runs_serially(monkeypatch):
    # macOS and Windows have no os.sched_getaffinity: the starts run in this process
    model = make_ex1()
    starts = _polish_starts(optimize_doshi, model)
    default = _polish(model, starts, True)
    forks = record_forks(monkeypatch)
    monkeypatch.delattr(os, "sched_getaffinity")
    assert usable_workers(len(starts)) == 1
    assert repr(_polish(model, starts, True)) == repr(default)
    assert forks == []


def test_polish_forks_no_workers_from_python_3_12(monkeypatch):
    # there os.fork warns in a multi-threaded process, and numpy's BLAS threads make one
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    assert usable_workers(5) == 4
    monkeypatch.setattr(sys, "version_info", (3, 12, 0))
    assert usable_workers(5) == 1


@pytest.mark.parametrize("cpus", ["default", "one"])
def test_polish_error_in_a_start_reaches_the_caller(cpus, monkeypatch, tmp_path):
    model = make_ex1()
    starts = _polish_starts(optimize_doshi, model)
    # the first point each start evaluates is its own projection
    failing = {_project_one(starts[k], model.b, True): k for k in (2, 4)}
    real_cost = optimize.total_cost

    def total_cost(model, band):
        if band in failing:
            raise FixedPointNotContractive(f"stub: start {failing[band]}")
        return real_cost(model, band)

    monkeypatch.setattr(optimize, "total_cost", total_cost)
    if cpus == "one":
        _one_cpu(monkeypatch)
    # start 2 fails first in start order, as a serial run meets it
    with pytest.raises(FixedPointNotContractive, match="start 2"):
        escalate(model)
    rc = main(["solve", str(CONFIGS / "ex1.json"), "--output", str(tmp_path / "s.json")])
    assert rc == EXIT_NUMERIC == 4


def test_no_feasible_point():
    m = make_ex1()
    tiny = ModelConfig(**{**m.__dict__, "b": 1e-7})
    with pytest.raises(NoFeasiblePoint):
        optimize_doshi(tiny)


def test_type_two_y4_verified_and_invariant(ex3):
    res = optimize_type_two(ex3, optimize_type_one(ex3))
    assert res.verified, res.report.summary()
    assert res.band.y1 < res.band.y4 < ex3.b
    # the objective never depended on y4
    assert res.objective == pytest.approx(
        total_cost(ex3, res.band.lower()).V0, abs=1e-12
    )


@lru_cache(maxsize=None)
def _lattice_of(name: str, doshi: bool):
    """_lattice of a config's Doshi or type-one class: ([(V0, point)], spacing)."""
    return _lattice(MODELS[name](), doshi)


@lru_cache(maxsize=None)
def _lattices(name: str):
    """(model, [(V0, band)]) over both lattices of a config, from the batched rows."""
    rows = [(v, BandOne(th[0], th[0], th[1])) for v, th in _lattice_of(name, True)[0]]
    rows += [(v, BandOne(*th)) for v, th in _lattice_of(name, False)[0]]
    return MODELS[name](), rows


@pytest.mark.parametrize("name", list(MODELS))
def test_lattice_values_finite_positive_and_bounded(name):
    model, rows = _lattices(name)
    assert len(rows) == 341 + 560
    values = np.array([v for v, _ in rows])
    assert np.all(np.isfinite(values))
    assert np.all(values > 0)
    assert np.all(values <= upper_cost_bound(model))


@pytest.mark.parametrize("name", list(MODELS))
def test_lattice_values_match_total_cost(name):
    model, rows = _lattices(name)
    for v, band in rows:
        ref = total_cost(model, band).V0
        assert abs(v - ref) <= 1e-12 * abs(ref), band


def _failed_report() -> VerificationReport:
    zeros = np.zeros(3)
    return VerificationReport(
        grid=np.linspace(0.0, 1.0, 3), residual_L1=zeros, residual_L2=zeros,
        switch_slack_12=zeros, switch_slack_21=zeros, L0_residual=0.0, boundary_1=0.0,
        boundary_2=0.0, tol=1e-3, scale=1.0, failures=["stub: rejected"],
    )


def _stub_verifier(monkeypatch):
    """Replace the verifier with one that fails every band.  Returns the list
    of (y4, report) per call."""
    calls = []

    def verify(model, surface, tol=None):
        report = _failed_report()
        calls.append((surface.band.y4, report))
        return report

    monkeypatch.setattr(optimize, "verify_strategy", verify)
    return calls


def test_type_two_scan_without_a_pass_returns_golden_section_band(ex3, monkeypatch):
    # a failed golden-section band is verified once and returned flagged; no
    # other y4 is tried
    calls = _stub_verifier(monkeypatch)
    res = optimize_type_two(ex3, _type_one_base(EX3_ONE))
    assert len(calls) == 1
    y4, report = calls[0]
    assert not res.verified
    assert res.report is report
    assert res.band.y4 == y4 and res.band.lower() == EX3_ONE
    assert res.surface.band == res.band
    assert res.objective == res.surface.V0


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1e-6])
def test_invalid_tolerance_raises_before_any_stage(tol, monkeypatch):
    # every stage checks tol before it searches, not when its verification
    # runs, so escalate and `bandctl solve` reject it before any work
    def unreachable(*args, **kwargs):
        raise AssertionError("a stage searched before the tolerance was checked")

    for name in ("_lattice", "_polish", "total_cost_two", "verify_strategy"):
        monkeypatch.setattr(optimize, name, unreachable)
    model = make_ex2()
    base = _type_one_base(BandOne(6.2, 9.8, 17.3))
    for run in (lambda: escalate(model, tol=tol), lambda: optimize_doshi(model, tol=tol),
                lambda: optimize_type_one(model, tol=tol),
                lambda: optimize_type_two(model, base, tol=tol)):
        with pytest.raises(ValidationError, match="verification needs a finite tol > 0"):
            run()


@pytest.mark.parametrize("name, stage", [("ex1", "doshi"), ("ex3", "one"), ("ex3", "two")])
def test_each_stage_returns_its_verification(name, stage):
    # ex1's Doshi winner verifies and ex3's type-one winner does not
    model = MODELS[name]()
    if stage == "two":
        res = optimize_type_two(model, _type_one_base(EX3_ONE))
    else:
        res = {"doshi": optimize_doshi, "one": optimize_type_one}[stage](model)
    assert res.strategy_kind == stage
    assert res.report.passed == res.verified == (stage != "one")
    assert res.report.tol == optimize.DEFAULT_TOL
    assert res.surface.band == res.band


def test_escalate_verifies_once_on_example_one(monkeypatch):
    calls = []
    real_verify = optimize.verify_strategy

    def verify(model, surface, tol):
        calls.append(surface.band)
        return real_verify(model, surface, tol=tol)

    monkeypatch.setattr(optimize, "verify_strategy", verify)
    res = escalate(make_ex1())
    assert res.strategy_kind == "doshi" and res.verified
    assert calls == [res.band]


@pytest.mark.parametrize("gap", [1e-6, 5e-4, 1e-3])
def test_type_two_with_y1_near_capacity(ex2, gap):
    # the y4 search keeps inside (y1, b) however close to b the polish puts y1
    base = _type_one_base(BandOne(6.2126, 9.8045, ex2.b - gap))
    res = optimize_type_two(ex2, base)
    assert isinstance(res, OptimizationResult)
    assert res.strategy_kind == "two" and res.band.lower() == base.band
    assert base.band.y1 < res.band.y4 < ex2.b


def test_escalate_logs_one_info_line_per_stage(caplog):
    # ex1 verifies at the Doshi stage, so the ladder logs that stage only
    with caplog.at_level(logging.INFO, logger="bandctl"):
        res = escalate(make_ex1())
    lines = [r.getMessage() for r in caplog.records if r.name == "bandctl.optimize"]
    assert lines == [f"stage doshi: V0 = {res.objective:.10g}, verified = True, "
                     "first failure: none"]
