import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from bandctl import BandOne, BandTwo, build_scale, passage, total_cost, total_cost_two, verify
from bandctl.errors import OutOfBand, QuadratureNotConverged, ValidationError
from bandctl.model import HoldingCost, ModelConfig, PenaltyCost, SwitchMatrix
from bandctl.verify import check_settings, operator_L, sorted_unique, verify_strategy
from ._oracles import convolution_cells, level_b_value
from .conftest import make_ex1, make_ex1_hyper, make_ex2, make_ex3

MODELS = {"ex1": make_ex1, "ex2": make_ex2, "ex3": make_ex3, "ex1-hyper": make_ex1_hyper}
with open(Path(__file__).resolve().parents[1] / "perfbench" / "reference"
          / "crosscheck-inputs.json") as fh:
    # the four cross-check base policies: (config, thresholds)
    BASE_POLICIES = [(p["config"], p["band"]) for p in json.load(fh)["policies"]]
with open(Path(__file__).resolve().parent / "data" / "verify-verdicts.json") as fh:
    # verdicts of the 44 reference bands and the escalate winners, recorded
    # from the cell-by-cell convolution that the Chebyshev panels replaced;
    # the L0 residuals and capacity gaps from the panels' level-b value
    VERDICTS = json.load(fh)
WINNERS = [(c["config"], c["thresholds"]) for c in VERDICTS if c["case"].startswith("escalate-")]


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


def test_operator_takes_the_exact_slope_of_the_scale_function():
    # W(x) = sum_j w_j e^{theta_j x} on [0, b], its slope sum_j w_j theta_j e^{theta_j x}
    for m in (make_ex1(), make_ex1_hyper(), make_ex3()):
        scale = build_scale(m, 1)
        xs = np.concatenate([[0.0], np.linspace(0.01, m.b, 57)])
        _, (slope,) = verify._convolution(m, lambda u: scale.W(u)[None], xs)
        want = (scale.weights * scale.exponents) @ np.exp(np.outer(scale.exponents, xs))
        assert np.max(np.abs(slope - want) / np.abs(want)) <= 1e-9


def test_operator_takes_each_sides_slope_of_a_jump():
    # w jumps at the listed breakpoint 2.345; left of it (and at it) the slope
    # is the left piece's, right of it the right piece's
    m = make_ex1_hyper()
    w = lambda x: np.where(x <= 2.345, np.exp(0.3 * x), 3.0 + x ** 2)
    left = np.array([0.0, 1.0, 2.345 - 1e-9, 2.345])
    right = np.array([2.345 + 1e-9, 4.0, m.b])
    _, (slope,) = verify._convolution(m, lambda u: w(u)[None], np.concatenate([left, right]),
                                      breakpoints=(2.345,))
    want = np.concatenate([0.3 * np.exp(0.3 * left), 2.0 * right])
    assert np.max(np.abs(slope - want) / np.abs(want)) <= 1e-9


def test_operator_L_rejects_a_point_outside_the_band():
    # the panels cover [0, b], so they give no slope below 0 or above b
    m = make_ex1()
    w = lambda x: np.exp(np.asarray(x, dtype=float))
    for x in (-0.5, m.b + 1e-9, float("nan")):
        with pytest.raises(OutOfBand, match=r"outside \[0, b\]"):
            operator_L(m, 1, w, np.array([1.0, x]))


@pytest.mark.parametrize("phase", [0, 3, True, 1.0])
def test_operator_L_rejects_a_phase_that_is_not_1_or_2(phase):
    # 0 and 3 once gave phase 2's residuals, True phase 1's
    m = make_ex1()
    with pytest.raises(ValidationError, match="phase must be the integer 1 or 2"):
        operator_L(m, phase, lambda x: np.exp(np.asarray(x, dtype=float)), np.array([1.0]))


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
    assert abs((trivial.q + trivial.lam) * (level_b_value(trivial, surf) - surf.V0)) < 1e-8
    assert abs(surf.V0) < 1e-7  # only the 1e-9 switching charges remain


def test_operator_L0_strategy_selection_vanishes():
    # the fixed-point identity holds for any band, optimal or not
    for m, band in (
        (make_ex1(), BandOne(2.4, 3.3, 6.1)),
        (make_ex3(), BandOne(1.0, 2.0, 5.5)),
    ):
        surf = total_cost(m, band)
        res = (m.q + m.lam) * (level_b_value(m, surf, selection="strategy") - surf.V0)
        assert abs(res) < 5e-4 * max(1.0, abs(surf.V0))


def test_operator_L0_computed_surfaces():
    for m, band in ((make_ex1(), BandOne(0.0, 0.0, 3.3743)),
                    (make_ex2(), BandOne(6.213, 9.805, 17.294))):
        surf = total_cost(m, band)
        res = (m.q + m.lam) * (level_b_value(m, surf) - surf.V0)
        assert abs(res) < 5e-4 * max(1.0, abs(surf.V0))


def test_verify_passes_example_one_optimum():
    m = make_ex1()
    rep = verify_strategy(m, total_cost(m, BandOne(0.0, 0.0, 3.3743)))
    assert rep.passed, rep.summary()


def test_verify_rejects_a_surface_of_another_model():
    # ex1's optimum checked against ex3's model once reported a failed HJB
    # inequality instead of the mismatch
    surf = total_cost(make_ex1(), BandOne(0.0, 0.0, 3.3743))
    with pytest.raises(ValidationError, match="the model the surface was built on"):
        verify_strategy(make_ex3(), surf)
    assert verify_strategy(make_ex1(), surf).passed  # an equal model is the same model


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


@pytest.mark.parametrize("y3, fails", [(4.5, True), (3.114, False)])
def test_verify_reports_a_restart_selection_that_is_not_optimal(y3, fails):
    # past the crossover y3 = 3.114 a restart into phase 1 costs more than one
    # into phase 2 (L0 residual -2.29e-4 against tol x scale = 1.14e-4); at it,
    # the two restarts cost the same
    m = make_ex3()
    rep = verify_strategy(m, total_cost(m, BandOne(2.468, y3, 4.61)), tol=1e-5)
    message = f"L0 residual {rep.L0_residual:.6g} (restart selection not optimal)"
    assert [f for f in rep.failures if f.startswith("L0 residual")] == ([message] if fails else [])
    assert (abs(rep.L0_residual) > rep.tol * rep.scale) == fails


class _Shifted:
    """A surface whose V and V0 are those of surface plus the constant c."""

    def __init__(self, surface, c: float):
        self.surface, self.c = surface, c
        self.model, self.band, self.thresholds = surface.model, surface.band, surface.thresholds
        self.V0 = surface.V0 + c

    def V(self, phase, x, side=0):
        return self.surface.V(phase, x, side) + self.c


@pytest.mark.parametrize("c", [-1.0, 1.0])
def test_verify_reports_a_shifted_surface(c):
    # w + c moves every L by -q c and leaves the switch slacks as they are, so
    # c < 0 leaves the HJB minimum positive off the switching zones; c > 0
    # moves the capacity gap w2(b-) - w0 - K20 from 0 to q c / (q + lam)
    m = make_ex1()
    surf = total_cost(m, BandOne(0.0, 0.0, 3.3743))  # the verified optimum
    base = verify_strategy(m, surf)
    rep = verify_strategy(m, _Shifted(surf, c))
    assert rep.residual_L1 == pytest.approx(base.residual_L1 - m.q * c, abs=1e-8)
    assert rep.residual_L2 == pytest.approx(base.residual_L2 - m.q * c, abs=1e-8)
    assert rep.boundary_2 == pytest.approx(base.boundary_2 + m.q * c / (m.q + m.lam), abs=1e-12)
    not_tight = [f for f in rep.failures if "HJB minimum not tight" in f]
    capacity = [f for f in rep.failures if f.startswith("capacity condition phase 2")]
    if c < 0:
        assert [f.split(" at x = ")[0] for f in not_tight] == [
            f"phase {phase}: HJB minimum not tight: {np.max(rep.hjb(phase)):.6g}" for phase in (1, 2)]
        assert capacity == []
    else:
        assert not_tight == []
        assert capacity == ["capacity condition phase 2: w2(b-) - w0 - K20 = 0.047619 > 0"]


@pytest.mark.parametrize("phase", [0, 3, True])
def test_hjb_rejects_a_phase_that_is_not_1_or_2(phase):
    m = make_ex1()
    rep = verify_strategy(m, total_cost(m, BandOne(0.0, 0.0, 3.3743)))
    with pytest.raises(ValidationError, match="phase must be the integer 1 or 2"):
        rep.hjb(phase)


def test_verdict_deterministic():
    m = make_ex3()
    surf = total_cost_two(m, BandTwo(2.468, 3.114, 4.610, 7.660))
    r1 = verify_strategy(m, surf)
    r2 = verify_strategy(m, surf)
    assert r1.passed == r2.passed
    assert np.array_equal(r1.residual_L1, r2.residual_L1)
    assert r1.L0_residual == r2.L0_residual


def test_grid_avoids_thresholds():
    # each zone between neighbouring thresholds (and 0 and b) holds its
    # max(2, ceil(n width / b)) Chebyshev points of the first kind, strictly
    # inside; the zone (y3, y1) is 5e-7 wide
    m = make_ex3()
    surf = total_cost_two(m, BandTwo(2.468, 3.114, 3.114 + 5e-7, 7.660))
    ends = [0.0, 2.468, 3.114, 3.114 + 5e-7, 7.660, m.b]
    for grid_points in (1, 400):
        grid = verify_strategy(m, surf, grid_points=grid_points).grid
        start = 0
        for a, c in zip(ends[:-1], ends[1:]):
            n = max(2, int(np.ceil(grid_points * (c - a) / m.b)))
            zone = grid[start:start + n]
            want = np.sort(0.5 * (a + c) + 0.5 * (c - a) * np.cos(np.pi * (np.arange(n) + 0.5) / n))
            assert np.max(np.abs(zone - want)) <= 1e-15 * m.b
            assert np.all((a < zone) & (zone < c))
            start += n
        assert start == len(grid)


def test_level_b_value_matches_assembly_for_optimal_selection():
    m = make_ex3()
    band = BandOne(2.468, 3.114, 4.610)
    surf = total_cost(m, band)
    # y3 at the crossover: min-selection and strategy selection coincide
    assert level_b_value(m, surf, selection="min") == pytest.approx(
        level_b_value(m, surf, selection="strategy"), abs=1e-6
    )


def test_each_phase_evaluated_once_on_the_grid(monkeypatch):
    # the w(x) term of L, both switch slacks and the scale all reuse one
    # evaluation of each phase on the grid
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


@pytest.mark.parametrize("grid_points", [2.5, np.float64(400.0), float("inf"), True],
                         ids=["float", "numpy-float", "inf", "bool"])
def test_verify_rejects_a_grid_that_is_not_an_integer(grid_points):
    # True would run a one-point base grid, the floats numpy's bare TypeError
    surf = total_cost(make_ex1(), BandOne(1.526, 1.526, 5.077))
    with pytest.raises(ValidationError, match="integer grid_points >= 1"):
        verify_strategy(make_ex1(), surf, grid_points=grid_points)


def test_verify_accepts_numpy_integer_grids():
    check_settings(5e-4, np.int64(400))
    check_settings(5e-4, np.int32(1))


def test_sorted_unique_matches_np_unique_bitwise():
    rng = np.random.default_rng(7)
    base = np.round(rng.uniform(-3.0, 3.0, 500), 1)
    for a in (base, np.concatenate([base, [0.0, -0.0, 1e-300]]), np.array([2.5]), np.array([])):
        ours, ref = sorted_unique(a), np.unique(a)
        assert ours.tobytes() == ref.tobytes() and ours.dtype == ref.dtype


def _base_surface(config: str, thresholds):
    model = MODELS[config]()
    band = BandTwo(*thresholds) if len(thresholds) == 4 else BandOne(*thresholds)
    return model, (total_cost_two if len(thresholds) == 4 else total_cost)(model, band)


@pytest.mark.parametrize("config, thresholds", BASE_POLICIES,
                         ids=[c for c, _ in BASE_POLICIES])
def test_verify_in_row_blocks_equals_one_call_bitwise(config, thresholds, monkeypatch):
    # the resolvent transforms nested in the demand convolutions run in row
    # blocks; with the block covering every row each level is one call
    model, surface = _base_surface(config, thresholds)
    blocked = verify_strategy(model, surface)
    monkeypatch.setattr(passage, "_BLOCK_VALUES", 1 << 62)
    ref = verify_strategy(model, surface)
    for name in ("residual_L1", "residual_L2", "switch_slack_12", "switch_slack_21", "grid"):
        assert np.array_equal(getattr(blocked, name), getattr(ref, name)), name
    for name in ("L0_residual", "boundary_1", "boundary_2", "scale", "failures"):
        assert getattr(blocked, name) == getattr(ref, name), name


@pytest.mark.parametrize("config, thresholds", BASE_POLICIES + WINNERS,
                         ids=[f"{c}-base" for c, _ in BASE_POLICIES]
                         + [f"escalate-{c}" for c, _ in WINNERS])
def test_convolution_panels_match_the_cells(config, thresholds):
    # the Chebyshev panels and the old cell-by-cell Gauss-Legendre quadrature
    # integrate the same convolution; they agree to round-off of the scale
    model, surface = _base_surface(config, thresholds)
    rep = verify_strategy(model, surface)
    for phase in (1, 2):
        w = lambda x: surface.V(phase, x)
        (panels,), _ = verify._convolution(model, lambda u: w(u)[None], rep.grid,
                                           surface.thresholds)
        cells = convolution_cells(model, w, rep.grid, surface.thresholds)
        assert np.max(np.abs(panels - cells)) <= 1e-12 * rep.scale


@pytest.mark.parametrize("config, thresholds", BASE_POLICIES + WINNERS,
                         ids=[f"{c}-base" for c, _ in BASE_POLICIES]
                         + [f"escalate-{c}" for c, _ in WINNERS])
def test_convolution_rows_match_one_row_calls(config, thresholds):
    # the rows of one call share their panels and levels; each agrees with a
    # call on that row alone
    model, surface = _base_surface(config, thresholds)
    k = model.switching
    rep = verify_strategy(model, surface)
    xs = np.append(rep.grid, model.b)
    cuts = tuple(surface.thresholds) + tuple(verify._min_crossovers(surface))
    row_fns = [lambda u: surface.V(1, u), lambda u: surface.V(2, u),
               lambda u: np.minimum(k.k01 + surface.V(1, u), k.k02 + surface.V(2, u))]
    conv, deriv = verify._convolution(model, lambda u: np.stack([f(u) for f in row_fns]), xs, cuts)
    for i, f in enumerate(row_fns):
        (one_conv,), (one_deriv,) = verify._convolution(model, lambda u: f(u)[None], xs, cuts)
        assert np.max(np.abs(conv[i] - one_conv)) <= 1e-12 * rep.scale, i
        assert np.max(np.abs(deriv[i] - one_deriv)) <= 1e-12 * rep.scale, i


def test_convolution_panels_match_the_cells_on_a_steep_surface():
    m = make_ex1()
    xs = np.linspace(0.01, 0.02, 21)
    w = lambda x: np.exp(-300.0 * np.asarray(x, dtype=float))
    (panels,), _ = verify._convolution(m, lambda u: w(u)[None], xs)
    assert np.max(np.abs(panels - convolution_cells(m, w, xs))) <= 1e-12


def test_convolution_needs_the_jumps_as_breakpoints():
    # a jump inside a panel keeps the Chebyshev levels apart up to 1024
    # nodes; cut at it, the panels are exact again
    m = make_ex1_hyper()
    xs = np.linspace(0.5, 6.0, 40)
    w = lambda x: np.where(np.asarray(x) < 2.345, 1.0, 3.0)
    with pytest.raises(QuadratureNotConverged):
        operator_L(m, 1, w, xs)
    (panels,), _ = verify._convolution(m, lambda u: w(u)[None], xs, breakpoints=(2.345,))
    cells = convolution_cells(m, w, xs, breakpoints=(2.345,))
    assert np.max(np.abs(panels - cells)) <= 1e-12 * 3.0


def test_verdicts_match_the_recorded_ones():
    # every verdict, failure count, L0 residual, capacity gap and scale, bit for bit
    for case in VERDICTS:
        model, surface = _base_surface(case["config"], case["thresholds"])
        rep = verify_strategy(model, surface)
        got = {"passed": rep.passed, "failures": len(rep.failures),
               **{name: getattr(rep, name)
                  for name in ("L0_residual", "boundary_1", "boundary_2", "scale")}}
        assert got == {k: case[k] for k in got}, case["case"]


def test_level_b_value_matches_the_cell_oracle():
    # the report's L0 residual is (q + lam) (w0 - V0) with w0 the oracle's
    # min-selection level-b value, integrated by cells cut at crossovers of
    # its own; the strategy selection is the band's own restart, whose value is V0
    for case in VERDICTS:
        m, s = _base_surface(case["config"], case["thresholds"])
        tol = 1e-12 * case["scale"]
        want = (m.q + m.lam) * (level_b_value(m, s) - s.V0)
        assert abs(verify_strategy(m, s).L0_residual - want) <= tol, case["case"]
        assert abs(level_b_value(m, s, selection="strategy") - s.V0) <= tol, case["case"]


def test_min_crossovers_are_roots():
    # each crossover is a root of g = (K01 + V1) - (K02 + V2) to 1e-9 x scale
    roots = 0
    for case in VERDICTS:
        m, s = _base_surface(case["config"], case["thresholds"])
        for r in verify._min_crossovers(s):
            gap = np.subtract(*verify._restart_values(s, np.array([r])))[0]
            assert abs(gap) <= 1e-9 * case["scale"], (case["case"], r, gap)
            roots += 1
    assert roots == 24


def test_min_crossovers_only_where_the_zone_table_allows_them():
    # the restart values differ by a constant on [0, y2] and on phase 1's
    # switching zone [y1, y4] ([y1, b] for type one), so no crossover lies there
    for case in VERDICTS:
        m, s = _base_surface(case["config"], case["thresholds"])
        y2, y1 = s.band.y2, s.band.y1
        y4 = getattr(s.band, "y4", m.b)
        for r in verify._min_crossovers(s):
            assert not (0.0 <= r <= y2 or y1 <= r <= y4), (case["case"], r)


@pytest.mark.parametrize("config, thresholds, limit_mib", [
    ("ex1-hyper", (1.0, 1.5, 4.0), 4.0),
    ("ex1", (0.0, 0.0, 3.3743305488598034), 2.0),  # the optimum
], ids=["ex1-hyper", "ex1"])
def test_verify_traced_peak_memory(config, thresholds, limit_mib):
    # the convolution panels evaluate the surface at a few hundred nodes per
    # level, and the resolvent transforms nested in it run in row blocks:
    # the peaks are 1.2 and 0.8 MiB (8.6 and 3.7 with a quadrature per grid
    # cell, 28.9 and 22.7 with no row blocks either)
    model, surface = _base_surface(config, thresholds)
    verify_strategy(model, surface)  # warm the caches outside the trace
    tracemalloc.start()
    try:
        verify_strategy(model, surface)
        peak = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert peak < limit_mib
