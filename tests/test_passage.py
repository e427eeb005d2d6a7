import re

import mpmath
import numpy as np
import pytest

from bandctl import BandOne, build_scale, passage
from bandctl.cost_one import TypeOneAssembly
from bandctl.errors import OutOfBand, QuadratureNotConverged
from bandctl.model import ModelConfig
from bandctl.passage import ExitContext, Omega2, _gl_nodes, integrate, integrate_rows
from bandctl.scale import ExpConvolution
from ._oracles import (
    MpScale,
    estimate_occupation,
    mc_reflected,
    mc_two_sided,
    potential_density,
    resolvent_transform_rows,
    simpson_adaptive,
)
from .conftest import make_ex1, make_ex1_hyper, make_ex3


def _quad(f, a: float, b: float, kink: float) -> float:
    """Oracle integral of a scalar f over [a, b] by scipy's adaptive
    Gauss-Kronrod rule, split at kink when it lies inside (a, b)."""
    quad = pytest.importorskip("scipy.integrate").quad
    points = (kink,) if a < kink < b else None
    return quad(f, a, b, points=points, epsabs=1e-13, epsrel=1e-12, limit=200)[0]


@pytest.fixture(scope="module")
def ex3_ctx():
    m = make_ex3()
    return m, ExitContext(build_scale(m, 2), a=2.468, d=10.0)


@pytest.mark.parametrize("build, message", [
    (lambda s1, s2: ExitContext(s2, 10.0, 10.0), "need a < d, got [10.0, 10.0]"),
    (lambda s1, s2: ExitContext(s2, 5.0, 2.0), "need a < d, got [5.0, 2.0]"),
    (lambda s1, s2: Omega2(s1, ExitContext(s2, -0.5, 10.0)),
     "need 0 <= y2 < b, got y2=-0.5, b=10.0"),
], ids=["exit-empty", "exit-reversed", "omega2-negative-y2"])
def test_out_of_band_construction(build, message):
    m = make_ex3()
    with pytest.raises(OutOfBand, match=f"^{re.escape(message)}$") as exc:
        build(build_scale(m, 1), build_scale(m, 2))
    assert exc.type is OutOfBand


def test_up_crossing_endpoints(ex3_ctx):
    m, ctx = ex3_ctx
    assert ctx.exits(ctx.d, m.h2)[0] == pytest.approx(1.0)
    s = ctx.scale
    assert ctx.exits(ctx.a, m.h2)[0] == pytest.approx(s.W(0.0) / s.W(ctx.d - ctx.a))


def test_exit_down_endpoints(ex3_ctx):
    m, ctx = ex3_ctx
    assert ctx.exits(ctx.d, m.h2)[1] == pytest.approx(0.0, abs=1e-12)
    s = ctx.scale
    span = ctx.d - ctx.a
    assert ctx.exits(ctx.a, m.h2)[1] == pytest.approx(
        1.0 - s.W(0.0) * s.Z(span) / s.W(span)
    )


def test_two_sided_factors_against_mc(ex3_ctx):
    m, ctx = ex3_ctx
    mc = mc_two_sided(m, 2, ctx.a, ctx.d, 5.0, 100_000, seed=101)
    up_mean, up_se = mc["up"]
    dn_mean, dn_se = mc["down"]
    up, down, _ = ctx.exits(5.0, m.h2)
    assert abs(up - up_mean) < 3 * up_se
    assert abs(down - dn_mean) < 3 * dn_se


def test_potential_density_endpoints(ex3_ctx):
    m, ctx = ex3_ctx
    s = ctx.scale
    y = 4.0
    assert potential_density(ctx, ctx.a, y) == pytest.approx(
        s.W(0.0) * s.W(ctx.d - y) / s.W(ctx.d - ctx.a)
    )
    # y just below d: second term vanishes once y > x
    x = 5.0
    val = potential_density(ctx, x, ctx.d - 1e-9)
    assert val == pytest.approx(s.W(x - ctx.a) * s.W(0.0) / s.W(ctx.d - ctx.a), rel=1e-5)
    with pytest.raises(OutOfBand):
        potential_density(ctx, x, ctx.d + 0.1)


def test_potential_density_nonnegative_and_occupation_identity(ex3_ctx):
    m, ctx = ex3_ctx
    x = 5.0
    ys = np.linspace(ctx.a + 1e-6, ctx.d - 1e-6, 300)
    dens = potential_density(ctx, x, ys)
    assert np.all(dens >= -1e-12)
    mass = _quad(lambda y: potential_density(ctx, x, y), ctx.a + 1e-12, ctx.d - 1e-12, x)
    up, down, _ = ctx.exits(x, m.h2)
    expected = (1.0 - up - down) / m.q
    assert mass == pytest.approx(expected, abs=1e-8)


def test_up_plus_down_below_one(ex3_ctx):
    m, ctx = ex3_ctx
    xs = np.linspace(ctx.a, ctx.d, 50)
    up, down, _ = ctx.exits(xs, m.h2)
    tot = up + down
    assert np.all(tot <= 1.0 + 1e-12)


def test_occupation_histogram_matches_density(ex3_ctx):
    m, ctx = ex3_ctx
    occ = estimate_occupation(m, 2, ctx.a, ctx.d, 5.0, 100_000, bins=25, base_seed=33)
    for i in range(len(occ.mean)):
        lo, hi = occ.edges[i], occ.edges[i + 1]
        exact = _quad(lambda y: potential_density(ctx, 5.0, y),
                      max(lo, ctx.a + 1e-12), min(hi, ctx.d - 1e-12), 5.0)
        assert abs(exact - occ.mean[i]) < 3 * occ.std_error[i] + 1e-4, \
            f"bin {i} [{lo:.2f},{hi:.2f})"
    # total mass identity within Monte Carlo error
    up, down, _ = ctx.exits(5.0, m.h2)
    expected = (1.0 - up - down) / m.q
    assert abs(occ.total - expected) < 3 * occ.total_std_error


@pytest.mark.parametrize("make, a", [(make_ex3, 2.468), (make_ex1_hyper, 1.0)],
                         ids=["ex3", "ex1-hyper"])
def test_resolvent_transform_against_simpson(make, a):
    # int_a^d u(x, z) exp(-mu_k z) dz by adaptive Simpson on the density,
    # split at its jump z = x, for every demand component k; the Simpson
    # oracle stops at about 1e-11 absolute error, hence the abs tolerance
    m = make()
    ctx = ExitContext(build_scale(m, 2), a=a, d=m.b)
    xs = np.array([a, 0.5 * (a + m.b), m.b - 0.5])
    got = ctx.resolvent_transform(xs, ctx.exits(xs, m.h2)[0])
    assert got.shape == (len(m.demand.rates), len(xs))
    eps = 1e-12
    for k, mu in enumerate(m.demand.rates):
        for i, x in enumerate(xs):
            f = lambda z: potential_density(ctx, x, z) * np.exp(-mu * z)
            ref = simpson_adaptive(f, a + eps, x) + simpson_adaptive(f, x + eps, ctx.d - eps)
            assert got[k, i] == pytest.approx(ref, rel=1e-8, abs=1e-10), (k, x)


@pytest.mark.parametrize("make, a", [(make_ex3, 2.468), (make_ex1_hyper, 1.0)],
                         ids=["ex3", "ex1-hyper"])
def test_resolvent_transform_equals_the_per_component_rows_bitwise(make, a):
    # W(x - z) is evaluated once per node and shared across the demand
    # components; the reference evaluates it once per component
    m = make()
    ctx = ExitContext(build_scale(m, 2), a=a, d=m.b)
    rng = np.random.default_rng(16)
    for xs in (np.linspace(0.0, m.b, 41), rng.uniform(0.0, m.b, (6, 9))):
        ref = resolvent_transform_rows(ctx, xs)
        assert ref.shape == (len(m.demand.rates),) + xs.shape
        assert np.array_equal(ctx.resolvent_transform(xs, ctx.exits(xs, m.h2)[0]), ref)


@pytest.mark.parametrize("make, a", [(make_ex3, 2.468), (make_ex1_hyper, 1.0)],
                         ids=["ex3", "ex1-hyper"])
def test_resolvent_transform_in_row_blocks_equals_one_call_bitwise(make, a, monkeypatch):
    # each input spans several row blocks at the first level: 1-D rows (some
    # at or below a), a trailing row axis, and two trailing row axes; the
    # reference has the block cover every row, so each level is one call
    m = make()
    ctx = ExitContext(build_scale(m, 2), a=a, d=m.b)
    rng = np.random.default_rng(18)
    inputs = [np.concatenate([[0.0, a], np.linspace(0.0, m.b, 1235)]),
              rng.uniform(0.0, m.b, (600, 9)), rng.uniform(0.0, m.b, (3, 200, 48))]
    blocked = []
    for xs in inputs:
        assert passage._block_rows(xs.shape, passage.GL_START) < len(xs)
        blocked.append(ctx.resolvent_transform(xs, ctx.exits(xs, m.h2)[0]))
    monkeypatch.setattr(passage, "_BLOCK_VALUES", 1 << 62)
    for xs, got in zip(inputs, blocked):
        assert passage._block_rows(xs.shape, passage.GL_START) >= len(xs)
        ref = ctx.resolvent_transform(xs, ctx.exits(xs, m.h2)[0])
        assert ref.shape == (len(m.demand.rates),) + xs.shape
        assert np.array_equal(got, ref)


def test_resolvent_transform_below_the_band_is_the_exit_term():
    # every x <= a: integrate_rows does not call its integrand and returns
    # zeros of shape x.shape, which broadcast against the (k, n) exit term
    m = make_ex1_hyper()
    ctx = ExitContext(build_scale(m, 2), a=1.0, d=m.b)
    xs = np.array([0.0, 0.4, 1.0])
    up = ctx.exits(xs, m.h2)[0]
    got = ctx.resolvent_transform(xs, up)
    assert got.shape == (3, 3)
    assert np.array_equal(got, ctx._B[:, None] * up)
    assert np.array_equal(got, resolvent_transform_rows(ctx, xs))


def test_reflected_factors_basic():
    # the reflected up-crossing factor kappa(x) = Z1(x)/Z1(y1) scales phase
    # 1's one slope row: it is 1 at y1 and 1/Z1(y1) at the floor
    m = make_ex1()
    asm = TypeOneAssembly(m, BandOne(1.526, 1.526, 5.077))
    alpha = asm.phase1(np.array([5.077, 0.0]))[0]
    kappa = np.array([1.0, 1.0 / asm.Z1y1])
    assert alpha == pytest.approx(kappa * asm.alpha2_y1, rel=1e-12)


@pytest.mark.parametrize("make, band", [
    (make_ex1, (0.0, 0.0, 3.37)), (make_ex1, (1.0, 1.0, 3.37)),
    (make_ex3, (2.47, 3.11, 4.61)), (make_ex1_hyper, (1.0, 1.5, 4.0)),
], ids=["ex1-doshi-0", "ex1-doshi-1", "ex3", "ex1-hyper"])
def test_phase_two_slope_is_the_shortage_renewal_route(make, band):
    # the one phase-2 slope row (the discount to level b, through Omega(Z1))
    # against the route through the shortage renewal factor
    #   g(x) = lam / Z1(y1) sum_k w_k (1 + mu_k int_0^{y2} Z1(u) e^{mu_k u} du) G_k(x),
    # G the killed-resolvent transform: up + up(y1) g / (1 - g(y1))
    m = make()
    asm = TypeOneAssembly(m, BandOne(*band))
    y2, y1 = band[0], band[2]
    s1, ctx = build_scale(m, 1), ExitContext(build_scale(m, 2), a=y2, d=m.b)
    coef = [w * (1.0 + mu * simpson_adaptive(lambda u: float(s1.Z(u)) * np.exp(mu * u), 0.0, y2))
            for w, mu in zip(m.demand.weights, m.demand.rates)]
    xs = np.linspace(y2, m.b, 41)[1:-1]
    G = resolvent_transform_rows(ctx, np.append(xs, y1))
    g, g_y1 = np.split(m.lam / s1.Z(y1) * (np.array(coef) @ G), [-1])
    up, up_y1 = ctx.exits(xs, m.h2)[0], ctx.exits(y1, m.h2)[0]
    assert asm.phase2(xs)[0] == pytest.approx(up + up_y1 * g / (1.0 - g_y1), rel=1e-12)


def test_reflected_factors_against_mc():
    m = make_ex1()
    s1 = build_scale(m, 1)
    y1 = 5.077
    mc = mc_reflected(m, 1, y1, 2.0, 100_000, seed=55)
    k_mean, k_se = mc["kappa"]
    assert abs(s1.Z(2.0) / s1.Z(y1) - k_mean) < 3 * k_se


def test_omega2_equal_rates_drops_correction():
    # production rates equal only to exercise the generator-difference term
    m = make_ex1()
    hypo = ModelConfig(**{**m.__dict__, "sigma1": 2.0, "sigma2": 2.0})
    s1 = build_scale(hypo, 1)
    s2 = build_scale(hypo, 2)
    ctx = ExitContext(s2, a=1.0, d=hypo.b)
    op = Omega2(s1, ctx)
    xs = np.linspace(1.0, hypo.b, 9)
    up = ctx.exits(xs, hypo.h2)[0]
    reduced = s1.Z(xs) - up * s1.Z(hypo.b)
    assert op.apply(xs, up)[0] == pytest.approx(reduced, abs=1e-12)
    # the Z1 source vanishes, so its tail and constant are exact zeros, and
    # the Wbarbar1 tail is int_{y2}^x z W2(x - z) dz alone
    assert s2.sigma - s1.sigma == 0.0
    tail_z, tail_w = op._tails(xs)
    assert np.all(tail_z == 0.0) and op._const_z == 0.0
    for x, val in zip(xs[1:], tail_w[1:]):
        ref = simpson_adaptive(lambda z: z * s2.W(x - z), 1.0, x)
        assert val == pytest.approx(ref, rel=1e-10)


def test_omega2_vanishes_at_capacity():
    m = make_ex3()
    ctx = ExitContext(build_scale(m, 2), a=2.468, d=m.b)
    s1 = build_scale(m, 1)
    op = Omega2(s1, ctx)
    om_z, om_w = op.apply(m.b, ctx.exits(m.b, m.h2)[0])
    assert om_z == pytest.approx(0.0, abs=1e-9)
    assert om_w == pytest.approx(0.0, abs=1e-9)


def test_omega2_range_invariant():
    m = make_ex3()
    ctx = ExitContext(build_scale(m, 2), a=2.468, d=m.b)
    s1 = build_scale(m, 1)
    xs = np.linspace(ctx.a, ctx.d, 40)
    vals = Omega2(s1, ctx).apply(xs, ctx.exits(xs, m.h2)[0])[0]
    assert np.all(vals >= -1e-10)
    assert np.all(vals <= s1.Z(m.b) + 1e-10)


def test_omega2_against_mc(ex3_ctx):
    m, ctx = ex3_ctx
    s1 = build_scale(m, 1)
    mc = mc_two_sided(m, 2, ctx.a, ctx.d, 5.0, 100_000, seed=77,
                      payoff=lambda v: s1.Z(v))
    mean, se = mc["payoff"]
    assert abs(Omega2(s1, ctx).apply(5.0, ctx.exits(5.0, m.h2)[0])[0] - mean) < 3 * se


def test_omega2_matches_jump_decomposition(ex3_ctx):
    # Omega(g)(x) must agree with the resolvent-density x demand-density
    # double integral, an independent route through the same payoff.
    m, ctx = ex3_ctx
    s1 = build_scale(m, 1)
    y2, b = ctx.a, ctx.d
    lam = m.lam

    def rhs(x, g):
        def outer(z):
            tail = _quad(lambda v: g(z - v) * m.demand.pdf(v), z - y2, z + 60.0, z)
            return lam * tail * potential_density(ctx, x, z)

        return _quad(outer, y2 + 1e-12, b - 1e-12, x)

    x = 5.0
    om_z, om_w = Omega2(s1, ctx).apply(x, ctx.exits(x, m.h2)[0])
    assert om_z == pytest.approx(rhs(x, s1.Z), abs=1e-7)
    assert om_w == pytest.approx(rhs(x, s1.Wbarbar), abs=1e-7)


@pytest.mark.parametrize("make, y2", [(make_ex1, 1.526), (make_ex3, 2.468),
                                      (make_ex1_hyper, 1.0)],
                         ids=["ex1", "ex3", "ex1-hyper"])
def test_omega2_tails_against_mpmath(make, y2):
    # the closed-form tails int_{y2}^x (G2-q)g(z) W2(x-z) dz, and the
    # constants (the tails at b), against 40-digit quadrature of the same
    # integrands built from 40-digit scale functions
    m = make()
    op = Omega2(build_scale(m, 1), ExitContext(build_scale(m, 2), a=y2, d=m.b))
    xs = np.array([0.5 * (y2 + m.b), m.b - 0.5])
    got = dict(zip(("Z1", "W"), op._tails(xs)))
    consts = {"Z1": op._const_z, "W": op._const_w}
    with mpmath.workdps(40):
        mp1, mp2 = MpScale(m, 1), MpScale(m, 2)
        dsig = mp2.sigma - mp1.sigma
        sources = {"Z1": lambda z: dsig * mp1.q * mp1.W(z),
                   "W": lambda z: z + dsig * mp1.Wbar(z)}
        for kind, src in sources.items():
            def tail(x):
                x = mpmath.mpf(x)
                return float(mpmath.quad(lambda z: src(z) * mp2.W(x - z), [y2, x]))

            for x, val in zip(xs, got[kind]):
                ref = tail(x)
                assert abs(val - ref) <= 1e-12 * abs(ref), (kind, x, val, ref)
            ref = tail(m.b)
            assert abs(consts[kind] - ref) <= 1e-12 * abs(ref), (kind, consts[kind], ref)


@pytest.mark.parametrize("rule, message", [
    (lambda f: integrate(f, 0.0, 1.0), r"integrate on \[0\.0, 1\.0\] did not reach 1e-09"),
    (lambda f: integrate_rows(lambda z, rows: f(z), 0.0, 1.0),
     "row-wise quadrature did not converge"),
], ids=["integrate", "integrate_rows"])
def test_quadrature_not_converged(rule, message):
    # sin(1e5 z) oscillates far faster than 1024 nodes on [0, 1] resolve
    with pytest.raises(QuadratureNotConverged, match=message):
        rule(lambda z: np.sin(1e5 * z))


def _counting(f, counts: list):
    """f, appending the node count of each call to counts."""
    def counted(z, *rows):
        counts.append(np.shape(z)[-1])
        return f(z, *rows)

    return counted


def test_integrate_shares_one_call_for_the_first_two_levels():
    # 16- and 32-node levels from one call on the 48 concatenated nodes;
    # each later level is one more call
    for f, expected in [(np.exp, [48]), (lambda z: np.cos(40.0 * z), [48, 64])]:
        counts = []
        integrate(_counting(f, counts), 0.0, 1.0)
        assert counts == expected
    counts = []
    with pytest.raises(QuadratureNotConverged, match=r"integrate on \[0\.0, 1\.0\] did not reach 1e-09"):
        integrate(_counting(lambda z: np.sin(1e5 * z), counts), 0.0, 1.0)
    assert counts == [48, 64, 128, 256, 512, 1024]


def test_integrate_rows_calls_its_integrand_once_per_level():
    # rows that fit one block: one call per level on every row
    counts = []
    integrate_rows(_counting(lambda z, rows: np.exp(z), counts), 0.0, np.array([1.0, 2.0]))
    assert counts == [16, 32]


def _rows_per_level(f, lo, hi):
    """integrate_rows as one integrand call per level on every row: the reference."""
    span = hi - lo
    prev = None
    for n in (16, 32, 64, 128, 256, 512, 1024):
        t, w = _gl_nodes(n)
        total = span * (np.asarray(f(lo + span[..., None] * t)) @ w)
        if prev is not None and np.max(np.abs(total - prev)) <= 1e-9 * (1.0 + np.max(np.abs(total))):
            return total
        prev = total
    raise AssertionError("reference did not converge")


def test_integrate_rows_calls_a_rowwise_integrand_on_row_blocks():
    # 3,000 rows: 1,024-row blocks at 16 nodes and 512-row blocks at 32, each
    # call told its rows; the estimate is the one call's, bit for bit
    hi = np.linspace(0.1, 2.0, 3000)
    calls = []

    def f(z, rows):
        calls.append((rows, z.shape))
        return np.exp(z)

    got = integrate_rows(f, 0.0, hi)
    assert calls[:3] == [(slice(0, 1024), (1024, 16)), (slice(1024, 2048), (1024, 16)),
                         (slice(2048, 3072), (952, 16))]
    assert [shape for _, shape in calls[3:]] == [(512, 32)] * 5 + [(440, 32)]
    assert np.array_equal(got, _rows_per_level(np.exp, 0.0, hi))
    # rows that fit one block: one call per level on every row
    calls.clear()
    integrate_rows(f, 0.0, hi[:100])
    assert calls == [(slice(None), (100, 16)), (slice(None), (100, 32))]


def _integrate_per_level(f, a, b):
    """integrate as one integrand call per level on _gl_nodes(n): the reference."""
    prev = None
    for n in (16, 32, 64, 128, 256, 512, 1024):
        t, w = _gl_nodes(n)
        total = (b - a) * np.tensordot(np.asarray(f(a + (b - a) * t)), w, axes=([-1], [0]))
        if prev is not None and np.max(np.abs(total - prev)) <= 1e-9 * (1.0 + np.max(np.abs(total))):
            return total, n
        prev = total
    raise AssertionError("reference did not converge")


def _six_rows(s):
    rates = np.array([0.5, 1.0, 1.5, 2.0, 3.0, 4.0])
    return lambda z: s.W(z) * np.exp(-rates[:, None] * z)


def _against_exp_shape(s):
    mus = np.array([1.0, 2.5])
    fn = lambda u: np.stack([s.W(u), s.Z(u), s.Wbar(u)])
    return lambda u: np.asarray(fn(u))[..., None, :] * np.exp(mus[:, None] * u)


@pytest.mark.parametrize("case", ["six-rows", "against-exp", "late-levels"])
def test_integrate_equals_a_per_level_reference_bitwise(case):
    s = build_scale(make_ex3(), 2)
    # (integrand, a, b, result shape, nodes per unit at convergence)
    f, a, b, shape, nodes = {
        "six-rows": (_six_rows(s), 0.0, 6.0, (6,), 32),
        "against-exp": (_against_exp_shape(s), 0.0, 2.468, (3, 2), 32),
        "late-levels": (lambda z: np.stack([np.cos(40.0 * z), np.cos(100.0 * z)]),
                        0.0, 1.0, (2,), 128),
    }[case]
    ref, n = _integrate_per_level(f, a, b)
    got = integrate(f, a, b)
    assert n == nodes
    assert got.shape == ref.shape == shape
    assert np.all(got == ref)


def _bits(v) -> bytes:
    return np.asarray(v, dtype=float).tobytes()


_SHARED_CASES = [(make_ex1, 1.526), (make_ex3, 0.0), (make_ex3, 2.468), (make_ex1_hyper, 1.0)]
_SHARED_IDS = ["ex1", "ex3-y2-0", "ex3", "ex1-hyper"]


@pytest.mark.parametrize("make, y2", _SHARED_CASES, ids=_SHARED_IDS)
def test_exits_equal_separate_kernel_calls_bitwise(make, y2):
    # up, down and the holding cost from one kernel evaluation at x - a must
    # equal the formulas on separate W / Wbar / Z / Zbar calls bit for bit
    m = make()
    s = build_scale(m, 2)
    ctx = ExitContext(s, y2, m.b)
    span = m.b - y2
    assert (_bits(ctx.W_span), _bits(ctx.Wbar_span), _bits(ctx.Z_span), _bits(ctx.Zbar_span)) == (
        _bits(s.W(span)), _bits(s.Wbar(span)), _bits(s.Z(span)), _bits(s.Zbar(span)))
    for x in (np.array(0.5 * (y2 + m.b)), np.linspace(y2, m.b, 48),
              np.linspace(y2, m.b, 400).reshape(20, 20)):
        up = s.W(x - y2) / ctx.W_span
        down = s.Z(x - y2) - up * ctx.Z_span
        level = (m.b * up + y2 * down + s.Zbar(x - y2) - s.phi_prime0 * s.Wbar(x - y2)
                 - up * (ctx.Zbar_span - s.phi_prime0 * ctx.Wbar_span))
        c = m.h2
        hold = ((c.a + c.c * s.phi_prime0 / s.q) * ((1.0 - down - up) / s.q)
                + (c.c / s.q) * (x - level))
        got = ctx.exits(x, m.h2)
        assert [_bits(v) for v in got] == [_bits(up), _bits(down), _bits(hold)]


@pytest.mark.parametrize("make, y2", _SHARED_CASES, ids=_SHARED_IDS)
def test_omega2_shared_parts_equal_fresh_ones_bitwise(make, y2):
    # the convolution, its coefficients and g(b) are built once per model and
    # shared by every y2; they, the tails read from one evaluation of the
    # terms and the two payoffs from one phase-1 evaluation must equal
    # freshly built ones, one convolution per payoff, bit for bit
    m = make()
    s1, s2 = build_scale(m, 1), build_scale(m, 2)
    op = Omega2(s1, ExitContext(s2, y2, m.b))
    other = Omega2(s1, ExitContext(s2, 0.5 * (y2 + m.b), m.b))
    assert other._conv is op._conv and other._coef_w is op._coef_w
    th1, w1, th2, w2 = s1.exponents, s1.weights, s2.exponents, s2.weights
    dsig = s2.sigma - s1.sigma
    conv_z, conv_w = ExpConvolution(th1, th2), ExpConvolution(np.append(th1, 0.0), th2)
    for name in ("a_col", "b_exp", "small", "safe"):
        assert _bits(getattr(op._conv, name)) == _bits(getattr(conv_w, name))
    coef_z = dsig * s1.q * w1
    coef_w = np.append(dsig * w1 / th1, -dsig * np.sum(w1 / th1))
    assert (_bits(op._coef_z), _bits(op._coef_w)) == (_bits(coef_z), _bits(coef_w))
    assert (_bits(op._Z1_b), _bits(op._Wbb1_b)) == (_bits(s1.Z(m.b)), _bits(s1.Wbarbar(m.b)))

    def tails(x):
        x = np.asarray(x, dtype=float)
        s = np.maximum(x - y2, 0.0)[..., None]
        em = np.expm1(th2 * s)
        ramp = (x[..., None] * em / th2 - s * np.exp(th2 * s) / th2 + em / th2**2) @ w2
        return conv_z(y2, x, coef_z, w2), ramp + conv_w(y2, x, coef_w, w2)

    const_z, const_w = tails(m.b)
    assert (_bits(op._const_z), _bits(op._const_w)) == (_bits(const_z), _bits(const_w))
    ctx = op.exit2
    for x in (np.array(0.5 * (y2 + m.b)), np.linspace(y2, m.b, 48),
              np.linspace(y2, m.b, 400).reshape(20, 20)):
        tail_z, tail_w = tails(x)
        assert [_bits(v) for v in op._tails(x)] == [_bits(tail_z), _bits(tail_w)]
        up = ctx.exits(x, m.h2)[0]
        om_z = s1.Z(x) - up * s1.Z(m.b) + up * const_z - tail_z
        om_w = s1.Wbarbar(x) - up * s1.Wbarbar(m.b) + up * const_w - tail_w
        assert [_bits(v) for v in op.apply(x, up)] == [_bits(om_z), _bits(om_w)]
        assert _bits(op.apply(x, ctx.exits(x, m.h2)[0])[0]) == _bits(om_z)
