import mpmath
import numpy as np
import pytest

from bandctl import BandOne, build_scale, estimate_occupation
from bandctl.cost_one import TypeOneAssembly
from bandctl.errors import OutOfBand, QuadratureNotConverged
from bandctl.model import ModelConfig
from bandctl.passage import ExitContext, Omega2, integrate, integrate_rows
from ._oracles import MpScale, mc_reflected, mc_two_sided, potential_density, simpson_adaptive
from .conftest import make_ex1, make_ex1_hyper, make_ex3


@pytest.fixture(scope="module")
def ex3_ctx():
    m = make_ex3()
    return m, ExitContext(build_scale(m, 2), a=2.468, d=10.0)


def test_up_crossing_endpoints(ex3_ctx):
    m, ctx = ex3_ctx
    assert ctx.up(ctx.d) == pytest.approx(1.0)
    s = ctx.scale
    assert ctx.up(ctx.a) == pytest.approx(s.W(0.0) / s.W(ctx.d - ctx.a))


def test_exit_down_endpoints(ex3_ctx):
    m, ctx = ex3_ctx
    assert ctx.down(ctx.d) == pytest.approx(0.0, abs=1e-12)
    s = ctx.scale
    span = ctx.d - ctx.a
    assert ctx.down(ctx.a) == pytest.approx(
        1.0 - s.W(0.0) * s.Z(span) / s.W(span)
    )


def test_two_sided_factors_against_mc(ex3_ctx):
    m, ctx = ex3_ctx
    mc = mc_two_sided(m, 2, ctx.a, ctx.d, 5.0, 100_000, seed=101)
    up_mean, up_se = mc["up"]
    dn_mean, dn_se = mc["down"]
    assert abs(ctx.up(5.0) - up_mean) < 3 * up_se
    assert abs(ctx.down(5.0) - dn_mean) < 3 * dn_se


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
    mass = integrate(lambda y: potential_density(ctx, x, y), ctx.a + 1e-12,
                     ctx.d - 1e-12, breakpoints=(x,))
    expected = (1.0 - ctx.up(x) - ctx.down(x)) / m.q
    assert mass == pytest.approx(expected, abs=1e-8)


def test_up_plus_down_below_one(ex3_ctx):
    m, ctx = ex3_ctx
    xs = np.linspace(ctx.a, ctx.d, 50)
    tot = ctx.up(xs) + ctx.down(xs)
    assert np.all(tot <= 1.0 + 1e-12)


def test_occupation_histogram_matches_density(ex3_ctx):
    m, ctx = ex3_ctx
    occ = estimate_occupation(m, 2, ctx.a, ctx.d, 5.0, 100_000, bins=25, base_seed=33)
    for i in range(len(occ.mean)):
        lo, hi = occ.edges[i], occ.edges[i + 1]
        exact = integrate(
            lambda y: potential_density(ctx, 5.0, y),
            max(lo, ctx.a + 1e-12), min(hi, ctx.d - 1e-12), breakpoints=(5.0,)
        )
        assert abs(exact - occ.mean[i]) < 3 * occ.std_error[i] + 1e-4, \
            f"bin {i} [{lo:.2f},{hi:.2f})"
    # total mass identity within Monte Carlo error
    expected = (1.0 - ctx.up(5.0) - ctx.down(5.0)) / m.q
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
    got = ctx.resolvent_transform(xs)
    assert got.shape == (len(m.demand.rates), len(xs))
    eps = 1e-12
    for k, mu in enumerate(m.demand.rates):
        for i, x in enumerate(xs):
            f = lambda z: potential_density(ctx, x, z) * np.exp(-mu * z)
            ref = simpson_adaptive(f, a + eps, x) + simpson_adaptive(f, x + eps, ctx.d - eps)
            assert got[k, i] == pytest.approx(ref, rel=1e-8, abs=1e-10), (k, x)


def test_reflected_factors_basic():
    # the reflected up-crossing factor kappa(x) = Z1(x)/Z1(y1) scales each
    # phase-1 slope row: it is 1 at y1 and 1/Z1(y1) at the floor
    m = make_ex1()
    asm = TypeOneAssembly(m, BandOne(1.526, 1.526, 5.077))
    alpha, _, gamma, _, delta, _ = asm.phase1(np.array([5.077, 0.0]))
    kappa = np.array([1.0, 1.0 / asm.Z1y1])
    assert alpha == pytest.approx(kappa * asm.alpha2_y1, rel=1e-12)
    assert gamma == pytest.approx(kappa * asm.gamma2_y1, rel=1e-12)
    assert delta == pytest.approx(kappa * asm.delta2_y1, rel=1e-12)


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
    reduced = s1.Z(xs) - ctx.up(xs) * s1.Z(hypo.b)
    assert op.apply_Z1(xs) == pytest.approx(reduced, abs=1e-12)
    # the Z1 source vanishes, so its tail and constant are exact zeros, and
    # the Wbarbar1 tail is int_{y2}^x z W2(x - z) dz alone
    assert op.dsig == 0.0
    assert np.all(op._tail(xs, "Z1") == 0.0) and op._const_z == 0.0
    for x, val in zip(xs[1:], op._tail(xs, "W")[1:]):
        ref = simpson_adaptive(lambda z: z * s2.W(x - z), 1.0, x)
        assert val == pytest.approx(ref, rel=1e-10)


def test_omega2_vanishes_at_capacity():
    m = make_ex3()
    ctx = ExitContext(build_scale(m, 2), a=2.468, d=m.b)
    s1 = build_scale(m, 1)
    op = Omega2(s1, ctx)
    assert op.apply_Z1(m.b) == pytest.approx(0.0, abs=1e-9)
    assert op.apply_Wbarbar1(m.b) == pytest.approx(0.0, abs=1e-9)


def test_omega2_range_invariant():
    m = make_ex3()
    ctx = ExitContext(build_scale(m, 2), a=2.468, d=m.b)
    s1 = build_scale(m, 1)
    xs = np.linspace(ctx.a, ctx.d, 40)
    vals = Omega2(s1, ctx).apply_Z1(xs)
    assert np.all(vals >= -1e-10)
    assert np.all(vals <= s1.Z(m.b) + 1e-10)


def test_omega2_against_mc(ex3_ctx):
    m, ctx = ex3_ctx
    s1 = build_scale(m, 1)
    mc = mc_two_sided(m, 2, ctx.a, ctx.d, 5.0, 100_000, seed=77,
                      payoff=lambda v: s1.Z(v))
    mean, se = mc["payoff"]
    assert abs(Omega2(s1, ctx).apply_Z1(5.0) - mean) < 3 * se


def test_omega2_matches_jump_decomposition(ex3_ctx):
    # Omega(g)(x) must agree with the resolvent-density x demand-density
    # double integral, an independent route through the same payoff.
    m, ctx = ex3_ctx
    s1 = build_scale(m, 1)
    y2, b = ctx.a, ctx.d
    lam = m.lam

    def rhs(x, g):
        def outer(z):
            vals = []
            for zz in np.atleast_1d(z):
                tail = integrate(
                    lambda v: g(zz - v) * m.demand.pdf(v),
                    zz - y2, zz + 60.0, breakpoints=(zz,)
                )
                vals.append(float(tail))
            zz = np.atleast_1d(z)
            return lam * np.asarray(vals) * potential_density(ctx, x, zz)

        return float(integrate(outer, y2 + 1e-12, b - 1e-12, breakpoints=(x,)))

    x = 5.0
    op = Omega2(s1, ctx)
    assert op.apply_Z1(x) == pytest.approx(rhs(x, s1.Z), abs=1e-7)
    assert op.apply_Wbarbar1(x) == pytest.approx(rhs(x, s1.Wbarbar), abs=1e-7)


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
    got = {"Z1": op._tail(xs, "Z1"), "W": op._tail(xs, "W")}
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
    (lambda f: integrate_rows(f, 0.0, 1.0), "row-wise quadrature did not converge"),
], ids=["integrate", "integrate_rows"])
def test_quadrature_not_converged(rule, message):
    # sin(1e5 z) oscillates far faster than 1024 nodes on [0, 1] resolve
    with pytest.raises(QuadratureNotConverged, match=message):
        rule(lambda z: np.sin(1e5 * z))
