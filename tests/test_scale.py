import math

import numpy as np
import pytest

from bandctl import (
    BandOne,
    DemandLaw,
    HoldingCost,
    ModelConfig,
    PenaltyCost,
    SwitchMatrix,
    build_scale,
    check_laplace_identity,
    total_cost,
    validate,
)
from bandctl.errors import RootFindingFailed, ThetaInsideSpectrum, ValidationError
from bandctl.passage import integrate
from bandctl import scale
from bandctl.scale import ExpConvolution
from ._oracles import simpson_adaptive
from .conftest import make_ex1, make_ex1_hyper, make_ex3


def quadratic_roots(sigma, mu, lam, q):
    """Independent root oracle: sigma th^2 + (sigma mu - lam - q) th - q mu = 0."""
    bq = sigma * mu - lam - q
    disc = math.sqrt(bq * bq + 4 * sigma * q * mu)
    return (-bq - disc) / (2 * sigma), (-bq + disc) / (2 * sigma)


def test_example3_phase2_exponents():
    sc = build_scale(make_ex3(), 2)
    lo, hi = quadratic_roots(2.5, 1.0, 2.0, 0.1)
    assert sc.exponents == pytest.approx([lo, hi], abs=1e-12)
    assert hi == pytest.approx(0.13540659228538015, abs=1e-9)
    assert lo == pytest.approx(-0.29540659228538015, abs=1e-9)


def test_initial_values():
    for m in (make_ex1(), make_ex3()):
        for phase in (1, 2):
            sc = build_scale(m, phase)
            assert sc.W(0.0) == pytest.approx(1.0 / m.sigma(phase), abs=1e-10)
            assert sc.Z(0.0) == pytest.approx(1.0, abs=1e-12)
            assert abs(float(np.sum(sc.weights)) - 1 / m.sigma(phase)) < 1e-10


def test_w_family_at_origin_and_negatives():
    sc = build_scale(make_ex3(), 2)
    assert (sc.W(0.0), sc.Wbar(0.0), sc.Wbarbar(0.0)) == (pytest.approx(1 / 2.5), 0.0, 0.0)
    assert (sc.W(-0.5), sc.Wbar(-0.5), sc.Wbarbar(-0.5)) == (0.0, 0.0, 0.0)


def test_w_integrals_match_simpson():
    sc = build_scale(make_ex3(), 2)
    for x in (0.3, 1.0, 2.7, 6.0):
        wb = simpson_adaptive(lambda z: sc.W(z), 0.0, x, tol=1e-13)
        wbb = simpson_adaptive(lambda z: sc.Wbar(z), 0.0, x, tol=1e-13)
        assert sc.Wbar(x) == pytest.approx(wb, abs=1e-10)
        assert sc.Wbarbar(x) == pytest.approx(wbb, abs=1e-10)


def test_z_family_basics():
    sc = build_scale(make_ex1(), 1)
    assert (sc.Z(0.0), sc.Zbar(0.0)) == (pytest.approx(1.0), pytest.approx(0.0))


def test_laplace_identity_examples():
    sc2 = build_scale(make_ex3(), 2)
    assert check_laplace_identity(sc2, 1.0) < 1e-9
    sc1 = build_scale(make_ex1(), 1)
    assert check_laplace_identity(sc1, 2.0) < 1e-9
    with pytest.raises(ThetaInsideSpectrum):
        check_laplace_identity(sc2, sc2.phi_q + 1e-9)


def test_laplace_identity_random_thetas():
    rng = np.random.default_rng(7)
    for m in (make_ex1(), make_ex3()):
        for phase in (1, 2):
            sc = build_scale(m, phase)
            for theta in rng.uniform(sc.phi_q + 0.1, sc.phi_q + 5.0, size=10):
                assert check_laplace_identity(sc, float(theta)) < 1e-8


def test_monotonicity_sampled():
    rng = np.random.default_rng(11)
    for m in (make_ex1(), make_ex3()):
        for phase in (1, 2):
            sc = build_scale(m, phase)
            xs = np.sort(rng.uniform(0.0, m.b, size=1000))
            w = sc.W(xs)
            z = sc.Z(xs)
            assert np.all(np.diff(w) > 0), "W must be strictly increasing"
            assert np.all(z >= 1.0) and np.all(np.diff(z) >= 0)
            assert np.all(sc.Wbar(xs) >= 0) and np.all(np.diff(sc.Wbar(xs)) >= 0)
            assert np.all(sc.Wbarbar(xs) >= 0) and np.all(np.diff(sc.Wbarbar(xs)) >= 0)


def test_hyperexponential_scale_set():
    m = validate(ModelConfig(
        sigma1=3.0, sigma2=1.6, lam=1.5, q=0.12, b=8.0, l=0.0,
        demand=DemandLaw.hyperexponential([0.4, 0.6], [0.8, 2.5]),
        h1=HoldingCost(0.05, 0.01), h2=HoldingCost(0.03, 0.01), h0_b=0.02,
        penalty=PenaltyCost(1.0, 0.5),
        switching=SwitchMatrix(0.3, 0.2, 0.25, 0.1, 0.15, 0.2),
    ))
    for phase in (1, 2):
        sc = build_scale(m, phase)
        assert len(sc.exponents) == 3  # k + 1 real roots
        assert np.sum(sc.exponents > 0) == 1
        assert sc.W(0.0) == pytest.approx(1 / m.sigma(phase), abs=1e-10)
        for theta in (sc.phi_q + 0.2, sc.phi_q + 1.0, sc.phi_q + 4.0):
            assert check_laplace_identity(sc, theta) < 1e-8
        x = 1.3
        wb = simpson_adaptive(lambda z: sc.W(z), 0.0, x, tol=1e-13)
        assert sc.Wbar(x) == pytest.approx(wb, abs=1e-10)


def _ex1_with_rates(rates) -> ModelConfig:
    demand = DemandLaw.hyperexponential([0.5, 0.5], rates)
    return validate(ModelConfig(**{**make_ex1().__dict__, "demand": demand}))


def test_repeated_rates_are_one_exponential():
    # a mixture of equal exponentials is that exponential; the repeated rate
    # must not add a spurious root -mu to the polynomial
    m, ex1 = _ex1_with_rates([1.5, 1.5]), make_ex1()
    for phase in (1, 2):
        assert np.array_equal(build_scale(m, phase).exponents, build_scale(ex1, phase).exponents)
    doshi = BandOne(1.526, 1.526, 5.077)
    assert total_cost(m, doshi).V0 == pytest.approx(total_cost(ex1, doshi).V0, rel=1e-12)


def test_nearly_coincident_rates_are_named():
    rates = [1.5, 1.5 * (1 + 1e-5)]
    with pytest.raises(RootFindingFailed) as exc:
        build_scale(_ex1_with_rates(rates), 1)
    assert f"demand rates {rates[0]!r} and {rates[1]!r} nearly coincide: " in str(exc.value)


def test_build_scale_cached_and_read_only():
    # one ScaleSet per (model, phase), shared by every caller, so nobody may
    # write to its arrays
    a = build_scale(make_ex3(), 2)
    assert build_scale(make_ex3(), 2) is a
    assert build_scale(make_ex3(), 1) is not a
    for arr in (a.exponents, a.weights):
        with pytest.raises(ValueError):
            arr[0] = 0.0


@pytest.mark.parametrize("phase", [0, 3, 1.5, True], ids=["0", "3", "1.5", "True"])
def test_build_scale_phase_must_be_one_or_two(phase):
    # phase 0 must not build phase 2's kernel, nor True hit phase 1's entry
    m = make_ex1()
    build_scale(m, 1)
    with pytest.raises(ValidationError, match="phase must be the integer 1 or 2"):
        build_scale(m, phase)


def test_build_scale_takes_a_numpy_integer_phase():
    m = make_ex1()
    assert build_scale(m, np.int64(2)).sigma == m.sigma2
    assert np.array_equal(build_scale(m, np.int64(2)).exponents, build_scale(m, 2).exponents)


def test_conv_exp_against_quadrature():
    a_exp, a_coef = np.array([-1.5, 0.3]), np.array([0.7, -0.2])
    b_exp, b_coef = np.array([-0.4, 0.9]), np.array([1.1, 0.5])
    A = lambda z: np.exp(z[..., None] * a_exp) @ a_coef
    B = lambda u: np.exp(u[..., None] * b_exp) @ b_coef
    for x in (1.0, 2.5, 7.0):
        ref = integrate(lambda z: A(z) * B(x - z), 0.5, x)
        assert ExpConvolution(a_exp, b_exp)(0.5, x, a_coef, b_coef) == pytest.approx(ref, rel=1e-12)
    got = ExpConvolution(a_exp, b_exp)(0.5, np.array([[0.2, 0.5], [1.0, 2.5]]), a_coef, b_coef)
    assert got.shape == (2, 2)
    assert got[0, 0] == 0.0 and got[0, 1] == 0.0


def test_conv_exp_equal_exponents():
    # delta = 0 takes the limit s of expm1(delta s)/delta:
    # int_lo^x e^{c z} e^{c (x - z)} dz = (x - lo) e^{c x}
    c, lo = 0.7, 0.5
    xs = np.array([0.5, 1.0, 3.0])
    got = ExpConvolution([c], [c])(lo, xs, [2.0], [3.0])
    np.testing.assert_allclose(got, 6.0 * (xs - lo) * np.exp(c * xs), rtol=1e-14)
    # a near-equal pair stays on the same limit
    near = ExpConvolution([c + 1e-13], [c])(lo, xs, [2.0], [3.0])
    np.testing.assert_allclose(near, got, rtol=1e-12)


def test_exp_convolution_freezes_its_pair_not_the_inputs():
    a_exp, b_exp = np.array([-1.5, 0.2]), np.array([-0.7, 0.2, 1.1])
    conv = ExpConvolution(a_exp, b_exp)
    for arr in (conv.a_col, conv.b_exp, conv.small, conv.safe):
        assert not arr.flags.writeable
    assert a_exp.flags.writeable and b_exp.flags.writeable
    assert conv.small.sum() == 1
    # one instance serves any coefficients, lo and x; 0 where x <= lo
    xs = np.array([0.3, 1.0, 2.5])
    first = conv(0.3, xs, [1.0, -2.0], [0.5, 1.0, 2.0])
    assert first[0] == 0.0
    conv(-1.0, xs, [3.0, 1.0], [1.0, 1.0, 1.0])
    assert np.array_equal(conv(0.3, xs, [1.0, -2.0], [0.5, 1.0, 2.0]), first)


@pytest.mark.parametrize("phase", [1, 2])
@pytest.mark.parametrize("make", [make_ex1, make_ex1_hyper], ids=["ex1", "ex1-hyper"])
def test_kernels_equal_the_broadcast_expressions_bitwise(make, phase):
    # the W family fills its (..., k) exponent array one column at a time on
    # large inputs; it must give the bits of the broadcast over the exponents
    sc = build_scale(make(), phase)
    th, w = sc.exponents, sc.weights
    assert len(th) == len(make().demand.rates) + 1
    rng = np.random.default_rng(phase)
    for x in (np.array(-0.3), np.array(4.7), rng.uniform(-1.0, 10.0, 50),
              rng.uniform(-1.0, 10.0, 400), rng.uniform(-1.0, 10.0, (3, 200, 48))):
        xp = np.maximum(x, 0.0)
        W = np.where(x >= 0, np.exp(xp[..., None] * th) @ w, 0.0)
        Wbar = np.where(x >= 0, np.expm1(xp[..., None] * th) @ (w / th), 0.0)
        Wbarbar = np.where(x >= 0, np.expm1(xp[..., None] * th) @ (w / th**2)
                           - xp * float(np.sum(w / th)), 0.0)
        for got, ref in ((sc.W(x), W), (sc.Wbar(x), Wbar), (sc.Wbarbar(x), Wbarbar)):
            assert np.shape(got) == x.shape
            assert np.array_equal(got, ref), x.shape


def _bits(v) -> bytes:
    return np.asarray(v, dtype=float).tobytes()


@pytest.mark.parametrize("phase", [1, 2])
@pytest.mark.parametrize("make", [make_ex1, make_ex3, make_ex1_hyper],
                         ids=["ex1", "ex3", "ex1-hyper"])
def test_shared_evaluation_equals_separate_calls_bitwise(make, phase):
    # ScaleSet.kernels gives all five functions from one x theta array; each
    # must equal the expression of a separate evaluation bit for bit, on
    # both sides of _FILL_MIN (column fill from there on), for x < 0, 0-d,
    # 1-d and 2-d inputs, and with either half left out
    sc = build_scale(make(), phase)
    th, w, q = sc.exponents, sc.weights, sc.q
    rng = np.random.default_rng(31 + phase)
    n = scale._FILL_MIN
    inputs = [np.array(-0.3), np.array(0.0), np.array(4.7), 2.5, rng.uniform(-1.0, 10.0, n - 1),
              rng.uniform(-1.0, 10.0, n), rng.uniform(-1.0, 10.0, (7, 9)),
              rng.uniform(-1.0, 10.0, (3, 200, 48)), -rng.uniform(0.0, 1.0, 5)]
    for x in inputs:
        xa = np.asarray(x, dtype=float)
        xp = np.maximum(xa, 0.0)
        W = np.where(xa >= 0, np.exp(xp[..., None] * th) @ w, 0.0)
        Wbar = np.where(xa >= 0, np.expm1(xp[..., None] * th) @ (w / th), 0.0)
        Wbarbar = np.where(xa >= 0, np.expm1(xp[..., None] * th) @ (w / th**2)
                           - xp * float(np.sum(w / th)), 0.0)
        ref = (W, Wbar, Wbarbar, 1.0 + q * Wbar, xa + q * Wbarbar)
        shared = sc.kernels(x)
        separate = (sc.W(x), sc.Wbar(x), sc.Wbarbar(x), sc.Z(x), sc.Zbar(x))
        halves = sc.kernels(x, integrals=False)[:1] + sc.kernels(x, W=False)[1:]
        for got in (shared, separate, halves):
            for g, r in zip(got, ref):
                assert np.shape(g) == xa.shape and (xa.shape or isinstance(g, float))
                assert _bits(g) == _bits(r), xa.shape
    assert sc.kernels(1.0, W=False)[0] is None
    assert sc.kernels(np.ones(3), integrals=False)[1:] == (None,) * 4
