import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bandctl import (
    DemandLaw,
    HoldingCost,
    ModelConfig,
    PenaltyCost,
    SwitchMatrix,
    build_scale,
    upper_cost_bound,
    validate,
)
from bandctl.errors import (
    BacklogUnsupported,
    NegativeCost,
    NonOrderedRates,
    SwitchInequalityViolated,
    ValidationError,
)
from .conftest import make_ex1, make_ex3


def test_validate_example_one_config():
    validate(make_ex1())  # does not raise


def test_validate_rejects_equal_rates():
    m = make_ex1()
    bad = ModelConfig(**{**m.__dict__, "sigma1": 1.0, "sigma2": 1.0})
    with pytest.raises(NonOrderedRates):
        validate(bad)


def test_validate_rejects_zero_switching_pair():
    m = make_ex1()
    bad = ModelConfig(**{**m.__dict__, "switching": SwitchMatrix(0, 0, 0, 0, 0, 0)})
    with pytest.raises(SwitchInequalityViolated):
        validate(bad)


def test_validate_switch_triangle():
    m = make_ex1()
    # K01 > K02 + K21 makes an off->1 restart dominated by off->2->1
    bad = ModelConfig(**{**m.__dict__,
                         "switching": SwitchMatrix(k01=9, k02=2, k10=4, k12=1, k20=2, k21=2)})
    with pytest.raises(SwitchInequalityViolated):
        validate(bad)


def test_validate_negative_cost():
    m = make_ex1()
    bad = ModelConfig(**{**m.__dict__, "penalty": PenaltyCost(-0.1, 0.4)})
    with pytest.raises(NegativeCost):
        validate(bad)


@pytest.mark.parametrize("change, error, message", [
    ({"demand": DemandLaw((), ())}, ValidationError,
     "demand mixture needs matching, nonempty weights and rates"),
    ({"demand": DemandLaw((1.0,), (1.0, 2.0))}, ValidationError,
     "demand mixture needs matching, nonempty weights and rates"),
    ({"demand": DemandLaw((0.0, 1.0), (1.0, 2.0))}, ValidationError,
     "demand mixture weights must be strictly positive"),
    ({"h2": HoldingCost(0.021, -0.001)}, NegativeCost, "h2: holding coefficients must be >= 0"),
    ({"switching": SwitchMatrix(k01=4.0, k02=2.0, k10=4.0, k12=1.0, k20=-2.0, k21=2.0)},
     NegativeCost, "switching costs must be >= 0"),
    ({"lam": 0.0}, ValidationError, "demand arrival rate must be > 0"),
    ({"q": -0.1}, ValidationError, "discount rate must be > 0"),
    ({"b": 0.0}, ValidationError, "capacity b must be > 0"),
    ({"l": 0.5}, ValidationError, "backlog floor l must be <= 0"),
    ({"h0_b": -0.011}, NegativeCost, "h0_b must be >= 0"),
], ids=["empty-mixture", "mismatched-mixture", "zero-weight", "negative-holding",
        "negative-switching", "lambda-zero", "q-negative", "b-zero", "l-positive",
        "h0_b-negative"])
def test_validate_names_the_violated_invariant(change, error, message):
    bad = ModelConfig(**{**make_ex1().__dict__, **change})
    with pytest.raises(error, match=f"^{re.escape(message)}$") as exc:
        validate(bad)
    assert exc.type is error


def test_backlog_flagging():
    m = make_ex1()
    backlog = ModelConfig(**{**m.__dict__, "l": -1.0})
    with pytest.raises(BacklogUnsupported):
        validate(backlog)
    validate(backlog, allow_backlog=True)  # simulator-side acceptance


def test_demand_law_invariants():
    with pytest.raises(ValidationError):
        DemandLaw.hyperexponential([0.5, 0.6], [1.0, 2.0]).check()
    with pytest.raises(ValidationError):
        DemandLaw.exponential(-1.0).check()
    d = DemandLaw.hyperexponential([0.3, 0.7], [1.0, 2.0])
    d.check()
    assert d.mean == pytest.approx(0.3 / 1.0 + 0.7 / 2.0)


def test_laplace_exponent_at_zero_vanishes():
    for m in (make_ex1(), make_ex3()):
        for phase in (1, 2):
            assert build_scale(m, phase).phi(0.0) == pytest.approx(0.0, abs=1e-14)


def test_laplace_exponent_values():
    # direct evaluations of sigma*theta - lam + lam*mu/(mu+theta)
    assert build_scale(make_ex3(), 2).phi(1.0) == pytest.approx(2.5 - 2 + 2 * 0.5)
    assert build_scale(make_ex1(), 1).phi(3.0) == pytest.approx(9 - 2 + 2 * (1.5 / 4.5))


@pytest.mark.parametrize("phase", [0, 3, True, 2.0])
def test_sigma_rejects_a_phase_that_is_not_1_or_2(phase):
    # 0 and 3 once gave phase 2's rate, so phase 0's Laplace exponent read 0.7 at 1.0 on ex1
    m = make_ex1()
    with pytest.raises(ValidationError, match="phase must be the integer 1 or 2"):
        m.sigma(phase)
    with pytest.raises(ValidationError, match="phase must be the integer 1 or 2"):
        build_scale(m, phase).phi(1.0)


@pytest.mark.parametrize("phase", [0, 3, True, 2.0])
def test_holding_rejects_a_phase_that_is_not_1_or_2(phase):
    with pytest.raises(ValidationError, match="phase must be the integer 1 or 2"):
        make_ex1().holding(phase)


def test_drift_mean_values():
    assert build_scale(make_ex1(), 1).phi_prime0 == pytest.approx(3 - 2 / 1.5)
    assert build_scale(make_ex3(), 2).phi_prime0 == pytest.approx(0.5)
    m = make_ex1()
    balanced = ModelConfig(**{**m.__dict__, "sigma2": 2 / 1.5, "sigma1": 3.0})
    assert build_scale(balanced, 2).phi_prime0 == pytest.approx(0.0, abs=1e-14)


def test_drift_matches_numerical_derivative():
    # central difference, step 1e-5 (the transform is analytic around 0)
    h = 1e-5
    for m in (make_ex1(), make_ex3()):
        for phase in (1, 2):
            central = (build_scale(m, phase).phi(h)
                       - build_scale(m, phase).phi(-h)) / (2 * h)
            assert abs(build_scale(m, phase).phi_prime0 - central) < 1e-6


def test_convexity_beyond_largest_root():
    for m in (make_ex1(), make_ex3()):
        for phase in (1, 2):
            phi_q = build_scale(m, phase).phi_q
            thetas = np.linspace(phi_q, phi_q + 5, 40)
            vals = build_scale(m, phase).phi(thetas)
            assert np.all(np.diff(vals) > 0)


def test_upper_cost_bound_positive():
    for m in (make_ex1(), make_ex3()):
        assert upper_cost_bound(m) > 0


@settings(max_examples=30, deadline=None)
@given(
    sigma2=st.floats(0.5, 3.0),
    extra=st.floats(0.1, 3.0),
    lam=st.floats(0.2, 4.0),
    rate=st.floats(0.3, 3.0),
    q=st.floats(0.02, 1.0),
)
def test_random_models_phi_properties(sigma2, extra, lam, rate, q):
    m = validate(ModelConfig(
        sigma1=sigma2 + extra, sigma2=sigma2, lam=lam, q=q, b=5.0, l=0.0,
        demand=DemandLaw.exponential(rate),
        h1=HoldingCost(0.1, 0.01), h2=HoldingCost(0.05, 0.01), h0_b=0.02,
        penalty=PenaltyCost(1.0, 0.5),
        switching=SwitchMatrix(0.2, 0.1, 0.2, 0.1, 0.1, 0.2),
    ))
    for phase in (1, 2):
        assert build_scale(m, phase).phi(0.0) == pytest.approx(0.0, abs=1e-12)
        assert build_scale(m, phase).phi_prime0 == pytest.approx(
            m.sigma(phase) - lam / rate, rel=1e-12
        )
