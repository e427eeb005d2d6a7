import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bandctl import (
    BandOne,
    BandTwo,
    DemandLaw,
    ModelConfig,
    SimStrategy,
    estimate_cost,
    estimate_occupation,
    simulate_path,
    upper_cost_bound,
    validate,
)
from bandctl.errors import InvalidStart, ValidationError
from bandctl.model import HoldingCost, PenaltyCost, SwitchMatrix
from bandctl.simulate import TRUNCATION_FRACTION, _path_keys, _run_paths, truncation_horizon
from .conftest import make_ex1, make_ex3


@pytest.fixture(scope="module")
def ex1_strategy():
    m = make_ex1()
    band = BandOne(1.526, 1.526, 5.077)
    return m, band, SimStrategy.from_band(band, m)


def test_from_band_doshi_sets(ex1_strategy):
    m, band, strat = ex1_strategy
    assert strat.a12 == ((band.y1, m.b),)
    assert strat.a21 == ((0.0, band.y2),)
    assert strat.c1 == ((0.0, band.y3),)
    strat.check(m)


def test_strategy_validation_rejects_overlap():
    m = make_ex1()
    bad = SimStrategy(a12=((2.0, 5.0),), a21=((4.0, 6.0),), c1=((0.0, 6.0),))
    with pytest.raises(ValidationError):
        bad.check(m)
    bad2 = SimStrategy(a12=((5.0, 9.0),), a21=((0.0, 2.0),), c1=((0.0, 1.0),))
    with pytest.raises(ValidationError):
        bad2.check(m)  # a21 not inside c1


def test_constant_cost_closure_path():
    m = make_ex1()
    flat = validate(ModelConfig(**{
        **m.__dict__,
        "h1": HoldingCost(1.0, 0.0), "h2": HoldingCost(1.0, 0.0), "h0_b": 1.0,
        "penalty": PenaltyCost(0.0, 0.0),
        "switching": SwitchMatrix(0.0, 0.0, 0.0, 0.001, 0.001, 0.0),
    }))
    strat = SimStrategy.from_band(BandOne(1.5, 1.5, 5.0), flat)
    t_star = truncation_horizon(flat)
    expected = (1.0 - np.exp(-flat.q * t_star)) / flat.q
    for seed in (0, 1, 99):
        total, hold, short, sw = simulate_path(flat, strat, 3.0, 2, rng_seed=seed)
        assert hold == pytest.approx(expected, abs=1e-9)
        assert short == 0.0
        # the only switches cost 0.001 each at zone boundaries; exclude them
        assert total == pytest.approx(hold + sw)


def test_idle_at_capacity_until_first_demand():
    # demand arrivals far beyond the horizon: a phase-0 start just accrues h0
    m = make_ex1()
    sleepy = validate(ModelConfig(**{**m.__dict__, "lam": 1e-9}))
    strat = SimStrategy.from_band(BandOne(1.5, 1.5, 5.0), sleepy)
    t_star = truncation_horizon(sleepy)
    total, hold, short, sw = simulate_path(sleepy, strat, sleepy.b, 0, rng_seed=3)
    assert total == pytest.approx(sleepy.h0_b * (1 - np.exp(-sleepy.q * t_star)) / sleepy.q,
                                  rel=1e-12)
    assert (short, sw) == (0.0, 0.0)


def test_path_determinism(ex1_strategy):
    m, band, strat = ex1_strategy
    a = simulate_path(m, strat, 3.0, 1, rng_seed=12345)
    b = simulate_path(m, strat, 3.0, 1, rng_seed=12345)
    assert a == b
    c = simulate_path(m, strat, 3.0, 1, rng_seed=12346)
    assert a != c


def test_estimate_matches_single_paths(ex1_strategy):
    # path p of an estimate must replay exactly as its own scalar run
    m, band, strat = ex1_strategy
    keys = _path_keys(2024, 0, 6)
    h, s, w = _run_paths(m, strat, 2.0, 1, keys)
    for p in range(6):
        single = _run_paths(m, strat, 2.0, 1, keys[p:p + 1])
        assert (h[p], s[p], w[p]) == (single[0][0], single[1][0], single[2][0])


def test_estimate_jobs_invariance(ex1_strategy):
    m, band, strat = ex1_strategy
    e1 = estimate_cost(m, strat, 0.0, 1, 4000, base_seed=5, jobs=1)
    e2 = estimate_cost(m, strat, 0.0, 1, 4000, base_seed=5, jobs=3)
    assert e1 == e2


def test_components_sum_to_total(ex1_strategy):
    m, band, strat = ex1_strategy
    est = estimate_cost(m, strat, 4.0, 2, 5000, base_seed=9)
    assert est.mean == pytest.approx(
        est.holding.mean + est.shortage.mean + est.switching.mean, abs=1e-12
    )
    assert est.std_error > 0


def test_minimum_paths(ex1_strategy):
    m, band, strat = ex1_strategy
    est = estimate_cost(m, strat, 4.0, 2, 2, base_seed=1)
    assert np.isfinite(est.std_error)
    with pytest.raises(ValidationError):
        estimate_cost(m, strat, 4.0, 2, 1, base_seed=1)


def test_estimate_respects_cost_bound(ex1_strategy):
    m, band, strat = ex1_strategy
    est = estimate_cost(m, strat, 0.0, 1, 20_000, base_seed=21)
    assert est.mean <= upper_cost_bound(m) + 3 * est.std_error
    assert est.truncation_bound == pytest.approx(
        TRUNCATION_FRACTION * upper_cost_bound(m)
    )


def test_invalid_starts(ex1_strategy):
    m, band, strat = ex1_strategy
    with pytest.raises(InvalidStart):
        simulate_path(m, strat, 5.0, 0, rng_seed=1)  # phase 0 away from b
    with pytest.raises(InvalidStart):
        simulate_path(m, strat, m.b + 1.0, 1, rng_seed=1)
    with pytest.raises(InvalidStart):
        estimate_occupation(m, 2, 2.0, 8.0, 9.0, 100, 5, base_seed=1)


def test_holding_fn_matches_affine(ex1_strategy):
    # the quadrature path for a callable holding rate must agree with the
    # closed form when the callable is the same affine function
    m, band, strat = ex1_strategy

    def holding(x, phase):
        a = np.where(phase == 1, m.h1.a, np.where(phase == 2, m.h2.a, m.h0_b))
        c = np.where(phase == 1, m.h1.c, np.where(phase == 2, m.h2.c, 0.0))
        return a + c * x

    exact = simulate_path(m, strat, 3.0, 2, rng_seed=17)
    quad = simulate_path(m, strat, 3.0, 2, rng_seed=17, holding_fn=holding)
    assert quad[1] == pytest.approx(exact[1], rel=1e-9)
    assert quad[2:] == exact[2:]


def test_backlog_floor_supported():
    m = make_ex1()
    backlog = validate(ModelConfig(**{**m.__dict__, "l": -2.0}), allow_backlog=True)
    strat = SimStrategy(a12=((5.0, backlog.b),), a21=((-2.0, 1.0),), c1=((-2.0, 1.0),))
    strat.check(backlog)
    total, hold, short, sw = simulate_path(backlog, strat, 0.0, 1, rng_seed=4)
    assert np.isfinite(total) and total == pytest.approx(hold + short + sw)
    est = estimate_cost(backlog, strat, 0.0, 1, 2000, base_seed=4)
    assert est.mean < upper_cost_bound(backlog)


def test_general_interval_strategy_reproduces_band(ex1_strategy):
    # assembling the same zones from redundant closed pieces cannot change paths
    m, band, strat = ex1_strategy
    split = SimStrategy(
        a12=((band.y1, 7.0), (7.0, m.b)),
        a21=((0.0, 1.0), (1.0, band.y2)),
        c1=((0.0, band.y2),),
    )
    for seed in (1, 2, 3):
        assert simulate_path(m, strat, 3.0, 1, seed) == simulate_path(m, split, 3.0, 1, seed)


def _batch_setups():
    """(model, strategy) pairs: a band, a type-two band, mixture demand, a backlog floor."""
    ex1, ex3 = make_ex1(), make_ex3()
    hyper = validate(ModelConfig(**{
        **ex1.__dict__,
        "demand": DemandLaw.hyperexponential([0.3, 0.4, 0.3], [0.8, 1.5, 4.0]),
    }))
    backlog = validate(ModelConfig(**{**ex1.__dict__, "l": -2.0}), allow_backlog=True)
    return [
        (ex1, SimStrategy.from_band(BandOne(1.526, 1.526, 5.077), ex1)),
        (ex3, SimStrategy.from_band(BandTwo(2.468, 3.114, 4.610, 7.660), ex3)),
        (hyper, SimStrategy.from_band(BandOne(1.0, 1.5, 4.0), hyper)),
        (backlog, SimStrategy(a12=((5.0, backlog.b),), a21=((-2.0, 1.0),), c1=((-2.0, 1.0),))),
    ]


BATCH_SETUPS = _batch_setups()


@settings(max_examples=25, deadline=None)
@given(
    setup=st.integers(0, len(BATCH_SETUPS) - 1),
    phase=st.integers(0, 2),
    frac=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**64 - 1),
    n=st.integers(1, 24),
    data=st.data(),
)
def test_batch_composition_cannot_change_a_path(setup, phase, frac, seed, n, data):
    # every path's outcome is a function of its own key and start state, so a
    # slice of a batch replays bit for bit as a batch of its own
    model, strategy = BATCH_SETUPS[setup]
    x0 = model.b if phase == 0 else model.l + frac * (model.b - model.l)
    keys = _path_keys(seed, 0, n)
    part = data.draw(st.slices(n))
    whole = _run_paths(model, strategy, x0, phase, keys)
    alone = _run_paths(model, strategy, x0, phase, keys[part])
    for w, a in zip(whole, alone):
        assert np.array_equal(w[part], a)


def test_holding_fn_paths_do_not_depend_on_the_batch(ex1_strategy):
    # the Gauss rule sums each row's nodes in a fixed order, so a callable
    # holding rate gives every path the same bits alone and in a batch
    m, band, strat = ex1_strategy

    def holding(x, phase):
        a = np.where(phase == 1, m.h1.a, np.where(phase == 2, m.h2.a, m.h0_b))
        return a + 0.002 * np.sin(x) ** 2

    keys = _path_keys(17, 0, 32)
    batch = _run_paths(m, strat, 3.0, 2, keys, holding_fn=holding)
    for p in range(len(keys)):
        alone = _run_paths(m, strat, 3.0, 2, keys[p:p + 1], holding_fn=holding)
        assert [c[p] for c in batch] == [c[0] for c in alone], f"path {p}"
