import dataclasses
import json
import os
import re
import sys
from pathlib import Path

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
    upper_cost_bound,
    validate,
)
from bandctl._workers import usable_workers
from bandctl.errors import InvalidStart, ValidationError
from bandctl.model import HoldingCost, PenaltyCost, SwitchMatrix
from bandctl.simulate import TRUNCATION_FRACTION, _path_keys, _run_paths, truncation_horizon
from ._oracles import estimate_occupation
from .conftest import make_ex1, make_ex1_hyper, make_ex2, make_ex3, record_pools

EX1 = make_ex1()
BACKLOG = validate(ModelConfig(**{**EX1.__dict__, "l": -2.0}), allow_backlog=True)
CASES_FILE = Path(__file__).parent / "data" / "simulate-cases.json"


def _path(model, strategy, x0, phase, seed):
    """(holding, shortage, switching) of path 0 of seed's stream."""
    keys = _path_keys(seed, 0, 1)
    return tuple(float(c[0]) for c in _run_paths(model, strategy, x0, phase, keys))


@pytest.fixture(scope="module")
def ex1_strategy():
    m = make_ex1()
    band = BandOne(1.526, 1.526, 5.077)
    return m, band, SimStrategy.from_band(band, m)


def test_from_band_doshi_sets(ex1_strategy):
    m, band, strat = ex1_strategy
    assert strat == SimStrategy(y2=band.y2, y3=band.y3, y1=band.y1, top=m.b)
    strat.check(m)
    assert SimStrategy.from_band(BandTwo(1.0, 1.5, 4.0, 7.0), m).top == 7.0


# (model, band, accepted) at the edges of l <= y2 <= y3 < y1 <= top <= b and
# of its 1e-12 slack at y3 and b; a NaN threshold or a switching zone that
# lies below l is rejected too
@pytest.mark.parametrize("model, band, accepted", [
    pytest.param(EX1, BandOne(1.526, 1.526, 5.077), True, id="doshi"),
    pytest.param(EX1, BandOne(0.0, 0.0, 3.374), True, id="y2-at-l"),
    pytest.param(EX1, BandTwo(1.0, 1.5, 4.0, 7.0), True, id="two"),
    pytest.param(EX1, BandTwo(1.0, 1.5, 4.0, 4.0), True, id="y4-at-y1"),
    pytest.param(EX1, BandOne(2.0, 1.5, 5.0), False, id="y2-above-y3"),
    pytest.param(EX1, BandOne(1.5 + 5e-13, 1.5, 5.0), True, id="y2-above-y3-in-slack"),
    pytest.param(EX1, BandOne(1.5 + 2e-12, 1.5, 5.0), False, id="y2-above-y3-past-slack"),
    pytest.param(EX1, BandOne(1.0, 3.0, 3.0), False, id="y1-at-y3"),
    pytest.param(EX1, BandOne(1.0, 4.0, 3.0), False, id="y1-below-y3"),
    pytest.param(EX1, BandTwo(1.0, 1.5, 5.0, 4.0), False, id="y4-below-y1"),
    pytest.param(EX1, BandTwo(1.0, 1.5, 5.0, 10.5), False, id="top-above-b"),
    pytest.param(EX1, BandTwo(1.0, 1.5, 5.0, 10.0 + 5e-13), True, id="top-above-b-in-slack"),
    pytest.param(EX1, BandTwo(1.0, 1.5, 5.0, 10.0 + 2e-12), False,
                 id="top-above-b-past-slack"),
    pytest.param(EX1, BandOne(1.0, 1.5, 11.0), False, id="y1-above-b"),
    pytest.param(EX1, BandOne(-0.5, 1.5, 5.0), False, id="y2-below-l"),
    pytest.param(EX1, BandOne(0.0, -5e-13, 5.0), False, id="y3-below-l"),
    pytest.param(BACKLOG, BandOne(-1.0, 0.5, 5.0), True, id="backlog"),
    pytest.param(BACKLOG, BandOne(-2.0, -2.0, 5.0), True, id="backlog-y2-at-l"),
    pytest.param(BACKLOG, BandOne(-2.5, 0.5, 5.0), False, id="backlog-y2-below-l"),
    pytest.param(EX1, BandOne(1.0, 1.5, np.nan), False, id="nan-y1"),
    pytest.param(EX1, BandTwo(1.0, 1.5, 5.0, np.nan), False, id="nan-y4"),
    pytest.param(EX1, BandTwo(0.0, 0.0, -5e-13, -4e-13), False, id="zone-below-l"),
])
def test_strategy_check_verdicts(model, band, accepted):
    strategy = SimStrategy.from_band(band, model)
    if accepted:
        assert strategy.check(model) is strategy
    else:
        with pytest.raises(ValidationError):
            strategy.check(model)


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
        hold, short, sw = _path(flat, strat, 3.0, 2, seed)
        assert hold == pytest.approx(expected, abs=1e-9)
        assert short == 0.0


def test_idle_at_capacity_until_first_demand():
    # demand arrivals far beyond the horizon: a phase-0 start just accrues h0
    m = make_ex1()
    sleepy = validate(ModelConfig(**{**m.__dict__, "lam": 1e-9}))
    strat = SimStrategy.from_band(BandOne(1.5, 1.5, 5.0), sleepy)
    t_star = truncation_horizon(sleepy)
    hold, short, sw = _path(sleepy, strat, sleepy.b, 0, 3)
    assert hold + short + sw == pytest.approx(sleepy.h0_b * (1 - np.exp(-sleepy.q * t_star)) / sleepy.q,
                                  rel=1e-12)
    assert (short, sw) == (0.0, 0.0)


def test_path_determinism(ex1_strategy):
    m, band, strat = ex1_strategy
    a = _path(m, strat, 3.0, 1, 12345)
    assert a == _path(m, strat, 3.0, 1, 12345)
    assert a != _path(m, strat, 3.0, 1, 12346)


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


def test_estimate_pool_matches_one_process(ex1_strategy):
    # 26,000 paths: two chunks in one process, three chunks over a 2-worker pool
    m, band, strat = ex1_strategy
    e1 = estimate_cost(m, strat, 5.0, 1, 26_000, base_seed=13, jobs=1)
    e2 = estimate_cost(m, strat, 5.0, 1, 26_000, base_seed=13, jobs=2)
    assert e1 == e2


@pytest.mark.parametrize("host", ["two-cpus", "python-3.12", "no-sched-getaffinity"])
def test_estimate_forks_workers_where_the_polish_does(host, ex1_strategy, monkeypatch):
    # jobs bounds the workers; they are forked under the polish's rule, so
    # never from Python 3.12 or where os.sched_getaffinity is missing
    m, band, strat = ex1_strategy
    serial = estimate_cost(m, strat, 5.0, 1, 26_000, base_seed=13, jobs=1)
    pools = record_pools(monkeypatch)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    if host == "python-3.12":
        monkeypatch.setattr(sys, "version_info", (3, 12, 0))
    elif host == "no-sched-getaffinity":
        monkeypatch.delattr(os, "sched_getaffinity")
    made = [(2, "fork")] if host == "two-cpus" and usable_workers(3) > 1 else []
    assert estimate_cost(m, strat, 5.0, 1, 26_000, base_seed=13, jobs=3) == serial
    assert pools == made


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
        estimate_cost(m, strat, 5.0, 0, 2, base_seed=1)  # phase 0 away from b
    with pytest.raises(InvalidStart):
        estimate_cost(m, strat, m.b + 1.0, 1, 2, base_seed=1)
    with pytest.raises(InvalidStart):
        estimate_occupation(m, 2, 2.0, 8.0, 9.0, 100, 5, base_seed=1)


@pytest.mark.parametrize("phase0", [3, -1, 1.5, True, np.int64(3)],
                         ids=["3", "-1", "1.5", "True", "int64-3"])
def test_start_phase_must_be_0_1_or_2(ex1_strategy, phase0):
    # rejected before any round runs: 3 and -1 used to index past the phase
    # tables, and 1.5 ran as phase 1
    m, band, strat = ex1_strategy
    with pytest.raises(InvalidStart, match=r"phase0 must be the integer 0, 1 or 2, got "):
        estimate_cost(m, strat, 2.0, phase0, 100, base_seed=1)


def test_start_phase_accepts_numpy_integers(ex1_strategy):
    m, band, strat = ex1_strategy
    assert (estimate_cost(m, strat, 2.0, np.int64(1), 100, base_seed=1)
            == estimate_cost(m, strat, 2.0, 1, 100, base_seed=1))


@pytest.mark.parametrize("seed", [np.int64(3), np.uint64(3), np.int64(-1)],
                         ids=["int64", "uint64", "int64-minus-1"])
def test_numpy_integer_seeds_give_the_int_seeds_estimate(ex1_strategy, seed):
    # np.int64(3) & 0xFFFFFFFFFFFFFFFF used to overflow; -1 is 2**64 - 1
    m, band, strat = ex1_strategy
    assert (estimate_cost(m, strat, 2.0, 1, 100, base_seed=seed)
            == estimate_cost(m, strat, 2.0, 1, 100, base_seed=int(seed)))


@pytest.mark.parametrize("name, value", [
    ("base_seed", 1.5), ("base_seed", "7"), ("base_seed", True),
    ("n_paths", 100.0), ("n_paths", np.float64(100.0)),
    ("jobs", 2.5), ("jobs", 0), ("jobs", -1),
], ids=["seed-float", "seed-str", "seed-bool", "paths-float", "paths-numpy-float",
        "jobs-float", "jobs-0", "jobs-minus-1"])
def test_estimate_rejects_a_bad_count_or_seed(ex1_strategy, name, value):
    # a float or string seed or path count used to raise a bare TypeError,
    # True ran as seed 1, and every one of these jobs values ran
    m, band, strat = ex1_strategy
    kwargs = {"n_paths": 100, "base_seed": 1, "jobs": 1, name: value}
    with pytest.raises(ValidationError, match=re.escape(f"{name}={value!r}")):
        estimate_cost(m, strat, 2.0, 1, **kwargs)


def test_backlog_floor_supported():
    strat = SimStrategy.from_band(BandOne(1.0, 1.0, 5.0), BACKLOG).check(BACKLOG)
    assert np.isfinite(sum(_path(BACKLOG, strat, 0.0, 1, 4)))
    est = estimate_cost(BACKLOG, strat, 0.0, 1, 2000, base_seed=4)
    assert est.mean < upper_cost_bound(BACKLOG)


def _batch_setups():
    """(model, strategy) pairs: a band, a type-two band, mixture demand, a backlog floor."""
    ex3 = make_ex3()
    hyper = validate(ModelConfig(**{
        **EX1.__dict__,
        "demand": DemandLaw.hyperexponential([0.3, 0.4, 0.3], [0.8, 1.5, 4.0]),
    }))
    return [
        (EX1, SimStrategy.from_band(BandOne(1.526, 1.526, 5.077), EX1)),
        (ex3, SimStrategy.from_band(BandTwo(2.468, 3.114, 4.610, 7.660), ex3)),
        (hyper, SimStrategy.from_band(BandOne(1.0, 1.5, 4.0), hyper)),
        (BACKLOG, SimStrategy.from_band(BandOne(1.0, 1.0, 5.0), BACKLOG)),
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


def _recorded_cases():
    """Case id -> (model, band, x0, phase, n_paths, jobs): starts that crosscheck does not run.

    Each case's seed is the sum of its id's character codes.
    """
    ex2, ex3 = make_ex2(), make_ex3()
    two2 = BandTwo(6.2125852514684965, 9.804502364299498, 17.294129965012793, 19.972907820461227)
    two3 = BandTwo(2.4680949887268673, 3.1139494044399276, 4.610298075485835, 7.66020993650117)
    backlog = BandOne(1.0, 1.0, 5.0)
    return {
        "ex2-two-phase0-at-b": (ex2, two2, ex2.b, 0, 2000, 1),
        "ex3-two-phase1-in-zone": (ex3, two3, 6.0, 1, 2000, 1),  # switches at t = 0
        "ex3-two-phase1-above-y4": (ex3, two3, 9.0, 1, 2000, 1),
        "backlog-phase1": (BACKLOG, backlog, -1.0, 1, 2000, 1),
        "backlog-phase0-at-b": (BACKLOG, backlog, BACKLOG.b, 0, 2000, 1),
        "hyper-two": (make_ex1_hyper(), BandTwo(1.0, 1.5, 4.0, 7.0), 2.0, 1, 2000, 1),
        # recorded at jobs=1: two workers must give the same bits
        "ex1-30000-jobs2": (EX1, BandOne(1.526, 1.526, 5.077), 3.0, 1, 30_000, 2),
    }


RECORDED_CASES = _recorded_cases()


@pytest.mark.parametrize("case", list(RECORDED_CASES))
def test_estimate_matches_recorded_case(case):
    model, band, x0, phase, n_paths, jobs = RECORDED_CASES[case]
    expected = json.loads(CASES_FILE.read_text())[case]
    est = estimate_cost(model, SimStrategy.from_band(band, model), x0, phase, n_paths,
                        base_seed=sum(map(ord, case)), jobs=jobs)
    assert dataclasses.asdict(est) == expected
