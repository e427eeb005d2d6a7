import os
import re

import pytest

from bandctl import (
    DemandLaw,
    HoldingCost,
    ModelConfig,
    PenaltyCost,
    SwitchMatrix,
    escalate,
    validate,
)


def make_ex1() -> ModelConfig:
    """Two manufacturing units, capacity 10, exponential(1.5) demands."""
    return validate(ModelConfig(
        sigma1=3.0, sigma2=1.5, lam=2.0, q=0.1, b=10.0, l=0.0,
        demand=DemandLaw.exponential(1.5),
        h1=HoldingCost(0.041, 0.001), h2=HoldingCost(0.021, 0.001), h0_b=0.011,
        penalty=PenaltyCost(0.8, 0.4),
        switching=SwitchMatrix(k01=4.0, k02=2.0, k10=4.0, k12=1.0, k20=2.0, k21=2.0),
    ))


def make_ex2() -> ModelConfig:
    """Close production rates, capacity 20, exponential(1) demands."""
    return validate(ModelConfig(
        sigma1=2.5, sigma2=2.2, lam=2.0, q=0.1, b=20.0, l=0.0,
        demand=DemandLaw.exponential(1.0),
        h1=HoldingCost(0.030, 0.001), h2=HoldingCost(0.020, 0.001), h0_b=0.0202,
        penalty=PenaltyCost(0.8, 0.4),
        switching=SwitchMatrix(k01=0.0, k02=0.0, k10=0.0055, k12=0.05, k20=0.005,
                               k21=0.05),
    ))


def make_ex3() -> ModelConfig:
    """Steep holding slope, capacity 10, exponential(1) demands."""
    return validate(ModelConfig(
        sigma1=3.5, sigma2=2.5, lam=2.0, q=0.1, b=10.0, l=0.0,
        demand=DemandLaw.exponential(1.0),
        h1=HoldingCost(0.01, 0.12), h2=HoldingCost(0.01, 0.12), h0_b=1.01,
        penalty=PenaltyCost(2.0, 1.1),
        switching=SwitchMatrix(k01=0.0, k02=0.0, k10=0.01, k12=0.05, k20=0.0, k21=0.05),
    ))


def make_ex1_hyper() -> ModelConfig:
    """Example one with three-component hyper-exponential demand."""
    demand = DemandLaw.hyperexponential([0.3, 0.4, 0.3], [0.8, 1.5, 4.0])
    return validate(ModelConfig(**{**make_ex1().__dict__, "demand": demand}))


@pytest.fixture(scope="session")
def ex1():
    return make_ex1()


@pytest.fixture(scope="session")
def ex2():
    return make_ex2()


@pytest.fixture(scope="session")
def ex3():
    return make_ex3()


class _SolveCache:
    """Runs the escalation workflow once per example per session."""

    def __init__(self):
        self._results = {}
        self.runtimes = {}

    def __call__(self, name: str, model: ModelConfig):
        if name not in self._results:
            import time

            t0 = time.perf_counter()
            self._results[name] = escalate(model)
            self.runtimes[name] = time.perf_counter() - t0
        return self._results[name]


@pytest.fixture(scope="session")
def solve_cached():
    return _SolveCache()


def mc_band(result):
    """Simulator strategy for an optimization result's band."""
    from bandctl import SimStrategy

    return SimStrategy.from_band(result.band, result.surface.model)


def assert_within_se(analytic: float, est_mean: float, est_se: float, slack: float,
                     n_se: float = 3.0, label: str = ""):
    gap = abs(analytic - est_mean)
    budget = n_se * est_se + slack
    assert gap <= budget, (
        f"{label}: analytic {analytic:.6f} vs MC {est_mean:.6f} "
        f"(gap {gap:.6f} > {n_se} SE + truncation = {budget:.6f})"
    )


def strip_timing(text: str) -> str:
    """A JSON report with its timing_seconds value zeroed, the one field that varies."""
    return re.sub(r'"timing_seconds": [0-9eE\.\+\-]+', '"timing_seconds": 0', text)


def record_forks(monkeypatch) -> list:
    """Record the pid of each worker process forked from now on."""
    pids = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return pids
