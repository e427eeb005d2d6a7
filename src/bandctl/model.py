"""Problem-instance representation and validation.

A model instance describes a finite-capacity inventory fed at one of two
production rates (phase 1 fast, phase 2 slow, phase 0 off at capacity) and
drained by compound-Poisson demand.  All cost coefficients are dimensionless
reals; units are documented, not enforced.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, is_dataclass
from typing import Iterable

import numpy as np

from .errors import (
    BacklogUnsupported,
    NegativeCost,
    NonOrderedRates,
    SwitchInequalityViolated,
    ValidationError,
)

_WEIGHT_TOL = 1e-12


@dataclass(frozen=True)
class DemandLaw:
    """Demand-size distribution: exponential or a finite exponential mixture.

    A plain exponential is stored as a one-component mixture so that every
    consumer can iterate over (weight, rate) pairs uniformly.
    """

    weights: tuple[float, ...]
    rates: tuple[float, ...]

    @classmethod
    def exponential(cls, rate: float) -> "DemandLaw":
        return cls((1.0,), (float(rate),))

    @classmethod
    def hyperexponential(cls, weights: Iterable[float], rates: Iterable[float]) -> "DemandLaw":
        return cls(tuple(float(w) for w in weights), tuple(float(r) for r in rates))

    @property
    def kind(self) -> str:
        return "exponential" if len(self.rates) == 1 else "hyperexponential"

    @property
    def mean(self) -> float:
        return float(sum(w / r for w, r in zip(self.weights, self.rates)))

    def check(self) -> None:
        if len(self.weights) != len(self.rates) or not self.rates:
            raise ValidationError("demand mixture needs matching, nonempty weights and rates")
        if any(r <= 0 for r in self.rates):
            raise ValidationError("demand rates must be strictly positive")
        if any(w <= 0 for w in self.weights):
            raise ValidationError("demand mixture weights must be strictly positive")
        if abs(sum(self.weights) - 1.0) > _WEIGHT_TOL:
            raise ValidationError("demand mixture weights must sum to 1")

    # -- transforms and distribution functions (vectorized in x / theta) --

    def laplace(self, theta):
        """E[exp(-theta Y)] for theta >= 0."""
        theta = np.asarray(theta, dtype=float)
        out = sum(w * r / (r + theta) for w, r in zip(self.weights, self.rates))
        return out if out.shape else float(out)

    def laplace_deriv(self, theta):
        """d/dtheta E[exp(-theta Y)] = -E[Y exp(-theta Y)]."""
        theta = np.asarray(theta, dtype=float)
        out = sum(-w * r / (r + theta) ** 2 for w, r in zip(self.weights, self.rates))
        return out if out.shape else float(out)

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        out = sum(w * r * np.exp(-r * np.maximum(x, 0.0)) for w, r in zip(self.weights, self.rates))
        out = np.where(x >= 0, out, 0.0)
        return out if out.shape else float(out)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        out = sum(w * (1.0 - np.exp(-r * np.maximum(x, 0.0))) for w, r in zip(self.weights, self.rates))
        out = np.where(x >= 0, out, 0.0)
        return out if out.shape else float(out)

    def sf(self, x):
        """Survival function 1 - F(x); equals 1 for x <= 0."""
        x = np.asarray(x, dtype=float)
        out = sum(w * np.exp(-r * np.maximum(x, 0.0)) for w, r in zip(self.weights, self.rates))
        return out if out.shape else float(out)

    def penalty_tail(self, z, p0: float, p1: float):
        """Closed form of int_z^inf (p0 + p1*(v - z)) dF(v) for z >= 0."""
        z = np.asarray(z, dtype=float)
        out = sum(
            w * np.exp(-r * np.maximum(z, 0.0)) * (p0 + p1 / r)
            for w, r in zip(self.weights, self.rates)
        )
        return out if out.shape else float(out)


@dataclass(frozen=True)
class HoldingCost:
    """Affine holding/production cost rate a + c*x per unit time."""

    a: float
    c: float

    def __call__(self, x):
        return self.a + self.c * np.asarray(x, dtype=float)

    def check(self, name: str) -> None:
        if self.a < 0 or self.c < 0:
            raise NegativeCost(f"{name}: holding coefficients must be >= 0")


@dataclass(frozen=True)
class PenaltyCost:
    """Affine shortage penalty p(y) = p0 + p1*y on the lost part of a demand."""

    p0: float
    p1: float

    def __call__(self, y):
        return self.p0 + self.p1 * np.asarray(y, dtype=float)

    def check(self) -> None:
        if self.p0 < 0 or self.p1 < 0:
            raise NegativeCost("penalty coefficients must be >= 0")

    def mean_under(self, demand: DemandLaw) -> float:
        return self.p0 + self.p1 * demand.mean


@dataclass(frozen=True)
class SwitchMatrix:
    """Fixed switching costs K_ij between phases 0 (off), 1 (fast), 2 (slow)."""

    k01: float
    k02: float
    k10: float
    k12: float
    k20: float
    k21: float

    def check(self) -> None:
        vals = (self.k01, self.k02, self.k10, self.k12, self.k20, self.k21)
        if any(v < 0 for v in vals):
            raise NegativeCost("switching costs must be >= 0")
        if self.k01 > self.k02 + self.k21 + 1e-15 or self.k02 > self.k01 + self.k12 + 1e-15:
            raise SwitchInequalityViolated(
                "restart costs must satisfy K0i <= K0j + Kji for {i,j} = {1,2}"
            )
        if self.k12 + self.k21 <= 0:
            raise SwitchInequalityViolated("K12 + K21 must be strictly positive")


@dataclass(frozen=True)
class ModelConfig:
    """Full problem instance.

    sigma1/sigma2 are the fast/slow production rates, lam the demand arrival
    rate, q the discount rate, b the storage capacity and l <= 0 the backlog
    floor (0 for the analytic engine; the simulator accepts l < 0).
    """

    sigma1: float
    sigma2: float
    lam: float
    q: float
    b: float
    l: float
    demand: DemandLaw
    h1: HoldingCost
    h2: HoldingCost
    h0_b: float
    penalty: PenaltyCost
    switching: SwitchMatrix

    def holding(self, phase: int) -> HoldingCost:
        check_phase(phase)
        return self.h1 if phase == 1 else self.h2

    def sigma(self, phase: int) -> float:
        check_phase(phase)
        return self.sigma1 if phase == 1 else self.sigma2


def _check_finite(value, name: str) -> None:
    """Raise ValidationError at the first NaN or infinity in a config value."""
    if is_dataclass(value):
        for f in fields(value):
            _check_finite(getattr(value, f.name), f"{name}.{f.name}" if name else f.name)
    elif isinstance(value, tuple):
        for i, v in enumerate(value):
            _check_finite(v, f"{name}[{i}]")
    elif not np.isfinite(value):
        raise ValidationError(f"{name} must be finite, got {value}")


def is_integer(value) -> bool:
    """Whether value is an int or a numpy integer that is not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def check_phase(phase) -> None:
    """Raise ValidationError unless phase is 1 or 2 and an integer (is_integer)."""
    if not (is_integer(phase) and phase in (1, 2)):
        raise ValidationError(f"phase must be the integer 1 or 2, got {phase!r}")


def validate(model: ModelConfig, allow_backlog: bool = False) -> ModelConfig:
    """Check every invariant; return the config unchanged if all hold.

    Every number must be finite.  With allow_backlog=True a negative floor
    l passes validation (the simulator supports it); the analytic engine
    always rejects l < 0.
    """
    _check_finite(model, "")
    if not (0 < model.sigma2 < model.sigma1):
        raise NonOrderedRates(f"need 0 < sigma2 < sigma1, got {model.sigma2}, {model.sigma1}")
    if model.lam <= 0:
        raise ValidationError("demand arrival rate must be > 0")
    if model.q <= 0:
        raise ValidationError("discount rate must be > 0")
    if model.b <= 0:
        raise ValidationError("capacity b must be > 0")
    if model.l > 0:
        raise ValidationError("backlog floor l must be <= 0")
    if model.l < 0 and not allow_backlog:
        raise BacklogUnsupported(
            "l < 0 is simulator-only; the analytic engine requires l = 0"
        )
    if model.h0_b < 0:
        raise NegativeCost("h0_b must be >= 0")
    model.demand.check()
    model.h1.check("h1")
    model.h2.check("h2")
    model.penalty.check()
    model.switching.check()
    return model


def upper_cost_bound(model: ModelConfig) -> float:
    """Explicit upper bound on every optimal cost value.

    Used for simulation truncation and as a sanity cap on computed surfaces:
    sup holding / q, plus the discounted penalty stream, plus the worst
    switch-off/restart cycle cost repeated at the demand arrival rate.
    """
    hbar = max(model.h1(model.b), model.h2(model.b), model.h0_b)
    p_mean = model.penalty.mean_under(model.demand)
    k = model.switching
    cycle = max(
        k.k10 + (k.k10 + k.k01) * model.lam / model.q,
        k.k20 + (k.k20 + k.k02) * model.lam / model.q,
    )
    return hbar / model.q + (model.lam / model.q) * p_mean * (1 + model.q / model.lam) + cycle
