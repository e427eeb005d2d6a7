"""Numerical check that a candidate cost surface solves the HJB system.

For each producing phase the variational inequality

    min{ L_i(w_i)(x),  w_j(x) + K_ij - w_i(x) } = 0

must hold on [0, b) with L_i the integro-differential generator-plus-running-
cost operator, together with the capacity conditions: the recomputed level-b
value (restart selection by pointwise minimum) must match the candidate's,
and w_i(b-) <= w0(b) + K_i0.

All residuals are scaled by the magnitude of the surface; the same grid and
tolerance make the verdict deterministic.  Derivatives come from central
differences (one-sided at detected kinks); the demand convolutions are
evaluated through cumulative exponential transforms so a whole grid costs a
handful of vectorized quadratures.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cost_one import CostSurface
from .errors import ValidationError
from .model import ModelConfig
from .passage import integrate_rows

DEFAULT_TOL = 5e-4
_FD_STEP = 1e-5
_EDGE = 1e-3        # keep the grid this far from 0 and b
_KINK_WINDOW = 1e-4  # exclusion half-width around thresholds


def _segment_transforms(w, cuts: np.ndarray, mus: np.ndarray) -> np.ndarray:
    """int over each [cuts_j, cuts_j+1] of w(u) exp(mu_k u) du, shape (k, nseg).

    Shares the w evaluations across demand components; node-doubling per the
    shared quadrature policy.
    """

    def f(u):
        return w(u.reshape(-1)).reshape(u.shape) * np.exp(mus[:, None, None] * u)

    return integrate_rows(f, cuts[:-1], cuts[1:])


def _convolution(model: ModelConfig, w, xs: np.ndarray, breakpoints=()) -> np.ndarray:
    """lam * int_0^x w(x - a) dF(a) at every grid point, via
    int_0^x w(u) f(x-u) du = sum_k w_k mu_k e^{-mu_k x} int_0^x w(u) e^{mu_k u} du."""
    mus = np.asarray(model.demand.rates)
    ws = np.asarray(model.demand.weights)
    inner = [p for p in set(breakpoints) if 0.0 < p < float(xs.max())]
    cuts = np.unique(np.concatenate([[0.0], xs, inner]))
    seg = _segment_transforms(w, cuts, mus)
    prefix = np.concatenate([np.zeros((len(mus), 1)), np.cumsum(seg, axis=1)], axis=1)
    pos = np.searchsorted(cuts, xs)
    C = prefix[:, pos]                              # (k, nx)
    out = (ws * mus) @ (np.exp(-mus[:, None] * xs) * C)
    return model.lam * out


def _derivative(w, xs: np.ndarray, w0: np.ndarray) -> np.ndarray:
    """Central difference; at a detected kink, the smaller one-sided slope.

    A convex corner constrains supersolution test functions through its
    smallest slope; a concave corner constrains nothing, and using the
    smaller slope is then conservative for the operator (sigma > 0).
    w0 holds w(xs).
    """
    h = _FD_STEP
    wm, wp = w(xs - h), w(xs + h)
    d_minus = (w0 - wm) / h
    d_plus = (wp - w0) / h
    central = (wp - wm) / (2 * h)
    scale = 1.0 + np.maximum(np.abs(d_minus), np.abs(d_plus))
    kink = np.abs(d_plus - d_minus) > 1e-3 * scale
    return np.where(kink, np.minimum(d_minus, d_plus), central)


def operator_L(model: ModelConfig, phase: int, w, x, w_prime=None, breakpoints=(),
               w_x=None):
    """L_i(w)(x): drift and discount terms plus demand-jump expectations.

    w must be the full piecewise value function of its phase on [0, b)
    (switching-zone branches included); w_prime overrides finite differences.
    w_x, when given, holds w(x), so that a caller that already evaluated w
    on x does not evaluate it again.
    """
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    m = model
    w_xs = np.atleast_1d(w(xs) if w_x is None else w_x)
    deriv = w_prime(xs) if w_prime is not None else _derivative(w, xs, w_xs)
    conv = _convolution(m, w, xs, breakpoints=breakpoints)
    ptail = m.lam * m.demand.penalty_tail(xs, m.penalty.p0, m.penalty.p1)
    w0 = float(np.atleast_1d(w(np.zeros(1)))[0])
    h = m.holding(phase)(xs)
    out = (
        m.sigma(phase) * deriv
        - (m.lam + m.q) * w_xs
        + conv
        + ptail
        + m.lam * w0 * m.demand.sf(xs)
        + h
    )
    return out if np.asarray(x).ndim else float(out[0])


def _vbar_min(surface: CostSurface, u: np.ndarray) -> np.ndarray:
    k = surface.model.switching
    return np.minimum(k.k01 + surface.V(1, u), k.k02 + surface.V(2, u))


def _vbar_strategy(surface: CostSurface, u: np.ndarray) -> np.ndarray:
    k = surface.model.switching
    y3 = surface.band.y3
    return np.where(u <= y3, k.k01 + surface.V(1, u), k.k02 + surface.V(2, u))


def _min_crossovers(surface: CostSurface, n: int = 800) -> list[float]:
    """Sign changes of (K01 + V1) - (K02 + V2): kinks of the min-selection."""
    m = surface.model
    u = np.linspace(1e-9, m.b - 1e-9, n)
    k = m.switching
    g = (k.k01 + surface.V(1, u)) - (k.k02 + surface.V(2, u))
    s = np.sign(g)
    idx = np.nonzero(s[:-1] * s[1:] < 0)[0]
    return [float(0.5 * (u[i] + u[i + 1])) for i in idx]


def level_b_value(model: ModelConfig, surface: CostSurface, selection: str = "min") -> float:
    """Theorem-style level-b value from (w1, w2): the discounted expectation
    of the selected restart value plus the overshoot penalty."""
    m = model
    vbar = _vbar_min if selection == "min" else _vbar_strategy
    breaks = sorted(set(surface.thresholds) | set(_min_crossovers(surface) if selection == "min" else []))
    mus = np.asarray(m.demand.rates)
    ws = np.asarray(m.demand.weights)
    cuts = np.unique(np.concatenate([[0.0], [p for p in breaks if 0 < p < m.b], [m.b]]))
    seg = _segment_transforms(lambda u: vbar(surface, u), cuts, mus)
    C = seg.sum(axis=1)
    integral = float((ws * mus) @ (np.exp(-mus * m.b) * C))
    tail = float(m.demand.penalty_tail(m.b, m.penalty.p0, m.penalty.p1))
    vbar0 = float(vbar(surface, np.zeros(1))[0])
    return (m.h0_b + m.lam * (integral + tail + vbar0 * m.demand.sf(m.b))) / (m.q + m.lam)


def operator_L0(model: ModelConfig, surface: CostSurface, selection: str = "min") -> float:
    """L_0 applied to the surface's own level-b value.

    selection="min" is the verification-theorem form; "strategy" uses the
    band's restart zone and vanishes for every assembled band surface.
    """
    w0 = level_b_value(model, surface, selection=selection)
    return (model.q + model.lam) * (w0 - surface.V0)


@dataclass
class VerificationReport:
    grid: np.ndarray = field(repr=False)
    residual_L1: np.ndarray = field(repr=False)
    residual_L2: np.ndarray = field(repr=False)
    switch_slack_12: np.ndarray = field(repr=False)
    switch_slack_21: np.ndarray = field(repr=False)
    L0_residual: float
    boundary_1: float  # w1(b-) - w0(b) - K10
    boundary_2: float  # w2(b-) - w0(b) - K20
    tol: float
    scale: float
    failures: list[str]

    @property
    def passed(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        verdict = "pass" if self.passed else "fail"
        lines = [f"verification: {verdict} (tol {self.tol:g}, scale {self.scale:g})"]
        lines += [f"  - {f}" for f in self.failures]
        return "\n".join(lines)


def _grid(model: ModelConfig, kinks, n: int) -> np.ndarray:
    """Base grid refined x4 near thresholds, minus kink exclusion windows."""
    b = model.b
    xs = np.linspace(_EDGE, b - _EDGE, n)
    extra = []
    for t in kinks:
        w = b / 80.0
        extra.append(np.linspace(max(t - w, _EDGE), min(t + w, b - _EDGE), 32))
    xs = np.unique(np.concatenate([xs] + extra))
    for t in kinks:
        xs = xs[np.abs(xs - t) > _KINK_WINDOW]
    return xs


def verify_strategy(
    model: ModelConfig,
    surface: CostSurface,
    tol: float = DEFAULT_TOL,
    grid_points: int = 400,
) -> VerificationReport:
    """Check supersolution slack, solution tightness and capacity conditions."""
    if not (np.isfinite(tol) and tol > 0 and grid_points >= 1):  # NaN would pass any check
        raise ValidationError(f"verification needs a finite tol > 0 and grid_points >= 1, "
                              f"got tol={tol}, grid_points={grid_points}")
    m = model
    k = m.switching
    kinks = tuple(getattr(surface, "thresholds", ()))
    g = _grid(m, kinks, grid_points)
    w1 = lambda x: surface.V(1, x)
    w2 = lambda x: surface.V(2, x)
    # each phase is evaluated once on the grid
    v1, v2 = w1(g), w2(g)

    L1 = operator_L(m, 1, w1, g, breakpoints=kinks, w_x=v1)
    L2 = operator_L(m, 2, w2, g, breakpoints=kinks, w_x=v2)
    slack12 = v2 + k.k12 - v1
    slack21 = v1 + k.k21 - v2

    vmax = max(
        1.0,
        float(np.max(np.abs(v1))),
        float(np.max(np.abs(v2))),
        abs(surface.V0),
    )
    tol_eff = tol * vmax

    failures: list[str] = []
    for phase, L, slack in ((1, L1, slack12), (2, L2, slack21)):
        hjb = np.minimum(L, slack)
        lo_i = int(np.argmin(hjb))
        if hjb[lo_i] < -tol_eff:
            failures.append(
                f"phase {phase}: min(L, switch slack) = {hjb[lo_i]:.6g} at x = {g[lo_i]:.4f}"
            )
        hi_i = int(np.argmax(hjb))
        if hjb[hi_i] > tol_eff:
            failures.append(
                f"phase {phase}: HJB minimum not tight: {hjb[hi_i]:.6g} at x = {g[hi_i]:.4f}"
            )

    w0_min = level_b_value(m, surface, selection="min")
    L0_res = (m.q + m.lam) * (w0_min - surface.V0)
    if abs(L0_res) > tol_eff:
        failures.append(f"L0 residual {L0_res:.6g} (restart selection not optimal)")
    b1 = float(surface.V(1, m.b, side=-1)) - w0_min - k.k10
    b2 = float(surface.V(2, m.b, side=-1)) - w0_min - k.k20
    if b1 > tol_eff:
        failures.append(f"capacity condition phase 1: w1(b-) - w0 - K10 = {b1:.6g} > 0")
    if b2 > tol_eff:
        failures.append(f"capacity condition phase 2: w2(b-) - w0 - K20 = {b2:.6g} > 0")

    return VerificationReport(
        grid=g,
        residual_L1=L1,
        residual_L2=L2,
        switch_slack_12=slack12,
        switch_slack_21=slack21,
        L0_residual=float(L0_res),
        boundary_1=b1,
        boundary_2=b2,
        tol=tol,
        scale=vmax,
        failures=failures,
    )
