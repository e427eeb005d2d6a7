"""Numerical check that a candidate cost surface solves the HJB system.

For each producing phase the variational inequality

    min{ L_i(w_i)(x),  w_j(x) + K_ij - w_i(x) } = 0

must hold on [0, b) with L_i the integro-differential generator-plus-running-
cost operator, together with the capacity conditions: the recomputed level-b
value (restart selection by pointwise minimum) must match the candidate's,
and w_i(b-) <= w0(b) + K_i0.

All residuals are scaled by the magnitude of the surface; the same grid and
tolerance make the verdict deterministic.  The grid holds Chebyshev points
of the first kind on each zone between neighbouring thresholds, so no point
lies on a threshold, 0 or b.

One spectral pass gives every integral (_convolution; Clenshaw & Curtis
1960; Trefethen, Approximation Theory and Approximation Practice, 2013):
the demand convolutions of V1, V2 and the min-selection's restart value
min(K01 + V1, K02 + V2) are integrated together on Chebyshev panels cut at
the thresholds and at the selection's crossovers, so the number of surface
evaluations does not grow with the grid.  The first two give L1 and L2 on
the grid, with w' the derivative of the interpolant of w that the same
panels build (a one-sided slope at each threshold, with no difference
step); the third, at b, gives the level-b value.  The crossovers are the
real roots of the Chebyshev interpolant of the difference of the two
restart values on the zones where the zone table lets them cross
(Trefethen 2013, ch. 18; Boyd, SIAM J. Numer. Anal. 40, 2002), so every
panel is smooth.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from numpy.polynomial.chebyshev import (chebder, chebint, chebinterpolate, chebroots, chebval,
                                         chebvander)

from .cost_one import CostSurface
from .errors import OutOfBand, ValidationError
from .model import ModelConfig, check_phase, is_integer
from .passage import GL_START, _doubling, _orders

DEFAULT_TOL = 5e-4
DEFAULT_GRID = 400


def sorted_unique(a) -> np.ndarray:
    """The distinct values of a float array, ascending, as np.unique gives them
    for finite input, without the numpy.ma import that np.unique makes."""
    a = np.sort(a, axis=None)
    keep = np.ones(a.shape, dtype=bool)
    keep[1:] = a[1:] != a[:-1]
    return a[keep]


def _cuts(end: float, breakpoints) -> np.ndarray:
    """0, the distinct breakpoints inside (0, end), and end, ascending."""
    return sorted_unique(np.concatenate([[0.0], [p for p in breakpoints if 0.0 < p < end], [end]]))


def _chebyshev_points(n: int) -> np.ndarray:
    """The n Chebyshev points of the first kind on [-1, 1], descending."""
    return np.cos(np.pi * (np.arange(n) + 0.5) / n)


@lru_cache(maxsize=8)
def _chebyshev_rule(n: int):
    """The n Chebyshev points of the first kind on [-1, 1], and the two
    (n + 1, n) matrices that map values there to the Chebyshev coefficients
    of the interpolant's antiderivative from -1 and of its derivative (whose
    last two coefficients are 0)."""
    to_coef = 2.0 / n * np.cos(np.outer(np.arange(n), np.pi * (np.arange(n) + 0.5) / n))
    to_coef[0] /= 2.0
    return (_chebyshev_points(n), chebint(to_coef, lbnd=-1),
            np.pad(chebder(to_coef), ((0, 2), (0, 0))))


def _panels(end: float, breakpoints, rate: float):
    """(lo, hi) of panels covering [0, end], cut at every breakpoint inside
    and no longer than 1 / rate."""
    ends = _cuts(end, breakpoints)
    cuts = [np.linspace(a, c, int(np.ceil((c - a) * rate)) + 1)[1:]
            for a, c in zip(ends[:-1], ends[1:])]
    cuts = np.concatenate([[0.0]] + cuts)
    return cuts[:-1], cuts[1:]


def _convolution(model: ModelConfig, w, xs: np.ndarray, breakpoints=()):
    """(lam * int_0^x w(x - a) dF(a), w'(x)) at every point x of xs in [0, b],
    each of shape (r, len(xs)) for a w that maps nodes of shape (m,) to r
    rows of shape (r, m): the convolution is lam * sum_k w_k mu_k J_k(x),
    J_k(x) = int_0^x w(u) exp(-mu_k (x - u)) du.

    [0, b] is cut into panels at the breakpoints and into lengths of at
    most 1 / max mu_k.  On a panel [lo, hi] w(u) exp(-mu_k (hi - u)) is
    interpolated at Chebyshev points of the first kind, which never touch
    the panel's ends, and its antiderivative A_k is evaluated at the
    panel's points; then J_k(x) = exp(-mu_k (x - lo)) J_k(lo) +
    exp(mu_k (hi - x)) A_k(x), both factors at most e, and J_k(lo) is
    carried from panel to panel the same way.  w' is the derivative of the
    interpolant of w on the panel (lo, hi] that holds x (the first panel
    for x = 0), so at a breakpoint it is the slope from the left.  w is
    called once per level on all panels' nodes; the levels double under
    the shared quadrature policy (passage._doubling), which tests every
    row at once, and the slope in panel coordinates, dw/dt = w' (hi - lo)
    / 2, so a zone narrower than the panel length converges as fast as a
    wide one.  A w that jumps between breakpoints raises
    QuadratureNotConverged.
    """
    mus = np.asarray(model.demand.rates)
    ws = np.asarray(model.demand.weights)
    lo, hi = _panels(model.b, breakpoints, float(mus.max()))
    width = hi - lo
    order = np.argsort(xs, kind="stable")  # ascending, so each panel's points are one slice
    xs = xs[order]
    p = np.searchsorted(hi, xs)  # the panel (lo_p, hi_p] of each point
    t = np.clip(2.0 * (xs - lo[p]) / width[p] - 1.0, -1.0, 1.0)
    edges = np.searchsorted(p, np.arange(len(lo) + 1))
    held = [(j, slice(a, c)) for j, (a, c) in enumerate(zip(edges[:-1], edges[1:])) if c > a]

    def level(n):
        nodes, antiderivative, derivative = _chebyshev_rule(n)
        u = lo[:, None] + 0.5 * width[:, None] * (nodes + 1.0)  # (panels, n)
        wu = w(u.reshape(-1)).reshape((-1,) + u.shape)          # (r, panels, n)
        g = wu[:, None] * np.exp(-mus[:, None, None] * (hi[:, None] - u))
        coef = 0.5 * width[:, None] * (g @ antiderivative.T)   # (r, k, panels, n + 1)
        # less its value at one node, so that a w flat on a panel has slope 0
        slope = (wu - wu[..., :1]) @ derivative.T               # (r, panels, n + 1)
        rows = np.concatenate([coef.reshape((-1,) + coef.shape[2:]), slope])  # (r k + r, ...)
        vander = chebvander(t, n)
        at = np.empty((len(rows), len(t)))
        for j, s in held:  # each panel's interpolants at its own points only
            at[:, s] = rows[:, j] @ vander[s].T
        return np.concatenate([at.ravel(), coef.sum(axis=-1).ravel()])  # T_j(1) = 1

    est = _doubling((level(n) for n in _orders()),
                    lambda: "demand convolution did not converge on its panels")
    k, nx = len(mus), len(xs)
    r = len(est) // (k * (nx + len(lo)) + nx)
    at_x = est[:r * k * nx].reshape(r, k, nx)
    dw_dt = est[r * k * nx:r * (k + 1) * nx].reshape(r, nx)
    whole = est[r * (k + 1) * nx:].reshape(r, k, len(lo))
    decay = np.exp(-mus[:, None] * width)
    J_lo = np.zeros_like(whole)
    for j in range(1, len(lo)):
        J_lo[..., j] = decay[:, j - 1] * J_lo[..., j - 1] + whole[..., j - 1]
    J = (np.exp(-mus[:, None] * (xs - lo[p])) * J_lo[..., p]
         + np.exp(mus[:, None] * (hi[p] - xs)) * at_x)
    back = np.argsort(order)  # to the caller's order of xs
    return model.lam * ((ws * mus) @ J)[:, back], (dw_dt * 2.0 / width[p])[:, back]


def _generator(model: ModelConfig, phase: int, xs, w_xs, w0: float, conv, deriv) -> np.ndarray:
    """L_i(w) at xs from w there, w(0), the demand convolution and w'."""
    m = model
    return (m.sigma(phase) * deriv - (m.lam + m.q) * w_xs + conv
            + m.lam * m.demand.penalty_tail(xs, m.penalty.p0, m.penalty.p1)
            + m.lam * w0 * m.demand.sf(xs) + m.holding(phase)(xs))


def operator_L(model: ModelConfig, phase: int, w, x, breakpoints=()):
    """L_i(w)(x): drift and discount terms plus demand-jump expectations.

    w must be the full piecewise value function of its phase on [0, b)
    (switching-zone branches included), smooth between the breakpoints,
    and x must lie in [0, b] (OutOfBand otherwise).  w' is the derivative
    of the panels' interpolant of w (_convolution), so at a breakpoint it
    is the slope from the left, and at 0 the slope from the right.
    """
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    check_phase(phase)  # before w is called
    if not np.all((xs >= 0.0) & (xs <= model.b)):
        raise OutOfBand("x outside [0, b]")  # NaN too, which fails both comparisons
    conv, deriv = _convolution(model, lambda u: np.atleast_2d(w(u)), xs, breakpoints)
    w0 = float(np.atleast_1d(w(np.zeros(1)))[0])
    out = _generator(model, phase, xs, np.atleast_1d(w(xs)), w0, conv[0], deriv[0])
    return out if np.asarray(x).ndim else float(out[0])


def _restart_values(surface: CostSurface, u: np.ndarray):
    """(K01 + V1(u), K02 + V2(u)): the value of restarting in each phase at u."""
    k = surface.model.switching
    return k.k01 + surface.V(1, u), k.k02 + surface.V(2, u)


def _min_crossovers(surface: CostSurface) -> list[float]:
    """Kinks of the min-selection, ascending: where g = (K01 + V1) - (K02 + V2)
    changes sign.  The zone table holds g constant off (y2, y1) and a
    type-two band's (y4, b); on each of those zones g is interpolated at
    Chebyshev points of the first kind, and the real roots in (-1, 1) of
    the interpolant are mapped back.  The degree doubles under the shared
    quadrature policy (passage._doubling), which compares the interpolants
    of successive levels at the first level's points."""
    band, b = surface.band, surface.model.b
    roots = []
    for a, c in [(band.y2, band.y1)] + ([(band.y4, b)] if hasattr(band, "y4") else []):
        at = lambda t: a + 0.5 * (c - a) * (t + 1.0)
        fits = []

        def level(n):
            fits.append(chebinterpolate(lambda t: np.subtract(*_restart_values(surface, at(t))),
                                        n - 1))
            return chebval(_chebyshev_points(GL_START), fits[-1])

        _doubling((level(n) for n in _orders()),
                  lambda: f"restart values did not converge on ({a}, {c})")
        t = chebroots(fits[-1])
        t = t[np.isreal(t)].real
        roots += list(at(t[(-1.0 < t) & (t < 1.0)]))
    return sorted(float(r) for r in roots)


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

    def hjb(self, phase: int) -> np.ndarray:
        """min(L_i, switch slack) of phase i on the grid; the HJB variational
        inequality asks that it vanish."""
        check_phase(phase)
        if phase == 1:
            return np.minimum(self.residual_L1, self.switch_slack_12)
        return np.minimum(self.residual_L2, self.switch_slack_21)

    def summary(self) -> str:
        verdict = "pass" if self.passed else "fail"
        lines = [f"verification: {verdict} (tol {self.tol:g}, scale {self.scale:g})"]
        lines += [f"  - {f}" for f in self.failures]
        return "\n".join(lines)


def _grid(model: ModelConfig, kinks, n: int) -> np.ndarray:
    """max(2, ceil(n width / b)) Chebyshev points of the first kind on each
    zone between neighbouring thresholds (and 0 and b), ascending; none lies
    on a zone's end."""
    ends = _cuts(model.b, kinks)
    sizes = np.maximum(2, np.ceil(n * np.diff(ends) / model.b).astype(int))
    return np.concatenate([a + 0.5 * (c - a) * (1.0 + _chebyshev_points(k)[::-1])
                           for a, c, k in zip(ends[:-1], ends[1:], sizes)])


def check_settings(tol: float, grid_points: int = DEFAULT_GRID) -> None:
    """Raise ValidationError unless tol is finite and > 0 and grid_points is an
    int or numpy integer >= 1 (a bool is not one)."""
    # NaN passes any check
    if not (np.isfinite(tol) and tol > 0 and is_integer(grid_points) and grid_points >= 1):
        raise ValidationError("verification needs a finite tol > 0 and an integer grid_points"
                              f" >= 1, got tol={tol}, grid_points={grid_points!r}")


def verify_strategy(
    model: ModelConfig,
    surface: CostSurface,
    tol: float = DEFAULT_TOL,
    grid_points: int = DEFAULT_GRID,
) -> VerificationReport:
    """Check supersolution slack, solution tightness and capacity conditions.

    One pass of the demand convolution (_convolution) on three rows, V1, V2
    and the min-selection's restart value min(K01 + V1, K02 + V2), at the
    grid and at b, on panels cut at the thresholds and at the crossovers,
    gives L1 and L2 on the grid and the level-b value."""
    check_settings(tol, grid_points)
    if model != surface.model:
        raise ValidationError("verify_strategy needs the model the surface was built on")
    m = model
    k = m.switching
    kinks = tuple(surface.thresholds)
    g = _grid(m, kinks, grid_points)
    # each phase is evaluated once on the grid
    v1, v2 = surface.V(1, g), surface.V(2, g)

    def rows(u):
        w1, w2 = surface.V(1, u), surface.V(2, u)
        return np.stack([w1, w2, np.minimum(k.k01 + w1, k.k02 + w2)])

    conv, deriv = _convolution(m, rows, np.append(g, m.b), kinks + tuple(_min_crossovers(surface)))
    at0 = rows(np.zeros(1))[:, 0]
    L1 = _generator(m, 1, g, v1, at0[0], conv[0, :-1], deriv[0, :-1])
    L2 = _generator(m, 2, g, v2, at0[1], conv[1, :-1], deriv[1, :-1])

    vmax = max(1.0, float(np.max(np.abs(v1))), float(np.max(np.abs(v2))), abs(surface.V0))
    # the level-b value: the discounted restart value and overshoot penalty
    tail = m.demand.penalty_tail(m.b, m.penalty.p0, m.penalty.p1) + at0[2] * m.demand.sf(m.b)
    w0_min = float((m.h0_b + conv[2, -1] + m.lam * tail) / (m.q + m.lam))
    L0_res = float((m.q + m.lam) * (w0_min - surface.V0))
    b1 = float(surface.V(1, m.b, side=-1)) - w0_min - k.k10
    b2 = float(surface.V(2, m.b, side=-1)) - w0_min - k.k20
    report = VerificationReport(
        grid=g,
        residual_L1=L1,
        residual_L2=L2,
        switch_slack_12=v2 + k.k12 - v1,
        switch_slack_21=v1 + k.k21 - v2,
        L0_residual=L0_res,
        boundary_1=b1,
        boundary_2=b2,
        tol=tol,
        scale=vmax,
        failures=[],
    )
    tol_eff = tol * vmax
    failures = report.failures
    for phase in (1, 2):
        hjb = report.hjb(phase)
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
    if abs(L0_res) > tol_eff:
        failures.append(f"L0 residual {L0_res:.6g} (restart selection not optimal)")
    if b1 > tol_eff:
        failures.append(f"capacity condition phase 1: w1(b-) - w0 - K10 = {b1:.6g} > 0")
    if b2 > tol_eff:
        failures.append(f"capacity condition phase 2: w2(b-) - w0 - K20 = {b2:.6g} > 0")
    return report
