"""Threshold search: best two-threshold policy, then type one, then type two.

Each stage minimizes the level-b value V0(b) with a coarse feasible lattice
followed by Nelder-Mead polish (with constraint repair by projection), and
hands its winner to the HJB verifier; escalation stops at the first class
whose optimum verifies.  A lattice is evaluated per (y2, y3) group, the
group's y1 values in one assembly (cost_one.lattice_V0).  Candidates are
listed in (y2, y3, y1) order and the sort is stable, so ties keep that
order and the polish starts do not depend on the grouping.  The polish
evaluates one band per call through total_cost.  V0(b) does not depend on y4, so the
type-two stage reuses the type-one thresholds and picks y4 separately: it
minimizes the worst phase-1 value over a probe grid in (y1, b) by
golden-section search, with verification as the final arbiter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .cost_one import BandOne, BandTwo, CostSurface, lattice_V0, total_cost
from .cost_two import total_cost_two
from .errors import NoFeasiblePoint
from .model import ModelConfig
from .verify import DEFAULT_TOL, VerificationReport, verify_strategy

_GAP = 1e-9          # strict-ordering gap between thresholds
_EDGE = 1e-6         # keep y1 (and y4) strictly below b
_RESTARTS = 4
_SEED = 20240801


@dataclass
class OptimizationResult:
    strategy_kind: str            # doshi | one | two
    band: BandOne | BandTwo
    objective: float              # V0(b)
    surface: CostSurface
    verified: bool = False
    report: VerificationReport | None = None


def _project_one(p, b: float, doshi: bool) -> BandOne:
    if doshi:
        y2 = float(np.clip(p[0], 0.0, b - _EDGE - _GAP))
        y1 = float(np.clip(p[1], y2 + _GAP, b - _EDGE))
        return BandOne(y2, y2, y1)
    y2 = float(np.clip(p[0], 0.0, b - _EDGE - 2 * _GAP))
    y3 = float(np.clip(p[1], y2, b - _EDGE - _GAP))
    y1 = float(np.clip(p[2], y3 + _GAP, b - _EDGE))
    return BandOne(y2, y3, y1)


def _polish(model: ModelConfig, starts, doshi: bool) -> tuple[BandOne, float]:
    def objective(p):
        return total_cost(model, _project_one(p, model.b, doshi)).V0

    best_band, best_val = None, np.inf
    for p0 in starts:
        res = minimize(
            objective,
            np.asarray(p0, dtype=float),
            method="Nelder-Mead",
            options=dict(xatol=1e-4, fatol=1e-8, maxfev=800),
        )
        band = _project_one(res.x, model.b, doshi)
        val = total_cost(model, band).V0
        if val < best_val:
            best_band, best_val = band, val
    return best_band, best_val


def _multistart(winners, spacing: float):
    rng = np.random.default_rng(_SEED)
    starts = [np.asarray(w, dtype=float) for w in winners[:1]]
    for w in winners[:_RESTARTS]:
        starts.append(np.asarray(w, dtype=float) + rng.normal(0.0, spacing / 2, len(w)))
    return starts


def _doshi_lattice(model: ModelConfig) -> tuple[list, float]:
    """(V0, (y2, y1)) on the feasible 25x25 lattice, y2-major; and the y1 spacing."""
    b = model.b
    y2s = np.linspace(0.0, b * 0.92, 25)
    y1s = np.linspace(b * 0.02, b - _EDGE, 25)
    cands = []
    for y2 in y2s:
        row = y1s[y1s > y2 + 1e-4]
        if row.size:
            cands.extend(zip(lattice_V0(model, y2, y2, row), ((y2, y1) for y1 in row)))
    return cands, float(y1s[1] - y1s[0])


def _type_one_lattice(model: ModelConfig) -> tuple[list, float]:
    """(V0, (y2, y3, y1)) on the feasible 15^3 lattice, (y2, y3)-major; and its spacing."""
    b = model.b
    g = np.linspace(0.0, b - _EDGE, 15)
    cands = []
    for y2 in g:
        for y3 in g[g >= y2]:
            row = g[g > y3 + 1e-4]
            if row.size:
                cands.extend(zip(lattice_V0(model, y2, y3, row), ((y2, y3, y1) for y1 in row)))
    return cands, float(g[1] - g[0])


def optimize_doshi(model: ModelConfig) -> OptimizationResult:
    """Best two-threshold policy (y3 = y2) on a 25x25 lattice + polish."""
    cands, spacing = _doshi_lattice(model)
    if not cands:
        raise NoFeasiblePoint("no feasible (y2, y1) on the lattice")
    cands.sort(key=lambda t: t[0])
    band, val = _polish(model, _multistart([c[1] for c in cands], spacing), doshi=True)
    return OptimizationResult("doshi", band, val, total_cost(model, band))


def optimize_type_one(model: ModelConfig) -> OptimizationResult:
    """Type-one policy (free restart threshold y3) on a 15^3 lattice + polish."""
    cands, spacing = _type_one_lattice(model)
    if not cands:
        raise NoFeasiblePoint("no feasible (y2, y3, y1) on the lattice")
    cands.sort(key=lambda t: t[0])
    band, val = _polish(model, _multistart([c[1] for c in cands], spacing), doshi=False)
    return OptimizationResult("one", band, val, total_cost(model, band))


def _golden_section(f, lo: float, hi: float, xatol: float = 1e-4):
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, d = lo, hi
    c = d - invphi * (d - a)
    b_ = a + invphi * (d - a)
    fc, fb = f(c), f(b_)
    while d - a > xatol:
        if fc < fb:
            d, b_, fb = b_, c, fc
            c = d - invphi * (d - a)
            fc = f(c)
        else:
            a, c, fc = c, b_, fb
            b_ = a + invphi * (d - a)
            fb = f(b_)
    x = 0.5 * (a + d)
    return x, f(x)


def optimize_type_two(
    model: ModelConfig, base: OptimizationResult, tol: float = DEFAULT_TOL
) -> OptimizationResult:
    """Type-two policy: (y2, y3, y1) from the type-one result base (V0 is
    invariant in y4), then y4 chosen to minimize the worst phase-1 value on a
    20-point probe grid in (y1, b); verification arbitrates, with a
    margin-maximizing scan as fallback."""
    y2, y3, y1 = base.band.y2, base.band.y3, base.band.y1
    b = model.b
    lo = y1 + max(1e-3, 0.01 * (b - y1))
    hi = b - max(1e-3, 0.01 * (b - y1))
    probe = y1 + (b - y1) * (np.arange(20) + 0.5) / 20.0

    def worst_v1(y4: float) -> float:
        surf = total_cost_two(model, BandTwo(y2, y3, y1, y4))
        return float(np.max(surf.V(1, probe)))

    y4, _ = _golden_section(worst_v1, lo, hi, xatol=1e-4)
    band = BandTwo(y2, y3, y1, float(y4))
    surface = total_cost_two(model, band)
    report = verify_strategy(model, surface, tol=tol)
    if not report.passed:
        # fallback: scan y4 and keep the candidate with the largest HJB margin
        best = (None, -np.inf, None)
        for cand in np.linspace(lo, hi, 21):
            s = total_cost_two(model, BandTwo(y2, y3, y1, float(cand)))
            r = verify_strategy(model, s, tol=tol)
            margin = float(
                np.min(np.minimum(r.residual_L1, r.switch_slack_12))
            )
            if r.passed and margin > best[1]:
                best = (float(cand), margin, (s, r))
        if best[0] is not None:
            band = BandTwo(y2, y3, y1, best[0])
            surface, report = best[2]
    return OptimizationResult(
        "two", band, surface.V0, surface, verified=report.passed, report=report
    )


def escalate(model: ModelConfig, tol: float = DEFAULT_TOL) -> OptimizationResult:
    """Optimize-and-verify ladder; stops at the first verifying class.

    Falls through Doshi -> type one -> type two; an unverified type-two
    result is returned flagged, with its report attached (wider classes are
    reported, not searched).
    """
    for stage in (optimize_doshi, optimize_type_one):
        result = stage(model)
        report = verify_strategy(model, result.surface, tol=tol)
        result.verified, result.report = report.passed, report
        if report.passed:
            return result
    return optimize_type_two(model, result, tol=tol)
