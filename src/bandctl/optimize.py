"""Threshold search: best two-threshold policy, then type one, then type two.

Each stage checks the verification tolerance and validates the model
(model.validate) before it searches, minimizes the level-b value V0(b) and
verifies its own winner against the HJB system; escalation stops at the
first class whose optimum verifies.  The Doshi
(y3 = y2) and type-one stages share one body: a coarse feasible lattice, then
a Nelder-Mead polish (with constraint repair by projection).  A lattice is
evaluated per (y2, y3) group, the group's y1 values in one assembly
(cost_one.lattice_V0).  Candidates are listed in (y2, y3, y1) order and the
sort is stable, so ties keep that order and the polish starts do not depend
on the grouping.  The polish evaluates one band per call through total_cost.  Its starts are independent
Nelder-Mead runs, spread over up to min(starts, usable CPUs) forked worker
processes, or run in the calling process where Python cannot fork them
cleanly (see _workers).  Each start runs the same code on the
same inputs in any process, so the result does not depend on that count.
Its Nelder-Mead is a frozen port of scipy 1.17.1's (_nelder_mead), so the
solve thresholds do not depend on which scipy version, if any, is installed.
The starts' perturbations are frozen the same way (_START_NOISE): the
first draws of a seeded numpy Generator, written out as numbers, since NEP
19 lets those streams change between numpy versions; and no solve loads
numpy.random, about 6 MB of memory.
V0(b) does not depend on y4, so the type-two stage reuses the type-one
thresholds (of the result escalate hands it, or of its own type-one search,
which it does not verify) and picks y4 separately: it minimizes the worst
phase-1 value over a probe grid in (y1, b) by golden-section search.
Verification only reports: each stage verifies its one winner, and a band
that fails is returned flagged, never traded for another candidate.  By the
verification theorem a verified band is optimal, so a failed one means the
optimum lies outside the class searched.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from ._workers import fork_map
from .cost_one import _MIN_GAP, BandOne, BandTwo, CostSurface, lattice_V0, total_cost
from .cost_two import total_cost_two
from .errors import NoFeasiblePoint
from .model import ModelConfig, validate
from .verify import DEFAULT_TOL, VerificationReport, check_settings, verify_strategy

_EDGE = 1e-6         # keep y1 (and y4) strictly below b
_RESTARTS = 4
# the first 12 standard normals of np.random.default_rng(20240801): the
# perturbations of the polish's restarts (_multistart), see the module docstring
_START_NOISE = np.array([
    2.0028773178693564, 0.9751125003803932, -1.5970234439549662, -0.6064752250990564,
    -0.31884264692696557, -1.93640847441192, 0.38521253044736176, -0.9113447575912407,
    -1.3327356582470793, -0.028337680910311594, -0.3931894706040179, -1.572622678992065,
])

log = logging.getLogger(__name__)


@dataclass
class OptimizationResult:
    strategy_kind: str            # doshi | one | two
    band: BandOne | BandTwo
    objective: float              # V0(b)
    surface: CostSurface
    verified: bool
    report: VerificationReport


def _project_one(p, b: float, doshi: bool) -> BandOne:
    if doshi:
        y2 = float(np.clip(p[0], 0.0, b - _EDGE - _MIN_GAP))
        y1 = float(np.clip(p[1], y2 + _MIN_GAP, b - _EDGE))
        return BandOne(y2, y2, y1)
    y2 = float(np.clip(p[0], 0.0, b - _EDGE - 2 * _MIN_GAP))
    y3 = float(np.clip(p[1], y2, b - _EDGE - _MIN_GAP))
    y1 = float(np.clip(p[2], y3 + _MIN_GAP, b - _EDGE))
    return BandOne(y2, y3, y1)


class _MaxFev(Exception):
    """The evaluation budget of _nelder_mead is spent."""


def _nelder_mead(f, x0, xatol: float, fatol: float, maxfev: int) -> np.ndarray:
    """Nelder-Mead minimum of f from x0, as scipy 1.17.1 finds it.

    A port of scipy.optimize._optimize._minimize_neldermead, operation for
    operation, for the one configuration the polish uses: standard
    coefficients (reflection 1, expansion 2, contraction and shrink 1/2), no
    bounds, the default initial simplex, and a maxfev cut that stops before
    the call that would exceed it (possibly inside the initial simplex or a
    shrink).  f gets a copy of each point.  Freezing it here keeps the polish
    path, and so the solve thresholds, independent of the scipy version.
    """
    x0 = np.asarray(x0, dtype=float).flatten()
    n = len(x0)
    nfev = 0

    def fun(x):
        nonlocal nfev
        if nfev >= maxfev:
            raise _MaxFev
        nfev += 1
        return f(np.copy(x))

    def by_value(sim, fsim):
        ind = np.argsort(fsim)
        return np.take(sim, ind, 0), np.take(fsim, ind, 0)

    sim = np.empty((n + 1, n), dtype=x0.dtype)
    sim[0] = x0
    for k in range(n):
        y = np.array(x0, copy=True)
        y[k] = (1 + 0.05) * y[k] if y[k] != 0 else 0.00025
        sim[k + 1] = y
    fsim = np.full((n + 1,), np.inf, dtype=float)
    try:
        for k in range(n + 1):
            fsim[k] = fun(sim[k])
    except _MaxFev:
        pass
    # scipy sorts twice here; argsort is not stable, so the second sort may
    # still reorder ties
    sim, fsim = by_value(sim, fsim)
    sim, fsim = by_value(sim, fsim)

    while nfev < maxfev:
        try:
            if (np.max(np.ravel(np.abs(sim[1:] - sim[0]))) <= xatol
                    and np.max(np.abs(fsim[0] - fsim[1:])) <= fatol):
                break
            xbar = np.add.reduce(sim[:-1], 0) / n
            xr = 2 * xbar - sim[-1]
            fxr = fun(xr)
            if fxr < fsim[0]:
                xe = 3 * xbar - 2 * sim[-1]
                fxe = fun(xe)
                if fxe < fxr:
                    sim[-1], fsim[-1] = xe, fxe
                else:
                    sim[-1], fsim[-1] = xr, fxr
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                if fxr < fsim[-1]:  # outside contraction
                    xc = 1.5 * xbar - 0.5 * sim[-1]
                    fxc = fun(xc)
                    accept = fxc <= fxr
                else:  # inside contraction
                    xc = 0.5 * xbar + 0.5 * sim[-1]
                    fxc = fun(xc)
                    accept = fxc < fsim[-1]
                if accept:
                    sim[-1], fsim[-1] = xc, fxc
                else:  # shrink towards the best vertex
                    for j in range(1, n + 1):
                        sim[j] = sim[0] + 0.5 * (sim[j] - sim[0])
                        fsim[j] = fun(sim[j])
        except _MaxFev:
            pass
        sim, fsim = by_value(sim, fsim)
    return sim[0]


def _polish_start(model: ModelConfig, p0, doshi: bool) -> tuple[BandOne, float]:
    """One Nelder-Mead run of the polish from p0: the projected band and its V0."""
    def objective(p):
        return total_cost(model, _project_one(p, model.b, doshi)).V0

    x = _nelder_mead(objective, p0, xatol=1e-4, fatol=1e-8, maxfev=800)
    band = _project_one(x, model.b, doshi)
    return band, total_cost(model, band).V0


def _polish(model: ModelConfig, starts, doshi: bool) -> tuple[BandOne, float]:
    """Best (band, V0) over the Nelder-Mead runs from starts; ties keep the
    earlier start.  The runs are independent, so they share out over forked
    worker processes (_workers.fork_map), and the results come back in start
    order whatever their count is."""
    best_band, best_val = None, np.inf
    for band, val in fork_map(_polish_start, len(starts), repeat(model), starts, repeat(doshi)):
        if val < best_val:
            best_band, best_val = band, val
    return best_band, best_val


def _multistart(winners, spacing: float):
    """The best lattice point, then each of the best _RESTARTS points moved by
    spacing / 2 times the next len(point) numbers of _START_NOISE."""
    starts = [np.asarray(w, dtype=float) for w in winners[:1]]
    for i, w in enumerate(winners[:_RESTARTS]):
        d = len(w)
        starts.append(np.asarray(w, dtype=float) + (spacing / 2) * _START_NOISE[i * d:(i + 1) * d])
    return starts


def _lattice(model: ModelConfig, doshi: bool) -> tuple[list, float]:
    """(V0, point) on the feasible lattice, (y2, y3)-major, and its y1 spacing.

    Doshi: points (y2, y1), y3 = y2, over 25 y2 and 25 y1 values.  Type one:
    points (y2, y3, y1), y2 <= y3, over one 15-point grid for all three.
    """
    b = model.b
    if doshi:
        y1s = np.linspace(b * 0.02, b - _EDGE, 25)
        pairs = [(y2, y2) for y2 in np.linspace(0.0, b * 0.92, 25)]
    else:
        y1s = np.linspace(0.0, b - _EDGE, 15)
        pairs = [(y2, y3) for y2 in y1s for y3 in y1s[y1s >= y2]]
    cands = []
    for y2, y3 in pairs:
        row = y1s[y1s > y3 + 1e-4]
        if row.size:
            head = (y2,) if doshi else (y2, y3)
            cands.extend(zip(lattice_V0(model, y2, y3, row), (head + (y1,) for y1 in row)))
    return cands, float(y1s[1] - y1s[0])


def _lattice_search(model: ModelConfig, doshi: bool) -> tuple[BandOne, float]:
    """Lattice and multistart polish of the Doshi or type-one class: its best (band, V0)."""
    cands, spacing = _lattice(model, doshi)
    if not cands:
        raise NoFeasiblePoint(f"no feasible {'(y2, y1)' if doshi else '(y2, y3, y1)'} "
                              "on the lattice")
    cands.sort(key=lambda t: t[0])
    return _polish(model, _multistart([c[1] for c in cands], spacing), doshi)


def _lattice_stage(model: ModelConfig, doshi: bool, tol: float) -> OptimizationResult:
    """The lattice search's winner of the Doshi or type-one class, verified."""
    check_settings(tol)  # before the lattice, so a bad tol or model costs no search
    validate(model)
    band, val = _lattice_search(model, doshi)
    surface = total_cost(model, band)
    report = verify_strategy(model, surface, tol=tol)
    return OptimizationResult("doshi" if doshi else "one", band, val, surface,
                              report.passed, report)


def optimize_doshi(model: ModelConfig, tol: float = DEFAULT_TOL) -> OptimizationResult:
    """Best two-threshold policy (y3 = y2) on a 25x25 lattice + polish, verified."""
    return _lattice_stage(model, True, tol)


def optimize_type_one(model: ModelConfig, tol: float = DEFAULT_TOL) -> OptimizationResult:
    """Type-one policy (free restart threshold y3) on a 15^3 lattice + polish, verified."""
    return _lattice_stage(model, False, tol)


def _golden_section(f, lo: float, hi: float, xatol: float = 1e-4) -> float:
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
    return 0.5 * (a + d)


def optimize_type_two(
    model: ModelConfig, base: OptimizationResult | None = None, tol: float = DEFAULT_TOL
) -> OptimizationResult:
    """Type-two policy: (y2, y3, y1) from the type-one result base (V0 is
    invariant in y4), then y4 chosen to minimize the worst phase-1 value on a
    20-point probe grid in (y1, b).  The band is verified once and returned,
    flagged with its report when it fails.  Without base, the type-one
    lattice search supplies (y2, y3, y1), and its winner is not verified."""
    check_settings(tol)  # before any search; the y4 search verifies only at its end
    validate(model)
    one = base.band if base is not None else _lattice_search(model, False)[0]
    y2, y3, y1 = one.y2, one.y3, one.y1
    b = model.b
    # at most a quarter of (y1, b) from each end, so y1 < lo <= hi < b even when y1 is near b
    edge = min(max(1e-3, 0.01 * (b - y1)), 0.25 * (b - y1))
    lo, hi = y1 + edge, b - edge
    probe = y1 + (b - y1) * (np.arange(20) + 0.5) / 20.0

    def worst_v1(y4: float) -> float:
        surf = total_cost_two(model, BandTwo(y2, y3, y1, y4))
        return float(np.max(surf.V(1, probe)))

    band = BandTwo(y2, y3, y1, float(_golden_section(worst_v1, lo, hi, xatol=1e-4)))
    surface = total_cost_two(model, band)
    report = verify_strategy(model, surface, tol=tol)
    return OptimizationResult("two", band, surface.V0, surface, report.passed, report)


def escalate(model: ModelConfig, tol: float = DEFAULT_TOL) -> OptimizationResult:
    """Optimize-and-verify ladder; stops at the first verifying class.

    Falls through Doshi -> type one -> type two; an unverified type-two
    result is returned flagged, with its report attached (wider classes are
    reported, not searched).
    """
    result = None
    for stage in (optimize_doshi, optimize_type_one, optimize_type_two):
        # type two takes its (y2, y3, y1) from the type-one result
        base = (result,) if stage is optimize_type_two else ()
        result = stage(model, *base, tol=tol)
        _log_stage(result)
        if result.verified:
            break
    return result


def _log_stage(result: OptimizationResult) -> None:
    """One INFO line per ladder stage: class, V0, verified, first verifier failure."""
    failures = result.report.failures
    log.info("stage %s: V0 = %.10g, verified = %s, first failure: %s", result.strategy_kind,
             result.objective, result.verified, failures[0] if failures else "none")
