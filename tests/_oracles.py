"""Independent numerical oracles for the test suite.

Nothing here shares code with the package's quadrature or its counter-based
random streams: integration is adaptive Simpson or mpmath, simulation uses
numpy's default generator.  Values produced here arbitrate the closed forms.
There are three exceptions.  potential_density is the reference formula for
the killed-resolvent density, written out with the package's scale
functions.  estimate_occupation, the Monte Carlo oracle for that density,
draws from the simulator's counter-based streams.  resolvent_transform_rows
is a bit-for-bit reference, not an independent value: the killed-resolvent
transform as it was computed with one integrate_rows row per demand
component, which the engine's shared-W form must reproduce exactly.
convolution_cells is the verifier's demand convolution as it was computed
before the Chebyshev panels, cell by cell with the package's Gauss-Legendre
rows: a second quadrature of the same integral, which the panels must
match to round-off.  level_b_value integrates the level-b value with those
cells, cut at crossovers that restart_crossovers finds by bisection, not
at the verifier's.
"""

from __future__ import annotations

from dataclasses import dataclass

import mpmath
import numpy as np

from bandctl.errors import InvalidStart, OutOfBand
from bandctl.model import ModelConfig
from bandctl.passage import integrate_rows
from bandctl.simulate import _path_keys, _round_uniforms, _sample_demand, truncation_horizon


def simpson_adaptive(f, a: float, b: float, tol: float = 1e-11, depth: int = 48) -> float:
    """Classic recursive adaptive Simpson on a scalar function."""

    def simp(lo, hi, flo, fmid, fhi):
        return (hi - lo) / 6.0 * (flo + 4.0 * fmid + fhi)

    def rec(lo, hi, flo, fmid, fhi, whole, eps, d):
        mid = 0.5 * (lo + hi)
        lm, rm = 0.5 * (lo + mid), 0.5 * (mid + hi)
        flm, frm = f(lm), f(rm)
        left = simp(lo, mid, flo, flm, fmid)
        right = simp(mid, hi, fmid, frm, fhi)
        if d <= 0 or abs(left + right - whole) <= 15.0 * eps:
            return left + right + (left + right - whole) / 15.0
        return rec(lo, mid, flo, flm, fmid, left, eps / 2.0, d - 1) + rec(
            mid, hi, fmid, frm, fhi, right, eps / 2.0, d - 1
        )

    if b <= a:
        return 0.0
    mid = 0.5 * (a + b)
    fa, fm, fb = f(a), f(mid), f(b)
    return rec(a, b, fa, fm, fb, simp(a, b, fa, fm, fb), tol, depth)


class MpScale:
    """W, Wbar and Z of one phase at mpmath precision, from the model alone.

    The exponents are the roots of (phi(theta) - q) prod_k (mu_k + theta),
    found by mpmath.polyroots and polished by Newton steps on phi - q;
    W(x) = sum_j exp(theta_j x) / phi'(theta_j).  Build and evaluate inside
    one mpmath.workdps block.
    """

    def __init__(self, model, phase: int):
        mpf = mpmath.mpf
        self.sigma = mpf(model.sigma(phase))
        self.q = mpf(model.q)
        lam = mpf(model.lam)
        mus = [mpf(r) for r in model.demand.rates]
        ws = [mpf(w) for w in model.demand.weights]

        def phi_minus_q(th):
            return self.sigma * th - lam - self.q + lam * sum(
                w * mu / (mu + th) for w, mu in zip(ws, mus))

        def dphi(th):
            return self.sigma - lam * sum(w * mu / (mu + th) ** 2 for w, mu in zip(ws, mus))

        def mul(p, r):  # p * (theta + r), coefficients lowest first
            return [a * r + b for a, b in zip(p + [0], [0] + p)]

        poly = [-(lam + self.q), self.sigma]
        for mu in mus:
            poly = mul(poly, mu)
        for k in range(len(mus)):
            rest = [mpf(1)]
            for m, mu in enumerate(mus):
                if m != k:
                    rest = mul(rest, mu)
            for i, c in enumerate(rest):
                poly[i] += lam * ws[k] * mus[k] * c
        roots = mpmath.polyroots(poly[::-1], maxsteps=200, extraprec=200)
        self.theta = [mpmath.findroot(phi_minus_q, mpmath.re(r)) for r in roots]
        self.w = [1 / dphi(th) for th in self.theta]

    def W(self, x):
        return sum(w * mpmath.exp(th * x) for th, w in zip(self.theta, self.w))

    def Wbar(self, x):
        return sum(w * mpmath.expm1(th * x) / th for th, w in zip(self.theta, self.w))

    def Z(self, x):
        return 1 + self.q * self.Wbar(x)


def potential_density(ctx, x, y):
    """Resolvent density u(x, y) of the process killed on exiting [a, d].

    ctx is an ExitContext on [a, d].  The reference formula W(x-a) W(d-y) /
    W(d-a) - W(x-y), from ctx's scale functions; the engine only uses its
    demand transforms (ExitContext.resolvent_transform).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.any(y <= ctx.a) or np.any(y >= ctx.d):
        raise OutOfBand(f"y must lie strictly inside ({ctx.a}, {ctx.d})")
    s = ctx.scale
    out = np.asarray(s.W(x - ctx.a) * s.W(ctx.d - y) / ctx.W_span - s.W(x - y))
    return out if out.shape else float(out)


def resolvent_transform_rows(ctx, x) -> np.ndarray:
    """ExitContext.resolvent_transform with lo and hi broadcast to (k,) + x.shape,
    so that W(x - z) is evaluated once per demand component on the same nodes."""
    x = np.asarray(x, dtype=float)
    k = len(ctx._mus)
    lo = np.broadcast_to(ctx.a, (k,) + x.shape)
    hi = np.broadcast_to(np.maximum(x, ctx.a), (k,) + x.shape)
    mus = ctx._mus.reshape((k,) + (1,) * (x.ndim + 1))
    xx = x.reshape((1,) + x.shape + (1,))
    below = integrate_rows(lambda z, rows: ctx.scale.W(xx - z) * np.exp(-mus[rows] * z), lo, hi)
    shape = (k,) + (1,) * x.ndim
    return ctx._B.reshape(shape) * (ctx.scale.W(x - ctx.a) / ctx.W_span)[None, ...] - below


def convolution_cells(model: ModelConfig, w, xs: np.ndarray, breakpoints=()) -> np.ndarray:
    """lam * int_0^x w(x - a) dF(a) at every grid point, via
    int_0^x w(u) f(x-u) du = sum_k w_k mu_k e^{-mu_k x} int_0^x w(u) e^{mu_k u} du,
    the inner integral as a cumulative sum of Gauss-Legendre integrals over
    the cells between 0, the grid points and the breakpoints."""
    mus = np.asarray(model.demand.rates)
    ws = np.asarray(model.demand.weights)
    inner = [p for p in set(breakpoints) if 0.0 < p < float(xs.max())]
    cuts = np.unique(np.concatenate([[0.0], xs, inner]))

    def f(u, rows):
        return w(u.reshape(-1)).reshape(u.shape) * np.exp(mus[:, None, None] * u)

    seg = integrate_rows(f, cuts[:-1], cuts[1:])
    prefix = np.concatenate([np.zeros((len(mus), 1)), np.cumsum(seg, axis=1)], axis=1)
    C = prefix[:, np.searchsorted(cuts, xs)]
    return model.lam * ((ws * mus) @ (np.exp(-mus[:, None] * xs) * C))


def restart_crossovers(surface, n: int = 2001, steps: int = 40) -> list[float]:
    """Where K01 + V1 and K02 + V2 cross, ascending: each sign change of their
    difference g on an n-point scan of (y2, y1) and of a type-two band's
    (y4, b), where the zone table lets them cross, bisected steps times."""
    band, b, k = surface.band, surface.model.b, surface.model.switching
    g = lambda u: k.k01 + surface.V(1, u) - k.k02 - surface.V(2, u)
    lo, hi = [], []
    for a, c in [(band.y2, band.y1)] + ([(band.y4, b)] if hasattr(band, "y4") else []):
        u = np.linspace(a, c, n)[1:-1]
        s = np.sign(g(u))
        i = np.flatnonzero(s[:-1] * s[1:] < 0)
        lo, hi = lo + list(u[i]), hi + list(u[i + 1])
    if not lo:
        return []
    lo, hi = np.array(lo), np.array(hi)
    s_lo = np.sign(g(lo))
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        left = np.sign(g(mid)) == s_lo
        lo, hi = np.where(left, mid, lo), np.where(left, hi, mid)
    return sorted(float(r) for r in 0.5 * (lo + hi))


def level_b_value(model: ModelConfig, surface, selection: str = "min") -> float:
    """The level-b value (h0_b + lam E[vbar(b - A); A < b] + lam (ptail(b) +
    vbar(0) sf(b))) / (q + lam) of the restart value vbar: min(K01 + V1,
    K02 + V2) for selection "min", cut at its crossovers (restart_crossovers),
    or the band's own restart, phase 1 up to y3, for "strategy".  The
    expectation is convolution_cells at b, cut at the thresholds."""
    m, k, y3 = model, model.switching, surface.band.y3

    def vbar(u):
        r1, r2 = k.k01 + surface.V(1, u), k.k02 + surface.V(2, u)
        return np.minimum(r1, r2) if selection == "min" else np.where(u <= y3, r1, r2)

    cuts = set(surface.thresholds) | set(restart_crossovers(surface) if selection == "min" else ())
    conv = convolution_cells(m, vbar, np.array([m.b]), cuts)[0]
    rest = m.demand.penalty_tail(m.b, m.penalty.p0, m.penalty.p1) + vbar(np.zeros(1))[0] * m.demand.sf(m.b)
    return float((m.h0_b + conv + m.lam * rest) / (m.q + m.lam))


def _sample_y(rng, model, n):
    d = model.demand
    if len(d.rates) == 1:
        return rng.exponential(1.0 / d.rates[0], size=n)
    comp = rng.choice(len(d.rates), size=n, p=np.asarray(d.weights))
    return rng.exponential(1.0, size=n) / np.asarray(d.rates)[comp]


def _seg_hold(a, c, x, sigma, dur, q, t0):
    em = -np.expm1(-q * dur)
    ramp = (em - q * dur * np.exp(-q * dur)) / q**2
    return np.exp(-q * t0) * ((a + c * x) * em / q + c * sigma * ramp)


def mc_two_sided(model, phase, a, d, x0, n_paths, seed, payoff=None, horizon_mult=1.0):
    """Free process in [a, d] from x0: exit functionals by plain Monte Carlo.

    Returns a dict of (mean, se) pairs for: up-crossing discount, down
    discount, discounted holding until exit, penalty paid at a sub-zero
    down-crossing, and optionally e^{-q tau} payoff(X at down-crossing).
    """
    rng = np.random.default_rng(seed)
    m = model
    sig = m.sigma(phase)
    h = m.holding(phase)
    q, lam = m.q, m.lam
    t_star = horizon_mult * np.log(1e6) / q

    x = np.full(n_paths, float(x0))
    t = np.zeros(n_paths)
    up = np.zeros(n_paths)
    down = np.zeros(n_paths)
    hold = np.zeros(n_paths)
    pen = np.zeros(n_paths)
    pay = np.zeros(n_paths)
    alive = np.ones(n_paths, dtype=bool)

    while np.any(alive):
        idx = np.where(alive)[0]
        tau = rng.exponential(1.0 / lam, size=len(idx))
        t_cap = (d - x[idx]) / sig
        seg = np.minimum(np.minimum(tau, t_cap), t_star - t[idx])
        hold[idx] += _seg_hold(h.a, h.c, x[idx], sig, seg, q, t[idx])
        hit_up = (t_cap <= tau) & (t[idx] + t_cap < t_star)
        timed = (t_star - t[idx]) <= np.minimum(tau, t_cap)
        j = idx[hit_up]
        up[j] = np.exp(-q * (t[j] + t_cap[hit_up]))
        alive[idx[hit_up | timed]] = False
        cont = ~(hit_up | timed)
        j = idx[cont]
        t[j] += tau[cont]
        x[j] += sig * tau[cont]
        y = _sample_y(rng, m, len(j))
        landed = x[j] - y
        crossed = landed < a
        jc = j[crossed]
        disc = np.exp(-q * t[jc])
        down[jc] = disc
        below = landed[crossed] < 0
        pen[jc[below]] = disc[below] * m.penalty(-landed[crossed][below])
        if payoff is not None:
            pay[jc] = disc * payoff(landed[crossed])
        alive[jc] = False
        x[j[~crossed]] = landed[~crossed]

    def stat(arr):
        return float(arr.mean()), float(arr.std(ddof=1) / np.sqrt(n_paths))

    out = {
        "up": stat(up),
        "down": stat(down),
        "hold": stat(hold),
        "penalty": stat(pen),
    }
    if payoff is not None:
        out["payoff"] = stat(pay)
    return out


def mc_reflected(model, phase, y1, x0, n_paths, seed):
    """Floor-reflected process until first passage of y1 from below.

    Returns (mean, se) for the passage discount, discounted holding, the
    discounted regulator (lost demand at the floor), and discounted
    shortage penalties paid before the passage.
    """
    rng = np.random.default_rng(seed)
    m = model
    sig = m.sigma(phase)
    h = m.holding(phase)
    q, lam = m.q, m.lam
    t_star = np.log(1e6) / q

    x = np.full(n_paths, float(x0))
    t = np.zeros(n_paths)
    kappa = np.zeros(n_paths)
    hold = np.zeros(n_paths)
    local = np.zeros(n_paths)
    pen = np.zeros(n_paths)
    alive = np.ones(n_paths, dtype=bool)

    while np.any(alive):
        idx = np.where(alive)[0]
        tau = rng.exponential(1.0 / lam, size=len(idx))
        t_hit = (y1 - x[idx]) / sig
        seg = np.minimum(np.minimum(tau, t_hit), t_star - t[idx])
        hold[idx] += _seg_hold(h.a, h.c, x[idx], sig, seg, q, t[idx])
        reach = (t_hit <= tau) & (t[idx] + t_hit < t_star)
        timed = (t_star - t[idx]) <= np.minimum(tau, t_hit)
        j = idx[reach]
        kappa[j] = np.exp(-q * (t[j] + t_hit[reach]))
        alive[idx[reach | timed]] = False
        cont = ~(reach | timed)
        j = idx[cont]
        t[j] += tau[cont]
        x[j] += sig * tau[cont]
        y = _sample_y(rng, m, len(j))
        landed = x[j] - y
        clipped = landed < 0
        jc = j[clipped]
        disc = np.exp(-q * t[jc])
        local[jc] += disc * (-landed[clipped])
        pen[jc] += disc * m.penalty(-landed[clipped])
        x[j] = np.maximum(landed, 0.0)

    def stat(arr):
        return float(arr.mean()), float(arr.std(ddof=1) / np.sqrt(n_paths))

    return {
        "kappa": stat(kappa),
        "hold": stat(hold),
        "local_time": stat(local),
        "penalty": stat(pen),
    }


@dataclass(frozen=True)
class OccupationEstimate:
    edges: np.ndarray
    mean: np.ndarray       # per-bin discounted occupation
    std_error: np.ndarray
    total: float           # per-path total occupation, averaged
    total_std_error: float


def estimate_occupation(
    model: ModelConfig,
    phase: int,
    a: float,
    d: float,
    x0: float,
    n_paths: int,
    bins: int,
    base_seed: int,
) -> OccupationEstimate:
    """Discounted occupation histogram of the free process killed at exiting [a, d].

    Oracle for the resolvent density: bin means estimate the integral of
    u(a, d, x0, y) over the bin; the total obeys the exit-discount identity
    q * total = 1 - up - down.
    """
    if not a <= x0 <= d:
        raise InvalidStart(f"x0={x0} outside [{a}, {d}]")
    m = model
    q, lam = m.q, m.lam
    sig = m.sigma(phase)
    t_star = truncation_horizon(m)
    mixture = len(m.demand.rates) > 1
    edges = np.linspace(a, d, bins + 1)
    occ = np.zeros((n_paths, bins))
    keys = _path_keys(base_seed, 0, n_paths)

    # pos is each working row's path index; once the live rows fall to half
    # of the working set it is compacted, as in _run_paths
    pos = np.arange(n_paths)
    x = np.full(n_paths, float(x0))
    t = np.zeros(n_paths)
    alive = np.ones(n_paths, dtype=bool)
    counter = 0
    while np.any(alive):
        u_tau, u_sel, u_size = _round_uniforms(keys, counter, mixture)
        counter += 1
        tau = -np.log(u_tau) / lam
        # segment runs until the demand, the upper barrier, or the horizon
        t_cap = (d - x) / sig
        dur = np.minimum(np.minimum(tau, t_cap), t_star - t)
        idx = np.where(alive)[0]
        xs, ts, dus = x[idx], t[idx], dur[idx]
        # discounted time spent below each interior edge during the segment
        cross = np.clip((edges[None, 1:-1] - xs[:, None]) / sig, 0.0, dus[:, None])
        stamps = np.concatenate(
            [np.zeros((len(idx), 1)), cross, dus[:, None]], axis=1
        )
        disc = np.exp(-q * (ts[:, None] + stamps))
        occ[pos[idx]] += (disc[:, :-1] - disc[:, 1:]) / q
        killed_up = alive & (t_cap <= tau) & (t + t_cap <= t_star - 1e-15)
        timed_out = alive & (t_star - t <= np.minimum(tau, t_cap))
        alive = alive & ~killed_up & ~timed_out
        if not np.any(alive):
            break
        t = np.where(alive, t + tau, t)
        y = _sample_demand(m, u_sel, u_size)
        x = np.where(alive, x + sig * tau - y, x)
        killed_down = alive & (x < a)
        alive = alive & ~killed_down
        if 2 * np.count_nonzero(alive) <= len(pos):
            keep = np.flatnonzero(alive)
            keys, pos, x, t, alive = keys[keep], pos[keep], x[keep], t[keep], alive[keep]

    mean = occ.mean(axis=0)
    se = occ.std(axis=0, ddof=1) / np.sqrt(n_paths)
    totals = occ.sum(axis=1)
    return OccupationEstimate(
        edges=edges,
        mean=mean,
        std_error=se,
        total=float(totals.mean()),
        total_std_error=float(totals.std(ddof=1) / np.sqrt(n_paths)),
    )
