"""Discrete-event Monte Carlo simulator of the controlled inventory.

Strictly more general than the analytic engine: arbitrary finite unions of
switching/selection intervals, any backlog floor l <= 0, and optional
non-affine holding rates.  There is no time discretization anywhere: drift
segments are integrated in closed form and threshold crossings are solved
exactly, so results are reproducible bit for bit.

Randomness is counter-based (a splitmix64-style hash of (seed, path, draw)),
which makes every path's draws independent of batch size and worker count.
A batch evolves as dense per-path arrays, one round per demand arrival,
and a path's arithmetic only ever reads its own row, so its outcome does
not depend on the batch it runs in either.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import InvalidStart, ValidationError
from .model import ModelConfig, upper_cost_bound

TRUNCATION_FRACTION = 1e-4  # discounted tail mass kept below this share of the cost bound

_U64 = np.uint64
_GOLDEN = _U64(0x9E3779B97F4A7C15)
_PATH_STRIDE = _U64(0xBF58476D1CE4E5B7)  # odd constant decorrelating path keys


def _mix(x):
    """splitmix64 finalizer, in place on a uint64 array, which it returns."""
    x ^= x >> _U64(30)
    x *= _U64(0xBF58476D1CE4E5B9)
    x ^= x >> _U64(27)
    x *= _U64(0x94D049BB133111EB)
    x ^= x >> _U64(31)
    return x


def _path_keys(base_seed: int, start: int, n: int) -> np.ndarray:
    p = np.arange(start, start + n, dtype=np.uint64)
    return _mix(_U64(base_seed & 0xFFFFFFFFFFFFFFFF) + _PATH_STRIDE * (p + _U64(1)))


def _round_uniforms(keys: np.ndarray, counter: int, mixture: bool):
    """Round `counter`'s Uniform(0,1) draws (u_tau, u_sel, u_size) for every key.

    Draw 3*counter + j of a path is the j-th uniform of its round; all of a
    round's draws come from one hash call.  u_sel is None unless mixture.
    """
    slots = (0, 1, 2) if mixture else (0, 2)
    draws = np.array([3 * counter + j + 1 for j in slots], dtype=np.uint64)
    bits = _mix(keys + _GOLDEN * draws[:, None])
    bits >>= _U64(11)
    u = bits.astype(np.float64)
    u += 0.5
    u *= 2.0**-53
    return u[0], (u[1] if mixture else None), u[-1]


@dataclass(frozen=True)
class SimStrategy:
    """Band strategy as closed intervals inside [l, b).

    a12 / a21 are the switching zones, c1 the restart-selection zone for
    phase 1 (its complement selects phase 2).
    """

    a12: tuple[tuple[float, float], ...]
    a21: tuple[tuple[float, float], ...]
    c1: tuple[tuple[float, float], ...]

    @classmethod
    def from_band(cls, band, model: ModelConfig) -> "SimStrategy":
        y4 = getattr(band, "y4", None)
        hi = band.y4 if y4 is not None else model.b
        return cls(
            a12=((band.y1, hi),),
            a21=((model.l, band.y2),),
            c1=((model.l, band.y3),),
        )

    def check(self, model: ModelConfig) -> "SimStrategy":
        for name, ivs in (("a12", self.a12), ("a21", self.a21), ("c1", self.c1)):
            for lo, hi in ivs:
                if lo > hi or lo < model.l - 1e-12 or hi > model.b + 1e-12:
                    raise ValidationError(f"{name} interval [{lo}, {hi}] outside [l, b]")
        for lo, hi in self.a12:
            for lo2, hi2 in self.a21:
                if max(lo, lo2) <= min(hi, hi2):
                    raise ValidationError("a12 and a21 must be disjoint")
            for lo2, hi2 in self.c1:
                if max(lo, lo2) <= min(hi, hi2):
                    raise ValidationError("a12 must avoid the phase-1 selection zone")
        for lo, hi in self.a21:
            if not any(lo2 - 1e-12 <= lo and hi <= hi2 + 1e-12 for lo2, hi2 in self.c1):
                raise ValidationError("a21 must lie inside the phase-1 selection zone")
        return self

    @staticmethod
    def _contains(ivs, x: np.ndarray) -> np.ndarray:
        out = np.zeros(x.shape, dtype=bool)
        for lo, hi in ivs:
            out |= (x >= lo) & (x <= hi)
        return out

    def in_zone(self, which: str, x: np.ndarray) -> np.ndarray:
        return self._contains(getattr(self, which), x)

    def switching_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Each phase's own switching zone as padded bounds lo, hi[interval, phase].

        Phase 1 switches on entering a12 and phase 2 on entering a21; the
        idle phase 0 and the padding hold the empty interval [inf, inf].
        """
        width = max(1, len(self.a12), len(self.a21))
        lo = np.full((width, 3), np.inf)
        hi = np.full((width, 3), np.inf)
        for p, ivs in ((1, self.a12), (2, self.a21)):
            for i, iv in enumerate(ivs):
                lo[i, p], hi[i, p] = iv
        return lo, hi


@dataclass(frozen=True)
class ComponentEstimate:
    mean: float
    std_error: float


@dataclass(frozen=True)
class SimEstimate:
    mean: float
    std_error: float
    n_paths: int
    holding: ComponentEstimate
    shortage: ComponentEstimate
    switching: ComponentEstimate
    truncation_horizon: float
    truncation_bound: float


def truncation_horizon(model: ModelConfig) -> float:
    """Horizon after which the remaining discounted cost is negligible."""
    return float(np.log(1.0 / TRUNCATION_FRACTION) / model.q)


def _segment_cost(a, c, cs, x, dur, q, t0):
    """int_0^dur exp(-q(t0+s)) (a + c(x + sigma s)) ds in closed form; cs = c*sigma."""
    qd = q * dur
    em = -np.expm1(-qd)  # 1 - exp(-q dur)
    ramp = (em - qd * np.exp(-qd)) / q**2
    return np.exp(-q * t0) * ((a + c * x) * em / q + cs * ramp)


def _sample_demand(model: ModelConfig, u_sel: np.ndarray, u_size: np.ndarray) -> np.ndarray:
    d = model.demand
    if len(d.rates) == 1:
        return -np.log(u_size) / d.rates[0]
    # component index: how many of the first K-1 cumulative weights lie
    # below u_sel (a left-sided search clipped to the last component)
    cum = np.cumsum(d.weights)
    idx = (cum[:-1, None] < u_sel).sum(axis=0)
    rates = np.asarray(d.rates)[idx]
    return -np.log(u_size) / rates


def _run_paths(
    model: ModelConfig,
    strategy: SimStrategy,
    x0: float,
    phase0: int,
    keys: np.ndarray,
    holding_fn=None,
):
    """Evolve one batch of paths to the truncation horizon.

    Returns per-path (holding, shortage, switching) discounted totals.
    The state is dense, one row per path.  Each round draws its uniforms
    from one hash call, runs one drift pass over all rows, runs later drift
    passes only on the few rows that switched phase, then applies the
    demand jump under a mask of the live rows.  Rows past the horizon
    accrue exact zeros until the live rows fall to half of the working set,
    which is then compacted.  A path's draws depend only on its key and the
    round counter, and its arithmetic only on its own row, so batch
    composition cannot change its outcome.
    """
    m = model
    q, lam, b, l = m.q, m.lam, m.b, m.l
    t_star = truncation_horizon(m)
    k = m.switching
    mixture = len(m.demand.rates) > 1

    if phase0 == 0 and abs(x0 - b) > 1e-12:
        raise InvalidStart("phase 0 starts only at capacity b")
    if x0 < l - 1e-12 or x0 > b + 1e-12:
        raise InvalidStart(f"x0={x0} outside [{l}, {b}]")

    # per-phase tables indexed by phase id (0, 1, 2); event times divide by
    # div_of, which is 1 in the idle phase 0 so that nothing divides by 0
    sig_of = np.array([0.0, m.sigma1, m.sigma2])
    div_of = np.array([1.0, m.sigma1, m.sigma2])
    a_of = np.array([m.h0_b, m.h1.a, m.h2.a])
    c_of = np.array([0.0, m.h1.c, m.h2.c])
    cs_of = c_of * sig_of
    stop_cost = np.array([0.0, k.k10, k.k20])   # reaching capacity b
    switch_cost = np.array([0.0, k.k12, k.k21])  # entering the switching zone
    if holding_fn is None:
        def segment_holding(phs, xs, ts, dur):
            return _segment_cost(a_of[phs], c_of[phs], cs_of[phs], xs, dur, q, ts)
    else:
        # general bounded holding rate: 32-node Gauss rule per segment
        nodes, weights = np.polynomial.legendre.leggauss(32)
        nodes = (nodes + 1.0) / 2.0
        half_w = weights / 2.0

        def segment_holding(phs, xs, ts, dur):
            s = dur[:, None] * nodes
            rates = holding_fn(xs[:, None] + sig_of[phs][:, None] * s, phs[:, None])
            vals = np.exp(-q * (ts[:, None] + s)) * rates
            # node by node, so that a row's sum cannot depend on the other rows
            acc = np.zeros(len(dur))
            for j, w in enumerate(half_w):
                acc += vals[:, j] * w
            return dur * acc

    n = len(keys)
    out = np.empty((3, n))
    pos = np.arange(n)  # path index of each row
    x = np.full(n, float(x0))
    ph = np.full(n, int(phase0), dtype=np.intp)
    t = np.zeros(n)
    hold = np.zeros(n)
    short = np.zeros(n)
    switch = np.zeros(n)

    lo_of, hi_of = strategy.switching_bounds()

    def zone_entry(phs, xs):
        """Smallest point of each row's switching zone at or above x; +inf when none."""
        entry = np.where(xs <= hi_of[0][phs], np.maximum(xs, lo_of[0][phs]), np.inf)
        for lo, hi in zip(lo_of[1:], hi_of[1:]):
            np.minimum(entry, np.where(xs <= hi[phs], np.maximum(xs, lo[phs]), np.inf),
                       out=entry)
        return entry

    def in_switching_zone(phs, xs):
        inside = (xs >= lo_of[0][phs]) & (xs <= hi_of[0][phs])
        for lo, hi in zip(lo_of[1:], hi_of[1:]):
            inside |= (xs >= lo[phs]) & (xs <= hi[phs])
        return inside

    def drift(rows, seg_end):
        """Drift rows (all rows, or an index array) up to their next event or seg_end.

        Every row accrues one segment; a row that stops at capacity also
        accrues its idle segment up to seg_end.  Returns the rows that
        switched phase before seg_end.
        """
        xs, ts, phs, se = x[rows], t[rows], ph[rows], seg_end[rows]
        entry = zone_entry(phs, xs)
        # entry points lie at or below b when finite, so this is the smaller
        # of the switch and capacity times, bit for bit
        div = div_of[phs]
        t_evt = (np.minimum(entry, b) - xs) / div
        fires = (ts + t_evt < se) & (phs != 0)
        dur = se - ts
        loc = np.flatnonzero(fires)
        if loc.size:
            xf, df, ef, pf, sf = xs[loc], div[loc], entry[loc], phs[loc], se[loc]
            tf = ts[loc] + t_evt[loc]
            hit_cap = (b - xf) / df <= (ef - xf) / df
            dur[loc] = t_evt[loc]
        hold[rows] += segment_holding(phs, xs, ts, dur)
        x[rows] = xs + sig_of[phs] * dur  # the fired rows are overwritten below
        t[rows] = se
        if not loc.size:
            return loc
        fired = loc if isinstance(rows, slice) else rows[loc]
        switch[fired] += np.where(hit_cap, stop_cost[pf], switch_cost[pf]) * np.exp(-q * tf)
        x[fired] = np.where(hit_cap, b, ef)
        ph[fired] = np.where(hit_cap, 0, 3 - pf)  # 3 - p: the other producing phase
        # a row stopped at capacity idles there until seg_end
        i = np.flatnonzero(hit_cap)
        hold[fired[i]] += segment_holding(
            np.zeros(i.size, dtype=np.intp), x[fired[i]], tf[i], sf[i] - tf[i]
        )
        i = np.flatnonzero(~hit_cap)
        t[fired[i]] = tf[i]
        return fired[i]

    counter = 0
    while True:
        u_tau, u_sel, u_size = _round_uniforms(keys, counter, mixture)
        counter += 1
        t_arr = t - np.log(u_tau) / lam
        seg_end = np.minimum(t_arr, t_star)

        # deterministic drift, switch-zone entries and capacity stops: one
        # pass over all rows, then passes over the rows that switched phase
        rows = slice(None)
        for _ in range(64):
            rows = drift(rows, seg_end)
            if rows.size == 0:
                break
        else:
            raise RuntimeError("drift resolution did not settle; malformed strategy?")

        # a row whose next demand falls past the horizon is finished; the
        # others take the demand jump
        live = t_arr < t_star
        n_live = int(np.count_nonzero(live))
        if n_live:
            y = _sample_demand(m, u_sel, u_size)
            raw = x - y
            cap = np.flatnonzero(live & (ph == 0))
            raw[cap] = b - y[cap]
            j = np.flatnonzero(live & (raw < l))
            short[j] += m.penalty(l - raw[j]) * np.exp(-q * t[j])
            x = np.maximum(raw, l)
            if cap.size:
                to1 = strategy.in_zone("c1", x[cap])
                switch[cap] += np.where(to1, k.k01, k.k02) * np.exp(-q * t[cap])
                ph[cap] = np.where(to1, 1, 2)
            # landing inside the other phase's switching zone triggers an
            # immediate switch (disjointness bounds this to one pass)
            j = np.flatnonzero(live & in_switching_zone(ph, x))
            for _ in range(2):
                if not j.size:
                    break
                phj = ph[j]
                switch[j] += switch_cost[phj] * np.exp(-q * t[j])
                ph[j] = 3 - phj
                j = j[in_switching_zone(ph[j], x[j])]

        if 2 * n_live <= len(pos):
            done = ~live
            out[:, pos[done]] = hold[done], short[done], switch[done]
            if not n_live:
                break
            keep = np.flatnonzero(live)
            keys, pos, x, ph, t = keys[keep], pos[keep], x[keep], ph[keep], t[keep]
            hold, short, switch = hold[keep], short[keep], switch[keep]

    return out[0], out[1], out[2]


def simulate_path(model: ModelConfig, strategy: SimStrategy, x0: float, phase0: int,
                  rng_seed: int, holding_fn=None):
    """One path; returns (total, holding, shortage, switching).

    Identical to path 0 of estimate_cost(base_seed=rng_seed).
    """
    strategy.check(model)
    keys = _path_keys(rng_seed, 0, 1)
    h, s, w = _run_paths(model, strategy, x0, phase0, keys, holding_fn=holding_fn)
    return float(h[0] + s[0] + w[0]), float(h[0]), float(s[0]), float(w[0])


def _worker_paths(model, strategy, x0, phase0, base_seed, span):
    lo, hi = span
    keys = _path_keys(base_seed, lo, hi - lo)
    return span, _run_paths(model, strategy, x0, phase0, keys)


def estimate_cost(
    model: ModelConfig,
    strategy: SimStrategy,
    x0: float,
    phase0: int,
    n_paths: int,
    base_seed: int,
    jobs: int = 1,
    holding_fn=None,
) -> SimEstimate:
    """Mean and standard error over independent per-path seed streams.

    Paths are chunked for parallelism but each path's draws depend only on
    (base_seed, path index, draw index), and the final reduction runs once
    over the full per-path arrays, so any worker count gives identical
    output.
    """
    if n_paths < 2:
        raise ValidationError("n_paths must be >= 2 for a standard error")
    strategy.check(model)
    hold = np.empty(n_paths)
    short = np.empty(n_paths)
    switch = np.empty(n_paths)
    chunk = 100_000 if jobs <= 1 else max(10_000, n_paths // (4 * jobs))
    spans = [(lo, min(lo + chunk, n_paths)) for lo in range(0, n_paths, chunk)]

    if jobs > 1 and len(spans) > 1 and holding_fn is None:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = [
                pool.submit(_worker_paths, model, strategy, x0, phase0, base_seed, s)
                for s in spans
            ]
            for fut in futures:
                (lo, hi), (h, s, w) = fut.result()
                hold[lo:hi], short[lo:hi], switch[lo:hi] = h, s, w
    else:
        for lo, hi in spans:
            keys = _path_keys(base_seed, lo, hi - lo)
            h, s, w = _run_paths(model, strategy, x0, phase0, keys, holding_fn=holding_fn)
            hold[lo:hi], short[lo:hi], switch[lo:hi] = h, s, w

    total = hold + short + switch

    def comp(arr):
        return ComponentEstimate(
            mean=float(np.mean(arr)),
            std_error=float(np.std(arr, ddof=1) / np.sqrt(n_paths)),
        )

    c_total = comp(total)
    return SimEstimate(
        mean=c_total.mean,
        std_error=c_total.std_error,
        n_paths=n_paths,
        holding=comp(hold),
        shortage=comp(short),
        switching=comp(switch),
        truncation_horizon=truncation_horizon(model),
        truncation_bound=TRUNCATION_FRACTION * upper_cost_bound(model),
    )


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
