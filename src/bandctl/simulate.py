"""Discrete-event Monte Carlo simulator of the controlled inventory.

It runs the band strategies the analytic engine prices, with one or two
bands, and also admits a backlog floor l < 0, which the engine rejects.
There is no time discretization anywhere: drift segments are integrated in
closed form and threshold crossings are solved exactly, so results are
reproducible bit for bit.

Randomness is counter-based (a splitmix64-style hash of (seed, path, draw)),
which makes every path's draws independent of batch size and worker count.
A batch evolves as dense per-path arrays, one round per demand arrival,
and a path's arithmetic only ever reads its own row, so its outcome does
not depend on the batch it runs in either.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat

import numpy as np

from ._workers import fork_map, usable_workers
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
    """A band strategy by its thresholds, l <= y2 <= y3 < y1 <= top <= b.

    Phase 1 switches to phase 2 on [y1, top], where top is y4 for a type-two
    band and b otherwise; phase 2 switches to phase 1 on [l, y2].  A restart
    from capacity selects phase 1 when the demand lands at or below y3, and
    phase 2 otherwise.
    """

    y2: float
    y3: float
    y1: float
    top: float

    @classmethod
    def from_band(cls, band, model: ModelConfig) -> "SimStrategy":
        y4 = getattr(band, "y4", None)
        return cls(band.y2, band.y3, band.y1, model.b if y4 is None else y4)

    def check(self, model: ModelConfig) -> "SimStrategy":
        """Raise ValidationError unless l <= y2 <= y3 < y1 <= top <= b.

        y2 may exceed y3, and top may exceed b, by up to 1e-12.
        """
        l, y2, y3 = model.l, self.y2, self.y3
        if not (l <= min(y2, y3) and y2 <= y3 + 1e-12
                and max(y2, y3) < self.y1 <= self.top <= model.b + 1e-12):
            raise ValidationError(
                f"band needs l <= y2 <= y3 < y1 <= top <= b, got {self} with l={l}, b={model.b}")
        return self


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
    if not l - 1e-12 <= x0 <= b + 1e-12:  # also rejects NaN
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
    n = len(keys)
    out = np.empty((3, n))
    pos = np.arange(n)  # path index of each row
    x = np.full(n, float(x0))
    ph = np.full(n, int(phase0), dtype=np.intp)
    t = np.zeros(n)
    hold = np.zeros(n)
    short = np.zeros(n)
    switch = np.zeros(n)

    # each phase's switching zone [lo, hi]; the idle phase 0 has the empty [inf, inf]
    lo_of = np.array([np.inf, strategy.y1, l])
    hi_of = np.array([np.inf, strategy.top, strategy.y2])

    def zone_entry(phs, xs):
        """Smallest point of each row's switching zone at or above x; +inf when none."""
        return np.where(xs <= hi_of[phs], np.maximum(xs, lo_of[phs]), np.inf)

    def in_switching_zone(phs, xs):
        return (xs >= lo_of[phs]) & (xs <= hi_of[phs])

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
        hold[rows] += _segment_cost(a_of[phs], c_of[phs], cs_of[phs], xs, dur, q, ts)
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
        hold[fired[i]] += _segment_cost(a_of[0], c_of[0], cs_of[0], x[fired[i]],
                                        sf[i] - tf[i], q, tf[i])
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
                to1 = x[cap] <= strategy.y3
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
) -> SimEstimate:
    """Mean and standard error over independent per-path seed streams.

    jobs bounds the worker processes: up to jobs forked ones, one per
    usable CPU, where the polish's rule (_workers.usable_workers) allows it.
    Paths run in chunks, of 25,000 in one process (faster than one large
    batch) or spread over the workers, but each path's draws depend only on
    (base_seed, path index, draw index), and the final reduction runs once
    over the full per-path arrays, so any chunking and worker count give
    identical output.
    """
    if n_paths < 2:
        raise ValidationError("n_paths must be >= 2 for a standard error")
    strategy.check(model)
    hold = np.empty(n_paths)
    short = np.empty(n_paths)
    switch = np.empty(n_paths)
    workers = usable_workers(jobs)
    chunk = 25_000 if workers <= 1 else max(10_000, n_paths // (4 * workers))
    spans = [(lo, min(lo + chunk, n_paths)) for lo in range(0, n_paths, chunk)]

    results = fork_map(_worker_paths, min(workers, len(spans)), repeat(model),
                       repeat(strategy), repeat(x0), repeat(phase0), repeat(base_seed), spans)
    for (lo, hi), (h, s, w) in results:
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
