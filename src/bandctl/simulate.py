"""Discrete-event Monte Carlo simulator of the controlled inventory.

It runs the band strategies the analytic engine prices, with one or two
bands, and also admits a backlog floor l < 0, which the engine rejects.
There is no time discretization anywhere: drift segments are integrated in
closed form and threshold crossings are solved exactly, so results are
reproducible bit for bit.

Randomness is counter-based (a splitmix64-style hash of (seed, path, draw)),
which makes every path's draws independent of batch size and worker count.
A batch evolves as dense per-path arrays, one round per demand arrival: an
in-place drift pass over all rows, a pass over the few rows that switched
phase, then the demand jump.  A path's arithmetic only ever reads its own
row, so its outcome does not depend on the batch it runs in either.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat

import numpy as np

from ._workers import fork_map, usable_workers
from .errors import InvalidStart, ValidationError
from .model import ModelConfig, is_integer, upper_cost_bound

TRUNCATION_FRACTION = 1e-4  # discounted tail mass kept below this share of the cost bound

_U64 = np.uint64
_GOLDEN = _U64(0x9E3779B97F4A7C15)
_PATH_STRIDE = _U64(0xBF58476D1CE4E5B7)  # odd constant decorrelating path keys


def _mix(x):
    """splitmix64 finalizer, in place on a uint64 array, which it returns."""
    s = np.right_shift(x, _U64(30))
    x ^= s
    x *= _U64(0xBF58476D1CE4E5B9)
    x ^= np.right_shift(x, _U64(27), out=s)
    x *= _U64(0x94D049BB133111EB)
    x ^= np.right_shift(x, _U64(31), out=s)
    return x


def _path_keys(base_seed: int, start: int, n: int) -> np.ndarray:
    p = np.arange(start, start + n, dtype=np.uint64)
    return _mix(_U64(int(base_seed) & 0xFFFFFFFFFFFFFFFF) + _PATH_STRIDE * (p + _U64(1)))


def _round_uniforms(keys: np.ndarray, counter: int, mixture: bool):
    """Round `counter`'s Uniform(0,1) draws (u_tau, u_sel, u_size) for every key.

    Draw 3*counter + j of a path is the j-th uniform of its round; all of a
    round's draws come from one hash call.  u_sel is None unless mixture.
    """
    slots = (0, 1, 2) if mixture else (0, 2)
    draws = np.array([3 * counter + j + 1 for j in slots], dtype=np.uint64)
    bits = _mix(keys + _GOLDEN * draws[:, None])
    bits >>= _U64(11)
    u = np.add(bits.view(np.int64), 0.5, out=bits.view(np.float64))  # in bits' memory
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


def _segment_cost(a, c, cs, x, dur, q, t0, w):
    """int_0^dur exp(-q(t0+s)) (a + c(x + sigma s)) ds in closed form, into w[0]; cs = c*sigma.

    w is a (3, rows) scratch block.  With m = expm1(-q dur) the integral is
    exp(-q t0) (cs ramp - (a + c x) m / q), where ramp = (-q dur exp(-q dur) - m) / q^2.
    """
    nqd, m, r = w
    np.expm1(np.multiply(-q, dur, out=nqd), out=m)
    np.subtract(np.multiply(nqd, np.exp(nqd, out=r), out=r), m, out=r)
    np.multiply(cs, np.divide(r, q**2, out=r), out=r)
    np.add(a, np.multiply(c, x, out=nqd), out=nqd)
    np.subtract(r, np.divide(np.multiply(nqd, m, out=nqd), q, out=nqd), out=r)
    return np.multiply(np.exp(np.multiply(-q, t0, out=nqd), out=nqd), r, out=nqd)


def _sample_demand(model: ModelConfig, u_sel: np.ndarray, u_size: np.ndarray) -> np.ndarray:
    """A round's demand sizes -log(u_size) / rate, written over u_size."""
    neg_rates, cum = _demand_tables(model.demand)
    rate = neg_rates[0]
    for c, r in zip(cum, neg_rates[1:]):  # the component after the last cumulative weight < u_sel
        rate = np.where(c < u_sel, r, rate)
    return np.divide(np.log(u_size, out=u_size), rate, out=u_size)


@lru_cache(maxsize=16)
def _demand_tables(demand):
    """-rates (log(u) / -rate is -log(u) / rate, bit for bit) and K-1 cumulative weights."""
    return -np.array(demand.rates), np.cumsum(demand.weights)[:-1]


def _run_paths(
    model: ModelConfig,
    strategy: SimStrategy,
    x0: float,
    phase0: int,
    keys: np.ndarray,
):
    """Evolve one batch of paths to the truncation horizon.

    Returns per-path (holding, shortage, switching) discounted totals.  A
    round draws its uniforms from one hash call, drifts every row to its
    next event or to the round's demand arrival, then applies the demand
    jump under a mask of the live rows.  Rows past the horizon accrue exact
    zeros until the live rows fall to half of the working set, which is
    then compacted.  A path's draws depend only on its key and the round
    counter, and its arithmetic only on its own row, so batch composition
    cannot change its outcome.

    The drift is one pass over all rows, in place on scratch arrays made
    once per call, then passes over the rows that switched phase or stopped
    at b.  A row that stops at b leaves its pass in phase 0 at its stop
    time, and the next pass idles it up to the round's end; an idle row
    never fires.  A demand landing inside the other phase's switching zone
    switches at once, and the zones are disjoint (y2 < y1), so after a jump
    no row lies in its own zone.  Phase 2 drifts up, so from above y2 it
    never enters [l, y2]; a row that switches 1 -> 2 lands at or above
    y1 > y2, so it can only stop at b.  So a round takes at most three
    passes: switch 1 -> 2, stop at b, idle.  The one exception is round 0
    from a phase-2 start at or below y2: it switches 2 -> 1 in the first
    pass and may then switch 1 -> 2, stop at b and idle, so it takes up to
    four passes.
    """
    m = model
    q, lam, b, l = m.q, m.lam, m.b, m.l
    t_star = truncation_horizon(m)
    k = m.switching
    mixture = len(m.demand.rates) > 1

    if not (is_integer(phase0) and 0 <= phase0 <= 2):
        raise InvalidStart(f"phase0 must be the integer 0, 1 or 2, got {phase0!r}")
    if phase0 == 0 and abs(x0 - b) > 1e-12:
        raise InvalidStart("phase 0 starts only at capacity b")
    if not l - 1e-12 <= x0 <= b + 1e-12:  # also rejects NaN
        raise InvalidStart(f"x0={x0} outside [{l}, {b}]")

    # per-phase tables indexed by phase id (0 idle at b, 1, 2): the switching
    # zone is [lo, hi], and phase 0's NaN lo makes its event time NaN, so an
    # idle row never fires; then the costs of reaching b and of entering the zone
    sig_of, a_of, c_of, lo_of, hi_of, stop_cost, switch_cost = np.array([
        [0.0, m.sigma1, m.sigma2], [m.h0_b, m.h1.a, m.h2.a], [0.0, m.h1.c, m.h2.c],
        [np.nan, strategy.y1, l], [np.inf, strategy.top, strategy.y2],
        [0.0, k.k10, k.k20], [0.0, k.k12, k.k21]])
    n = len(keys)
    out = np.empty((3, n))
    pos = np.arange(n)  # path index of each row
    x = np.full(n, float(b if phase0 == 0 else x0))  # an idle row restarts from b, whatever x0
    ph = np.full(n, int(phase0), dtype=np.intp)
    t, hold, short, switch = np.zeros((4, n))
    scratch = np.empty((8, n))  # the drift's rows, then the round's seg_end

    def drift(x, t, hold, switch, ph, se):
        """Drift rows in place up to their next event or se.  Returns the rows that
        switched phase or stopped at b (in phase 0), left at that time."""
        ent, tev, tf, dur, *w = scratch[:7, :len(x)]
        sig = sig_of[ph]
        # the zone's smallest point at or above x, +inf when none; entry
        # points lie at or below b when finite, so tev is the time to the
        # earlier of the switch and the stop at b, bit for bit
        np.maximum(x, lo_of[ph], out=ent)
        np.putmask(ent, x > hi_of[ph], np.inf)
        np.divide(np.subtract(np.minimum(ent, b, out=tev), x, out=tev), sig, out=tev)
        loc = (np.add(t, tev, out=tf) < se).nonzero()[0]
        xf, ef, tf, pf = x[loc], ent[loc], tf[loc], ph[loc]
        np.subtract(se, t, out=dur)
        dur[loc] = tev[loc]
        c = c_of[ph]
        hold += _segment_cost(a_of[ph], c, np.multiply(c, sig, out=tev), x, dur, q, t, w)
        x += np.multiply(sig, dur, out=dur)  # the fired rows are overwritten below
        t[:] = se
        if not loc.size:
            return loc
        df = sig_of[pf]
        hit_cap = (b - xf) / df <= (ef - xf) / df
        switch[loc] += np.where(hit_cap, stop_cost[pf], switch_cost[pf]) * np.exp(-q * tf)
        x[loc] = np.where(hit_cap, b, ef)
        ph[loc] = np.where(hit_cap, 0, 3 - pf)  # 3 - p: the other producing phase
        t[loc] = tf
        return loc

    counter = 0
    while True:
        u_tau, u_sel, u_size = _round_uniforms(keys, counter, mixture)
        counter += 1
        # the demand's arrival time, over u_tau, and the end of the drift
        t_arr = np.subtract(t, np.divide(np.log(u_tau, out=u_tau), lam, out=u_tau), out=u_tau)
        seg_end = np.minimum(t_arr, t_star, out=scratch[7, :len(t)])

        rows = drift(x, t, hold, switch, ph, seg_end)
        while rows.size:  # at most three times, as the docstring shows
            state = x[rows], t[rows], hold[rows], switch[rows], ph[rows]
            switched = drift(*state, seg_end[rows])
            x[rows], t[rows], hold[rows], switch[rows], ph[rows] = state
            rows = rows[switched]

        # a row whose next demand falls past the horizon is finished; the
        # others take the demand jump
        live = t_arr < t_star
        n_live = int(np.count_nonzero(live))
        if n_live:
            # an idle row sits at b, so x - y is also its restart level
            cap = (live & (ph == 0)).nonzero()[0]
            raw = np.subtract(x, _sample_demand(m, u_sel, u_size), out=u_size)
            j = (live & (raw < l)).nonzero()[0]
            short[j] += m.penalty(l - raw[j]) * np.exp(-q * t[j])
            np.maximum(raw, l, out=x)
            if cap.size:
                to1 = x[cap] <= strategy.y3
                switch[cap] += np.where(to1, k.k01, k.k02) * np.exp(-q * t[cap])
                ph[cap] = np.where(to1, 1, 2)
            # landing inside the other phase's switching zone switches at
            # once; the zones are disjoint, so the new phase's zone misses x
            zone = live & (x >= lo_of[ph])
            j = np.logical_and(zone, x <= hi_of[ph], out=zone).nonzero()[0]
            switch[j] += switch_cost[ph[j]] * np.exp(-q * t[j])
            ph[j] = 3 - ph[j]

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
    identical output.  n_paths, base_seed and jobs are each an int or a
    numpy integer that is not a bool; base_seed is taken modulo 2**64.
    """
    if not (is_integer(n_paths) and n_paths >= 2 and is_integer(jobs) and jobs >= 1
            and is_integer(base_seed)):
        raise ValidationError("n_paths must be >= 2 for a standard error and jobs >= 1, and both"
                              f" and base_seed must be integers; got n_paths={n_paths!r},"
                              f" jobs={jobs!r}, base_seed={base_seed!r}")
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
