"""Discounted holding, shortage and switching costs for one-band policies.

A type-one band keeps phase 2 on (y2, b), switches 2 -> 1 on [0, y2],
switches 1 -> 2 on [y1, b), and after a restart from capacity picks phase 1
iff the landing point is at or below y3.  The two-threshold policy is the
special case y3 = y2.

Each of the three cost kinds decomposes as  value(x) = base(x) + slope(x) *
level_b_value.  A phase's six slope/base coefficients (alpha, beta for
holding, gamma, mu for shortage, delta, omega for switching) are one stack,
built from one evaluation of the exit and transfer-map quantities at x.  The
level-b scalars solve one-dimensional linear fixed points assembled by
quadrature of the stacks over the demand density.  A lattice row of bands
that share (y2, y3) is assembled in one pass, with y1 along a band axis
(lattice_V0); one band is a row of one and runs through the same code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import FixedPointNotContractive, OutOfBand, ValidationError
from .model import ModelConfig
from .passage import ExitContext, Omega2, integrate
from .scale import ExpConvolution, build_scale

_MIN_GAP = 1e-9


@dataclass(frozen=True)
class BandOne:
    """Thresholds 0 <= y2 <= y3 < y1 < b; Doshi policies have y3 = y2.

    y1 may be a 1-D array: a lattice row of bands sharing (y2, y3), which
    TypeOneAssembly evaluates with the code for one band (see lattice_V0).
    """

    y2: float
    y3: float
    y1: float

    def check(self, b: float) -> "BandOne":
        y1 = np.asarray(self.y1)
        if not (0 <= self.y2 <= self.y3 and np.all(self.y3 < y1) and np.all(y1 < b)):
            raise ValidationError(f"band ordering violated: {self} with b={b}")
        if np.any(y1 - self.y3 < _MIN_GAP):
            raise ValidationError("y1 must exceed y3 by at least 1e-9")
        return self

    @property
    def is_doshi(self) -> bool:
        return self.y3 == self.y2


@dataclass(frozen=True)
class BandTwo:
    """Type-two thresholds 0 <= y2 <= y3 < y1 < y4 < b.

    Phase 1 switches to 2 only on [y1, y4]; above y4 it keeps producing
    until capacity.
    """

    y2: float
    y3: float
    y1: float
    y4: float

    def check(self, b: float) -> "BandTwo":
        if not (0 <= self.y2 <= self.y3 < self.y1 < self.y4 < b):
            raise ValidationError(f"band ordering violated: {self} with b={b}")
        if self.y1 - self.y3 < _MIN_GAP or self.y4 - self.y1 < _MIN_GAP:
            raise ValidationError("thresholds must be separated by at least 1e-9")
        return self

    def lower(self) -> BandOne:
        return BandOne(self.y2, self.y3, self.y1)


def _contractive(ok, value, message: str) -> None:
    """Raise FixedPointNotContractive unless ok holds for every band.

    message is formatted with the value of the first band that fails.
    """
    ok = np.asarray(ok)
    if not ok.all():
        bad = np.asarray(value)[~ok].flat[0]
        raise FixedPointNotContractive(message.format(bad))


def _against_exp(mus, fn, lo: float, hi: float, lead=()) -> np.ndarray:
    """int_lo^hi fn(u) * exp(mu_k u) du for every demand rate mu_k in mus.

    fn maps nodes of shape (m,) to values of shape (lead..., m); the result
    has shape (lead..., k), and all rows share one quadrature.  An empty
    segment gives zeros without calling fn.
    """
    if hi <= lo:
        return np.zeros(tuple(lead) + mus.shape)
    out = integrate(lambda u: np.asarray(fn(u))[..., None, :] * np.exp(mus[:, None] * u), lo, hi)
    return np.asarray(out, dtype=float)


class PhaseTwoContext:
    """The phase-2 objects of a type-one band that depend only on (model, y2).

    The exit context on (y2, b), the transfer map and _cZ/_coef_Z (Z1's
    demand transform over [0, y2]); at_nodes memoizes bases at the level-b
    J2 nodes, for the 16 latest (context, node array) pairs.  Cached arrays
    are read-only.
    """

    def __init__(self, model: ModelConfig, y2: float):
        s1 = build_scale(model, 1)
        self.h2 = model.h2
        self.exit2 = ExitContext(build_scale(model, 2), y2, model.b)
        self.om = Omega2(s1, self.exit2)
        self.mus = np.array(model.demand.rates, dtype=float)
        self.ws = np.array(model.demand.weights, dtype=float)
        self._cZ = _against_exp(self.mus, s1.Z, 0.0, y2)
        self._coef_Z = self.ws * (1.0 + self.mus * self._cZ)
        for arr in (self.mus, self.ws, self._cZ, self._coef_Z, self.exit2._B,
                    self.om._coef_z, self.om._coef_w):
            arr.setflags(write=False)

    def bases(self, x):
        """up, down, Omega(Z1), phase-2 holding, Omega(Wbarbar1), G, coef_Z . G at x."""
        ex, om = self.exit2, self.om
        up = ex.up(x)
        down = ex.down(x, up)
        G = ex.resolvent_transform(x, up)
        return (up, down, om.apply_Z1(x, up), ex.holding(x, self.h2, up, down),
                om.apply_Wbarbar1(x, up), G, np.tensordot(self._coef_Z, G, axes=(0, 0)))

    def at_nodes(self, x: np.ndarray):
        """bases(x) for a 1-D node array, memoized by its exact bytes."""
        return self._bases_at(x.tobytes())

    @lru_cache(maxsize=16)  # one memo over all contexts, so its size is bounded
    def _bases_at(self, key: bytes) -> tuple:
        vals = self.bases(np.frombuffer(key))
        for arr in vals:
            arr.setflags(write=False)
        return vals


phase_two_context = lru_cache(maxsize=32)(PhaseTwoContext)


@lru_cache(maxsize=16)
def _demand_conv(model: ModelConfig) -> ExpConvolution:
    """The exponent pair of lam * ptail (rates -mu_k) against W1, one per model."""
    return ExpConvolution(-np.array(model.demand.rates, dtype=float),
                          build_scale(model, 1).exponents)


class TypeOneAssembly:
    """All closed-form machinery for one (model, band) pair.

    Construction solves the three level-b fixed points; afterwards every
    exposed function is a pure vectorized evaluation.  What depends only on
    y2 comes from the shared PhaseTwoContext, whose node memo only the
    level-b J2 integrand reads; each exit quantity is evaluated once per x.

    One band is a lattice row of one: its y1-dependent scalars are 0-d, a
    row's are (bands, 1) columns along a band axis that broadcasts against
    the node axis.  H0, S0, K0 are then 0-d or arrays along y1, and a row's
    costs(phase, x) gain a leading band axis.
    """

    def __init__(self, model: ModelConfig, band: BandOne):
        band.check(model.b)
        self.model = m = model
        self.band = band
        y2 = band.y2
        y1 = np.asarray(band.y1, dtype=float)
        y1 = y1.reshape(y1.shape + (1,) * y1.ndim)
        p2 = self.p2 = phase_two_context(m, float(y2))
        s1 = self.s1 = p2.om.s1
        self._mus, self._ws = p2.mus, p2.ws

        self.Z1y1, self.W1y1, self.Wbb1y1 = s1.Z(y1), s1.W(y1), s1.Wbarbar(y1)

        # shortage building blocks: P1 = int_0^{y1} W1(y1-z) * lam * ptail(z) dz,
        # with lam * ptail an exponential sum over the demand components
        p0, p1 = m.penalty.p0, m.penalty.p1
        self._lam_ptail = m.lam * self._ws * (p0 + p1 / self._mus)
        self.P1 = self._Px(y1)
        self.S1xy0 = self.P1 / self.Z1y1  # value of the renewal sum started at 0

        # demand-transform constant for the phase-2 landing integrals
        mus, ws = self._mus, self._ws
        self._cS = _against_exp(mus, self.S1xy, 0.0, y2, y1.shape[:-1])
        self._coef_S = ws * (p0 + p1 / mus + self.S1xy0) + ws * mus * self._cS

        # scalars at y1 feeding the linear representations
        self.up_y1 = p2.exit2.up(y1)
        self.down_y1 = p2.exit2.down(y1, self.up_y1)
        self.omZ_y1 = p2.om.apply_Z1(y1, self.up_y1)
        self.r = self.omZ_y1 / self.Z1y1
        self.denom = self.Z1y1 - self.omZ_y1
        _contractive((0 <= self.r) & (self.r < 1), self.r,
                     "phase-2 return factor r={} outside [0,1)")
        at_y1 = self._phase2_bases(np.atleast_1d(y1))
        _, _, _, self.A_y1, self._mu_y1, g_y1 = (v.reshape(y1.shape) for v in at_y1)
        _contractive((0 <= g_y1) & (g_y1 < 1), g_y1, "shortage renewal factor {} outside [0,1)")
        self._gamma_y1 = g_y1
        self.alpha2_y1 = self.up_y1 * self.Z1y1 / self.denom
        self.beta2_y1 = self.A_y1 * self.Z1y1 / self.denom
        self.mu2_y1 = self._mu_y1 / (1.0 - g_y1)
        self.gamma2_y1 = self.up_y1 / (1.0 - g_y1)
        k = m.switching
        k2num = k.k20 * self.up_y1 + k.k12 * self.r + k.k21 * self.down_y1
        self.omega2_y1 = k2num / (1.0 - self.r)
        self.delta2_y1 = self.up_y1 / (1.0 - self.r)

        # level-b fixed points H0, S0, K0
        self._solve_level_b()

    # -- phase-2 stack (domain [y2, b]) -------------------------------------

    def _phase2_bases(self, x, memo: bool = False):
        """up, down, Omega(Z1), the holding base and the two shortage bases at x.

        The shortage bases are the cost and the renewal factor before the
        return through y1.  The y1-independent quantities come from one
        PhaseTwoContext.bases evaluation, or with memo from its node memo.
        """
        m = self.model
        up, down, omZ, hold2, omW, G, ZG = (self.p2.at_nodes if memo else self.p2.bases)(x)
        zr = omZ / self.Z1y1
        A = hold2 + (m.h1.a / m.q) * (down - zr) + m.h1.c * (zr * self.Wbb1y1 - omW)
        # each band's coefficients, (1, k) or (bands, 1, k), against G with
        # the demand components moved last; x is (nodes,) or (bands, 1)
        mu_base = m.lam * (self._coef_S[..., None, :] * np.moveaxis(G, 0, -1)).sum(axis=-1)
        gamma_base = m.lam / self.Z1y1 * ZG
        return up, down, omZ, A, mu_base, gamma_base

    def phase2(self, x, memo: bool = False):
        """Rows (alpha, beta, gamma, mu, delta, omega) of phase 2 at x."""
        up, down, omZ, A, mu_base, g = self._phase2_bases(x, memo)
        zr = omZ / self.Z1y1
        k = self.model.switching
        return np.stack(
            [
                up + omZ * self.up_y1 / self.denom,
                A + omZ * self.A_y1 / self.denom,
                up + self.up_y1 * g / (1.0 - self._gamma_y1),
                mu_base + g * self._mu_y1 / (1.0 - self._gamma_y1),
                up + zr * self.delta2_y1,
                k.k20 * up + k.k21 * down + zr * (k.k12 + self.omega2_y1),
            ]
        )

    # -- phase-1 primitives (domain [0, y1]; constant below 0) ---------------

    def H1xy(self, x, Zx=None):
        """Expected discounted holding at phase 1 (floor-reflected) until y1; Zx is Z1(x)."""
        m, s1 = self.model, self.s1
        x = np.asarray(x, dtype=float)
        zr = (s1.Z(x) if Zx is None else Zx) / self.Z1y1
        return (m.h1.a / m.q) * (1.0 - zr) + m.h1.c * (zr * self.Wbb1y1 - s1.Wbarbar(x))

    def _Px(self, x):
        """int_0^x W1(x-z) * lam * ptail(z) dz, in closed form."""
        return _demand_conv(self.model)(0.0, x, self._lam_ptail, self.s1.weights)

    def S1xy(self, x, Zx=None, Wx=None):
        """Expected discounted shortage at phase 1 until reaching y1.

        Potential-density integral plus the geometric renewal of returns to
        the floor; extends automatically as a constant for x < 0.  The
        shortage integral of W1 against the penalty tail is a closed-form
        convolution of two exponential sums.  Zx and Wx are Z1(x) and W1(x).
        """
        s1 = self.s1
        x = np.asarray(x, dtype=float)
        Zx = s1.Z(x) if Zx is None else Zx
        Wx = s1.W(x) if Wx is None else Wx
        Px = self._Px(x)
        Ix = Wx * self.P1 / self.W1y1 - Px
        down1 = Zx - Wx * self.Z1y1 / self.W1y1
        return Ix + down1 * self.P1 / self.Z1y1

    def phase1(self, x):
        """Rows (alpha, beta, gamma, mu, delta, omega) of phase 1 at x."""
        x = np.asarray(x, dtype=float)
        Zx, Wx = self.s1.Z(x), self.s1.W(x)
        zr = Zx / self.Z1y1
        return np.stack(
            [
                zr * self.alpha2_y1,
                self.H1xy(x, Zx) + zr * self.beta2_y1,
                zr * self.gamma2_y1,
                self.S1xy(x, Zx, Wx) + zr * self.mu2_y1,
                zr * self.delta2_y1,
                zr * (self.model.switching.k12 + self.omega2_y1),
            ]
        )

    # -- level-b fixed points ------------------------------------------------

    def _solve_level_b(self) -> None:
        m = self.model
        y3, b = self.band.y3, m.b
        lam, q = m.lam, m.q
        d = m.demand
        w = lam / (lam + q)
        sfb = d.sf(b)

        # rows of shape (6,) for one band, (6, bands) for a lattice row
        tail = self.phase1(np.asarray([0.0]))[..., 0] * sfb
        J2 = (
            integrate(lambda z: self.phase2(b - z, memo=True) * d.pdf(z), 0.0, b - y3)
            if b - y3 > 0 else np.zeros(tail.shape)
        )
        J1 = (
            integrate(lambda z: self.phase1(b - z) * d.pdf(z), b - y3, b)
            if y3 > 0 else np.zeros(tail.shape)
        )

        mH = w * (J2[0] + J1[0] + tail[0])
        cH = m.h0_b / (q + lam) + w * (J2[1] + J1[1] + tail[1])
        mS = w * (J2[2] + J1[2] + tail[2])
        ptail_b = float(d.penalty_tail(b, m.penalty.p0, m.penalty.p1))
        cS = w * (ptail_b + J2[3] + J1[3] + tail[3])
        mK = w * (J2[4] + J1[4] + tail[4])
        k = m.switching
        cK = w * (
            J2[5] + J1[5] + tail[5]
            + k.k02 * d.cdf(b - y3)
            + k.k01 * (1.0 - d.cdf(b - y3))
        )
        for name, mm in (("holding", mH), ("shortage", mS), ("switching", mK)):
            _contractive(np.logical_not(np.abs(mm) >= 1.0), mm,
                         name + " level-b multiplier |m|={} >= 1")
        self.H0, self.S0, self.K0 = cH / (1.0 - mH), cS / (1.0 - mS), cK / (1.0 - mK)

    # -- assembled costs -----------------------------------------------------

    def costs(self, phase: int, x):
        """(H, S, K) of the phase at x: each slope times its level-b scalar plus base."""
        alpha, beta, gamma, mu, delta, omega = self.phase1(x) if phase == 1 else self.phase2(x)
        return alpha * self.H0 + beta, mu + gamma * self.S0, omega + delta * self.K0


def lattice_V0(model: ModelConfig, y2: float, y3: float, y1s) -> np.ndarray:
    """V0(b) of the bands (y2, y3, y1) for every y1 in y1s, from one assembly.

    One band runs through the same code as a row, so each value equals
    total_cost(model, BandOne(y2, y3, y1)).V0 up to the node count of the
    shared level-b quadrature, whose doubling stops only when every band of
    the row has converged; for a row of one the two are equal.
    """
    asm = TypeOneAssembly(model, BandOne(y2, y3, np.asarray(y1s, dtype=float)))
    return asm.H0 + asm.S0 + asm.K0


@lru_cache(maxsize=128)
def _assembly(model: ModelConfig, band: BandOne) -> TypeOneAssembly:
    return TypeOneAssembly(model, band)


@dataclass(frozen=True)
class CostSurface:
    """Piecewise cost surface per the switching-zone table.

    branches maps each zone tag to a function x -> (H, S, K); inside the
    switching zones K already includes the +K21 / +K12 lump.  V = H + S + K.
    side=-1/+1 select the one-sided limit branch at a threshold (side=0
    returns the table value).
    """

    model: ModelConfig
    band: object
    kind: str
    H0: float
    S0: float
    K0: float
    branches: dict = field(repr=False)
    thresholds: tuple = ()

    @property
    def V0(self) -> float:
        return self.H0 + self.S0 + self.K0

    def scalar(self, name: str) -> float:
        return {"H": self.H0, "S": self.S0, "K": self.K0, "V": self.V0}[name]

    def _tags(self, phase: int, x: np.ndarray, side: int):
        y2, y1 = self.band.y2, self.band.y1
        y4 = getattr(self.band, "y4", None)
        if phase == 2:
            in_low = x <= y2 if side <= 0 else x < y2
            yield "p1k", in_low
            yield "p2", ~in_low
            return
        if side < 0:
            low = x <= y1
        else:
            low = x < y1
        if y4 is None:
            yield "p1", low
            yield "p2k", ~low
            return
        if side > 0:
            up = x >= y4
        else:
            up = x > y4
        yield "p1", low
        yield "p2k", ~low & ~up
        yield "up", up

    def _evaluate(self, phase: int, x, side: int, names: str) -> tuple:
        """The named components (of "VHSK") at x, from one evaluation of each branch."""
        x_arr = np.atleast_1d(np.asarray(x, dtype=float))
        if np.any(x_arr < self.model.l - 1e-12) or np.any(x_arr > self.model.b + 1e-12):
            raise OutOfBand("x outside [l, b]")
        out = np.empty((len(names),) + x_arr.shape)
        for tag, mask in self._tags(phase, x_arr, side):
            if np.any(mask):
                H, S, K = self.branches[tag](x_arr[mask])
                parts = {"H": H, "S": S, "K": K, "V": H + S + K}
                for row, name in zip(out, names):
                    row[mask] = parts[name]
        return tuple(out[:, 0] if np.isscalar(x) or np.asarray(x).ndim == 0 else out)

    def components(self, phase: int, x, side: int = 0) -> tuple:
        """(V, H, S, K) at x, from one evaluation of each branch."""
        return self._evaluate(phase, x, side, "VHSK")

    def component(self, name: str, phase: int, x, side: int = 0):
        return self.components(phase, x, side)["VHSK".index(name)]

    def V(self, phase: int, x, side: int = 0):
        return self._evaluate(phase, x, side, "V")[0]


def _make_branches(asm: TypeOneAssembly) -> dict:
    k = asm.model.switching

    def switching_zone(phase: int, lump: float):
        def costs(x):
            H, S, K = asm.costs(phase, x)
            return H, S, K + lump

        return costs

    return {
        "p1": lambda x: asm.costs(1, x),
        "p1k": switching_zone(1, k.k21),
        "p2": lambda x: asm.costs(2, x),
        "p2k": switching_zone(2, k.k12),
    }


def total_cost(model: ModelConfig, band: BandOne) -> CostSurface:
    """Assemble the full type-one surface (Doshi when y3 = y2)."""
    asm = _assembly(model, band.check(model.b))
    return CostSurface(
        model=model,
        band=band,
        kind="doshi" if band.is_doshi else "one",
        H0=float(asm.H0),
        S0=float(asm.S0),
        K0=float(asm.K0),
        branches=_make_branches(asm),
        thresholds=(band.y2, band.y3, band.y1),
    )
