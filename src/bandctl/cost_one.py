"""Discounted holding, shortage and switching costs for one-band policies.

A type-one band keeps phase 2 on (y2, b), switches 2 -> 1 on [0, y2],
switches 1 -> 2 on [y1, b), and after a restart from capacity picks phase 1
iff the landing point is at or below y3.  The two-threshold policy is the
special case y3 = y2.

Each of the three cost kinds decomposes as  value(x) = base(x) + alpha(x) *
level_b_value, one discount alpha(x) = E_x[e^{-q tau_b}] serving all three.
A phase's four coefficients (alpha; the holding, shortage and switching
bases beta, mu, omega) are one stack, from one evaluation of the exit and
transfer-map quantities at x.  The level-b fixed points share one multiplier
(quadratures of the stacks over the demand density).  A lattice row of bands
that share (y2, y3) is assembled in one pass, with y1 along a band axis
(lattice_V0); one band is a row of one and runs through the same code.

Kernel values are shared, never recomputed: Z1, W1 and Wbarbar1 at y1, and
at each array of phase-1 nodes, come from one ScaleSet.kernels call, and
what depends on the model alone (ModelParts: both scales, the demand arrays,
the penalty-tail convolution, the level-b demand terms and the phase-1
values at the floor) is built once per model.  Sharing hands every matmul
the operands a separate evaluation would, and the arithmetic after it runs
in the same order, so each cost, and so each polish objective, keeps its
bits (tests/data/polish-bits.json pins V0 along the polish paths).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, partial

import numpy as np

from .errors import FixedPointNotContractive, OutOfBand, ValidationError
from .model import ModelConfig, check_phase
from .passage import ExitContext, Omega2, _against_exp, integrate
from .scale import ExpConvolution, build_scale

_MIN_GAP = 1e-9  # strict-ordering gap between thresholds, here and in the optimizer


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
        if not (0 <= self.y2 <= self.y3 and (self.y3 < y1).all() and (y1 < b).all()):
            raise ValidationError(f"band ordering violated: {self} with b={b}")
        if (y1 - self.y3 < _MIN_GAP).any():
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


class ModelParts:
    """What a type-one assembly needs of the model alone, built once per model.

    Both scales, the demand rates and weights, lam * ptail as an exponential
    sum (rates -mu_k, coefficients lam_ptail) and its convolution against
    W1, the level-b demand terms sf(b) and penalty_tail(b), and at the floor
    x = [0] the phase-1 values (W1, Wbarbar1, Z1, P) that the level-b tail
    reads.  Arrays are read-only.
    """

    def __init__(self, model: ModelConfig):
        d, (p0, p1) = model.demand, (model.penalty.p0, model.penalty.p1)
        self.s1, self.s2 = build_scale(model, 1), build_scale(model, 2)
        self.mus = d.rate_array
        self.ws = np.array(d.weights, dtype=float)
        self.lam_ptail = model.lam * self.ws * (p0 + p1 / self.mus)
        self.demand_conv = ExpConvolution(-self.mus, self.s1.exponents)
        self.sf_b = d.sf(model.b)
        self.ptail_b = float(d.penalty_tail(model.b, p0, p1))
        x0 = np.asarray([0.0])
        W0, _, Wbb0, Z0, _ = self.s1.kernels(x0)
        self.floor = (W0, Wbb0, Z0, self.demand_conv(0.0, x0, self.lam_ptail, self.s1.weights))
        for arr in (self.ws, self.lam_ptail, *self.floor):
            arr.setflags(write=False)


model_parts = lru_cache(maxsize=16)(ModelParts)


class PhaseTwoContext:
    """The phase-2 objects of a type-one band that depend only on (model, y2).

    The model's parts (ModelParts), the exit context on (y2, b) and the
    transfer map; at_nodes memoizes bases at the level-b J2 nodes, for the
    16 latest (context, node array) pairs.  Cached arrays are read-only.
    The memo pays where bands share (y2, y3), whose J2 nodes repeat: on
    ex1, whose polish sits at y2 = y3 = 0, it serves 340 of a serial
    escalate's 404 lookups.
    """

    def __init__(self, model: ModelConfig, y2: float):
        self.parts = parts = model_parts(model)
        self.h2 = model.h2
        self.exit2 = ExitContext(parts.s2, y2, model.b)
        self.om = Omega2(parts.s1, self.exit2)
        self.exit2._B.setflags(write=False)

    def bases(self, x):
        """up, down, Omega(Z1), phase-2 holding, Omega(Wbarbar1) and G at x."""
        up, down, hold = self.exit2.exits(x, self.h2)
        G = self.exit2.resolvent_transform(x, up)
        omZ, omW = self.om.apply(x, up)
        return up, down, omZ, hold, omW, G

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


class TypeOneAssembly:
    """All closed-form machinery for one (model, band) pair.

    Construction solves the three level-b fixed points (one multiplier, the
    integrated alpha row); afterwards every
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

        self.W1y1, _, self.Wbb1y1, self.Z1y1, _ = s1.kernels(y1)

        # shortage building blocks: P1 = int_0^{y1} W1(y1-z) * lam * ptail(z) dz,
        # with lam * ptail an exponential sum over the demand components
        p0, p1 = m.penalty.p0, m.penalty.p1
        self.P1 = self._Px(y1)
        self.S1xy0 = self.P1 / self.Z1y1  # value of the renewal sum started at 0

        # demand-transform constant for the phase-2 landing integrals
        mus, ws = p2.parts.mus, p2.parts.ws
        self._cS = _against_exp(mus, self.S1xy, 0.0, y2, y1.shape[:-1])
        self._coef_S = ws * (p0 + p1 / mus + self.S1xy0) + ws * mus * self._cS

        # scalars at y1 feeding the linear representations
        at_y1 = self._phase2_bases(np.atleast_1d(y1))
        self.up_y1, self.down_y1, self.omZ_y1, self.A_y1, self._mu_y1 = (
            v.reshape(y1.shape) for v in at_y1)
        self.r = self.omZ_y1 / self.Z1y1
        self.denom = self.Z1y1 - self.omZ_y1
        _contractive((0 <= self.r) & (self.r < 1), self.r,
                     "phase-2 return factor r={} outside [0,1)")
        self.alpha2_y1 = self.up_y1 * self.Z1y1 / self.denom
        self.beta2_y1 = self.A_y1 * self.Z1y1 / self.denom
        self.mu2_y1 = self._mu_y1 * self.Z1y1 / self.denom
        k = m.switching
        k2num = k.k20 * self.up_y1 + k.k12 * self.r + k.k21 * self.down_y1
        self.omega2_y1 = k2num / (1.0 - self.r)

        # level-b fixed points H0, S0, K0
        self._solve_level_b()

    # -- phase-2 stack (domain [y2, b]) -------------------------------------

    def _phase2_bases(self, x, memo: bool = False):
        """up, down, Omega(Z1), the holding base and the shortage base at x.

        The bases are the costs before the return through y1, whose renewal
        runs through Omega(Z1) and denom, as alpha's does.  The y1-independent
        quantities come from one PhaseTwoContext.bases evaluation, or with
        memo from its node memo.
        """
        m = self.model
        up, down, omZ, hold2, omW, G = (self.p2.at_nodes if memo else self.p2.bases)(x)
        zr = omZ / self.Z1y1
        A = hold2 + (m.h1.a / m.q) * (down - zr) + m.h1.c * (zr * self.Wbb1y1 - omW)
        # each band's coefficients, (1, k) or (bands, 1, k), against G with
        # the demand components moved last; x is (nodes,) or (bands, 1)
        mu_base = m.lam * (self._coef_S[..., None, :] * G.transpose(*range(1, G.ndim), 0)).sum(
            axis=-1)
        return up, down, omZ, A, mu_base

    def phase2(self, x, memo: bool = False):
        """Rows (alpha, beta, mu, omega) of phase 2 at x (module docstring)."""
        up, down, omZ, A, mu_base = self._phase2_bases(x, memo)
        zr = omZ / self.Z1y1
        k = self.model.switching
        return np.array([
            up + omZ * self.up_y1 / self.denom,
            A + omZ * self.A_y1 / self.denom,
            mu_base + omZ * self._mu_y1 / self.denom,
            k.k20 * up + k.k21 * down + zr * (k.k12 + self.omega2_y1),
        ])

    # -- phase-1 primitives (domain [0, y1]; constant below 0) ---------------

    def H1xy(self, x):
        """Expected discounted holding at phase 1 (floor-reflected) until y1."""
        _, _, Wbbx, Zx, _ = self.s1.kernels(x, W=False)
        return self._H1(Zx, Wbbx)

    def _H1(self, Zx, Wbbx):
        """H1xy from Z1(x) and Wbarbar1(x)."""
        m = self.model
        zr = Zx / self.Z1y1
        return (m.h1.a / m.q) * (1.0 - zr) + m.h1.c * (zr * self.Wbb1y1 - Wbbx)

    def _Px(self, x):
        """int_0^x W1(x-z) * lam * ptail(z) dz, in closed form."""
        parts = self.p2.parts
        return parts.demand_conv(0.0, x, parts.lam_ptail, self.s1.weights)

    def S1xy(self, x):
        """Expected discounted shortage at phase 1 until reaching y1.

        Potential-density integral plus the geometric renewal of returns to
        the floor; extends automatically as a constant for x < 0.  The
        shortage integral of W1 against the penalty tail is a closed-form
        convolution of two exponential sums.
        """
        Wx, _, _, Zx, _ = self.s1.kernels(x)
        return self._S1(Zx, Wx, self._Px(x))

    def _S1(self, Zx, Wx, Px):
        """S1xy from Z1(x), W1(x) and _Px(x)."""
        Ix = Wx * self.P1 / self.W1y1 - Px
        down1 = Zx - Wx * self.Z1y1 / self.W1y1
        return Ix + down1 * self.P1 / self.Z1y1

    def phase1(self, x):
        """Rows (alpha, beta, mu, omega) of phase 1 at x, as phase2's, from
        one phase-1 kernel evaluation."""
        Wx, _, Wbbx, Zx, _ = self.s1.kernels(x)
        return self._phase1_rows(Wx, Wbbx, Zx, self._Px(x))

    def _phase1_rows(self, Wx, Wbbx, Zx, Px):
        """phase1's rows from W1, Wbarbar1, Z1 and _Px at x."""
        zr = Zx / self.Z1y1
        return np.array([
            zr * self.alpha2_y1,
            self._H1(Zx, Wbbx) + zr * self.beta2_y1,
            self._S1(Zx, Wx, Px) + zr * self.mu2_y1,
            zr * (self.model.switching.k12 + self.omega2_y1),
        ])

    # -- level-b fixed points ------------------------------------------------

    def _solve_level_b(self) -> None:
        m = self.model
        y3, b = self.band.y3, m.b
        lam, q = m.lam, m.q
        d = m.demand
        w = lam / (lam + q)
        parts = self.p2.parts

        # rows of shape (4,) for one band, (4, bands) for a lattice row
        tail = self._phase1_rows(*parts.floor)[..., 0] * parts.sf_b
        J2 = (
            integrate(lambda z: self.phase2(b - z, memo=True) * d.pdf(z), 0.0, b - y3)
            if b - y3 > 0 else np.zeros(tail.shape)
        )
        J1 = (
            integrate(lambda z: self.phase1(b - z) * d.pdf(z), b - y3, b)
            if y3 > 0 else np.zeros(tail.shape)
        )

        mb = w * (J2[0] + J1[0] + tail[0])
        cH = m.h0_b / (q + lam) + w * (J2[1] + J1[1] + tail[1])
        cS = w * (parts.ptail_b + J2[2] + J1[2] + tail[2])
        k = m.switching
        F = d.cdf(b - y3)
        cK = w * (J2[3] + J1[3] + tail[3] + k.k02 * F + k.k01 * (1.0 - F))
        _contractive(np.logical_not(np.abs(mb) >= 1.0), mb, "level-b multiplier |m|={} >= 1")
        self.H0, self.S0, self.K0 = cH / (1.0 - mb), cS / (1.0 - mb), cK / (1.0 - mb)

    # -- assembled costs -----------------------------------------------------

    def costs(self, phase: int, x):
        """(H, S, K) of the phase at x: each base plus alpha times its level-b scalar."""
        alpha, beta, mu, omega = self.phase1(x) if phase == 1 else self.phase2(x)
        return alpha * self.H0 + beta, mu + alpha * self.S0, omega + alpha * self.K0


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
    """A band's piecewise cost surface; the switching-zone table is here (_zones).

    On each zone the value is the (H, S, K) of one engine object, with the
    zone's switching cost added to K: asm.costs of either phase (asm is the
    type-one assembly, of the lower band for type two), or upper, phase 1's
    costs on [y4, b] (TypeTwoOverlay.costs) for a type-two band.
    V = H + S + K.  side=-1/+1 select the one-sided limit at a threshold
    (side=0 returns the table value).
    """

    model: ModelConfig
    band: object
    kind: str
    H0: float
    S0: float
    K0: float
    thresholds: tuple
    asm: TypeOneAssembly = field(repr=False)
    upper: object = field(default=None, repr=False)

    @property
    def V0(self) -> float:
        return self.H0 + self.S0 + self.K0

    def _zones(self, phase: int, x: np.ndarray, side: int) -> tuple:
        """The switching-zone table: (costs, lump, mask) per zone of the phase.

        On mask the value is costs(x) with lump added to K.  Phase 2 takes
        phase 1's costs plus K21 on [0, y2] and its own above.  Phase 1 keeps
        its own below y1 and takes phase 2's plus K12 on [y1, b], or on
        [y1, y4] for a type-two band, whose overlay holds above y4.  At a
        threshold side=-1/+1 pick the zone on its left/right, side=0 the
        switching zone.
        """
        k, y2, y1 = self.model.switching, self.band.y2, self.band.y1
        one, two = partial(self.asm.costs, 1), partial(self.asm.costs, 2)
        if phase == 2:
            low = x <= y2 if side <= 0 else x < y2
            return (one, k.k21, low), (two, 0.0, ~low)
        low = x <= y1 if side < 0 else x < y1
        if self.upper is None:
            return (one, 0.0, low), (two, k.k12, ~low)
        up = x >= self.band.y4 if side > 0 else x > self.band.y4
        return (one, 0.0, low), (two, k.k12, ~low & ~up), (self.upper, 0.0, up)

    def _evaluate(self, phase: int, x, side: int, names: str) -> tuple:
        """The named components (of "VHSK") at x, from one evaluation per zone."""
        check_phase(phase)
        x_arr = np.atleast_1d(np.asarray(x, dtype=float))
        if not np.all((x_arr >= self.model.l - 1e-12) & (x_arr <= self.model.b + 1e-12)):
            raise OutOfBand("x outside [l, b]")  # NaN too, which fails both comparisons
        out = np.empty((len(names),) + x_arr.shape)
        for costs, lump, mask in self._zones(phase, x_arr, side):
            if np.any(mask):
                H, S, K = costs(x_arr[mask])
                K = K + lump
                parts = {"H": H, "S": S, "K": K, "V": H + S + K}
                for row, name in zip(out, names):
                    row[mask] = parts[name]
        return tuple(out[:, 0] if np.isscalar(x) or np.asarray(x).ndim == 0 else out)

    def components(self, phase: int, x, side: int = 0) -> tuple:
        """(V, H, S, K) at x, from one evaluation per zone."""
        return self._evaluate(phase, x, side, "VHSK")

    def V(self, phase: int, x, side: int = 0):
        return self._evaluate(phase, x, side, "V")[0]


def total_cost(model: ModelConfig, band: BandOne) -> CostSurface:
    """Assemble the full type-one surface (Doshi when y3 = y2)."""
    asm = _assembly(model, band.check(model.b))
    return CostSurface(model, band, "doshi" if band.is_doshi else "one", float(asm.H0),
                       float(asm.S0), float(asm.K0), (band.y2, band.y3, band.y1), asm)
