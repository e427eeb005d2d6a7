"""Closed-form scale functions for each phase, as exponential sums.

For exponential or hyper-exponential demand the Laplace exponent phi is
rational, so the fundamental kernel W solving

    int_0^inf exp(-theta x) W(x) dx = 1 / (phi(theta) - q),   theta > Phi(q)

is a finite sum of exponentials: W(x) = sum_j w_j exp(theta_j x) where the
theta_j are the real roots of phi(theta) = q and w_j = 1/phi'(theta_j).
Every derived function (integrals of W, the Z family) is then exact, and
so is the convolution of W with any other exponential sum (ExpConvolution).

All five functions at one x come from one shared evaluation
(ScaleSet.kernels): one array x theta_j, its exp against w_j for W, and one
expm1 array against w_j/theta_j and w_j/theta_j^2 for Wbar and Wbarbar, from
which Z and Zbar follow.  A caller that needs several of them at the same x
asks once; W, Wbar, Wbarbar, Z and Zbar read the same evaluation, so there
is one implementation.  The values keep the bits of separate evaluations:
exp and expm1 act elementwise, each matmul gets the same operands in the
same C-ordered layout (the column fill from _FILL_MIN on included), and the
arithmetic after it runs in the same order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import RootFindingFailed, ThetaInsideSpectrum
from .model import DemandLaw, ModelConfig

_ROOT_TOL = 1e-12
_INIT_TOL = 1e-10
_NEAR_RATES = 1e-2  # relative gap under which a root failure names two demand rates
_FILL_MIN = 256  # ScaleSet.kernels fills columns from this many entries on


@dataclass(frozen=True, eq=False)
class ScaleSet:
    """Exponential-sum representation of W and friends for one phase.

    Immutable, its arrays included; all evaluations are pure and accept
    scalars or arrays.
    W(x) = 0 for x < 0 and W(0) means the right limit 1/sigma.  Compared
    and hashed by identity (build_scale gives one per model and phase), so
    per-model objects can be cached by their scales.
    """

    phase: int
    q: float
    sigma: float
    lam: float
    demand: DemandLaw
    exponents: np.ndarray   # distinct real roots of phi(theta) = q, ascending
    weights: np.ndarray     # 1/phi'(theta_j)
    phi_prime0: float
    _wbar_coef: np.ndarray = field(init=False, repr=False)     # w / theta
    _wbarbar_coef: np.ndarray = field(init=False, repr=False)  # w / theta^2
    _wbar_sum: float = field(init=False, repr=False)            # sum of w / theta

    @property
    def phi_q(self) -> float:
        """Largest (the unique positive) exponent."""
        return float(self.exponents[-1])

    def phi(self, theta):
        """The Laplace exponent sigma theta - lam + lam E[exp(-theta Y)]."""
        theta = np.asarray(theta, dtype=float)
        out = self.sigma * theta - self.lam + self.lam * self.demand.laplace(theta)
        return out if out.shape else float(out)

    def __post_init__(self):
        th, w = self.exponents, self.weights
        for name, coef in (("_wbar_coef", w / th), ("_wbarbar_coef", w / th**2)):
            coef.setflags(write=False)
            object.__setattr__(self, name, coef)
        object.__setattr__(self, "_wbar_sum", float(np.sum(w / th)))

    # -- W and Z families, from one shared evaluation ----------------------

    def kernels(self, x, W: bool = True, integrals: bool = True) -> tuple:
        """(W, Wbar, Wbarbar, Z, Zbar) at x, from one evaluation of x theta.

        W sums exp(x theta_j) w_j; Wbar and Wbarbar share one expm1(x theta)
        array, against w/theta and w/theta^2 (the latter less x sum w/theta);
        Z = 1 + q Wbar and Zbar = x + q Wbarbar.  With W or integrals False
        that half is None and its exponentials are not taken.  Every value
        is the one a separate evaluation gives, bit for bit: each matmul gets
        the same operands, laid out as below.  From _FILL_MIN entries on,
        each exponent's column of the C-ordered (..., k) array x theta is
        filled by one flat multiply: numpy walks a broadcast over the short
        trailing axis pair by pair, several times slower on large inputs,
        while below that size the per-column calls cost more than the walk.
        The k-first layout (coef @ E) would be faster but is not
        bit-identical.  W(x) = 0 for x < 0, and so are Wbar and Wbarbar (the
        values at 0 are replaced where x is not >= 0, if anywhere); 0-d x
        gives floats.
        """
        x = np.asarray(x, dtype=float)
        xp = np.maximum(x, 0.0)
        pos = x >= 0
        cut = not pos.all()
        if xp.size < _FILL_MIN:
            e = xp[..., None] * self.exponents
        else:
            e = np.empty(xp.shape + self.exponents.shape)
            for j, th in enumerate(self.exponents):
                np.multiply(xp, th, out=e[..., j])
        w = wbar = wbarbar = z = zbar = None
        if W:
            w = (np.exp(e) if integrals else np.exp(e, out=e)) @ self.weights
            if cut:
                w = np.where(pos, w, 0.0)
        if integrals:
            e = np.expm1(e, out=e)
            wbar = e @ self._wbar_coef
            wbarbar = e @ self._wbarbar_coef - xp * self._wbar_sum
            if cut:
                wbar, wbarbar = np.where(pos, wbar, 0.0), np.where(pos, wbarbar, 0.0)
            z = 1.0 + self.q * wbar
            zbar = x + self.q * wbarbar
        if not x.shape:
            if W:
                w = float(w)
            if integrals:
                wbar, wbarbar, z, zbar = float(wbar), float(wbarbar), float(z), float(zbar)
        return w, wbar, wbarbar, z, zbar

    def W(self, x):
        return self.kernels(x, integrals=False)[0]

    def Wbar(self, x):
        """int_0^x W."""
        return self.kernels(x, W=False)[1]

    def Wbarbar(self, x):
        """int_0^x Wbar."""
        return self.kernels(x, W=False)[2]

    def Z(self, x):
        """1 + q * Wbar(x); equals 1 for x <= 0."""
        return self.kernels(x, W=False)[3]

    def Zbar(self, x):
        """int_0^x Z = x + q * Wbarbar(x); equals x for x <= 0."""
        return self.kernels(x, W=False)[4]


class ExpConvolution:
    """int_lo^x A(z) B(x - z) dz for A = sum_i a_coef_i exp(a_exp_i z) and
    B = sum_j b_coef_j exp(b_exp_j u); 0 where x <= lo.

    With s = x - lo and delta_ij = a_exp_i - b_exp_j, the (i, j) term is
    exp(a_exp_i lo + b_exp_j s) expm1(delta_ij s) / delta_ij, and s itself
    where delta_ij vanishes.  The mask and the safe divisor depend only on
    the exponent pair, so they are built once, read-only; each call gives
    lo, x and the two coefficient vectors.
    """

    def __init__(self, a_exp, b_exp):
        self.a_col = np.array(a_exp, dtype=float)[:, None]
        self.b_exp = np.array(b_exp, dtype=float)
        delta = self.a_col - self.b_exp
        self.small = np.abs(delta) < 1e-12
        self.safe = np.where(self.small, 1.0, delta)
        self.any_small = bool(self.small.any())
        for arr in (self.a_col, self.b_exp, self.small, self.safe):
            arr.setflags(write=False)

    def factors(self, a_lo, s) -> tuple:
        """The (i, j) terms' two factors, exp(a_exp_i lo + b_exp_j s) and
        expm1(delta_ij s) / delta_ij (s where delta_ij vanishes), given
        a_lo = a_col * lo and s = max(x - lo, 0)[..., None, None]."""
        ratio = np.expm1(self.safe * s) / self.safe
        if self.any_small:
            ratio = np.where(self.small, s, ratio)
        return np.exp(a_lo + self.b_exp * s), ratio

    def __call__(self, lo: float, x, a_coef, b_coef):
        s = np.maximum(np.asarray(x, dtype=float) - lo, 0.0)[..., None, None]
        exp, ratio = self.factors(self.a_col * lo, s)
        out = ((exp * ratio) @ np.asarray(b_coef, dtype=float)) @ np.asarray(a_coef, dtype=float)
        return out if out.shape else float(out)


def _near_rates(mus: np.ndarray) -> str:
    """'demand rates a and b nearly coincide: ' for the closest two rates when
    they are within _NEAR_RATES of each other (relative), else ''."""
    r = np.sort(mus)
    gaps = np.diff(r) / r[1:]
    if not gaps.size or gaps.min() > _NEAR_RATES:
        return ""
    i = int(np.argmin(gaps))
    return f"demand rates {float(r[i])!r} and {float(r[i + 1])!r} nearly coincide: "


@lru_cache(maxsize=64, typed=True)
def build_scale(model: ModelConfig, phase: int) -> ScaleSet:
    """Solve phi(theta) = q exactly via its polynomial form.

    Multiplying phi(theta) - q by prod_k (mu_k + theta), over the distinct
    rates mu_k, gives a degree-(k+1) polynomial whose roots are the
    exponents; they are real and distinct for exponential mixtures.  Complex
    or (near-)repeated roots are rejected, and when two rates nearly
    coincide, which makes the root between them ill-conditioned, the error
    names them.  Cached per (model, phase): every caller shares one
    read-only ScaleSet; typed, so that model.sigma's phase check sees True,
    not phase 1.
    """
    d = model.demand
    sigma = model.sigma(phase)
    # equal rates merge into their first occurrence, weights summed: the same
    # law, and no spurious root -mu; without repeats, the config's own values
    merged: dict[float, float] = {}
    for w, r in zip(d.weights, d.rates):
        merged[r] = merged.get(r, 0.0) + w
    mus = np.array(list(merged), dtype=float)
    ws = np.array(list(merged.values()), dtype=float)
    near = _near_rates(mus)

    poly = np.array([-(model.lam + model.q), sigma])
    for mu in mus:
        poly = npoly.polymul(poly, np.array([mu, 1.0]))
    for k, mu in enumerate(mus):
        rest = np.array([1.0])
        for m, mu2 in enumerate(mus):
            if m != k:
                rest = npoly.polymul(rest, np.array([mu2, 1.0]))
        poly = npoly.polyadd(poly, model.lam * ws[k] * mus[k] * rest)

    roots = npoly.polyroots(poly)
    scale_mag = max(1.0, float(np.max(np.abs(roots))))
    if np.any(np.abs(roots.imag) > 1e-9 * scale_mag):
        raise RootFindingFailed(f"{near}complex roots for phase {phase}: {roots}")
    roots = np.sort(roots.real)
    if len(roots) > 1 and np.min(np.diff(roots)) < _ROOT_TOL * scale_mag:
        raise RootFindingFailed(f"{near}repeated roots for phase {phase}: {roots}")
    if np.sum(roots > 0) != 1:
        raise RootFindingFailed(f"{near}expected exactly one positive root, got {roots}")

    # phi'(theta) = sigma + lam * d/dtheta L_Y(theta)
    phi_prime = sigma + model.lam * np.asarray(
        [d.laplace_deriv(r) for r in roots], dtype=float
    )
    weights = 1.0 / phi_prime

    roots.setflags(write=False)
    weights.setflags(write=False)
    scale = ScaleSet(
        phase=phase,
        q=model.q,
        sigma=sigma,
        lam=model.lam,
        demand=d,
        exponents=roots,
        weights=weights,
        phi_prime0=float(sigma + model.lam * d.laplace_deriv(0.0)),
    )
    resid = np.abs(scale.phi(roots) - model.q)
    if np.any(resid > 1e-8 * (1 + abs(model.q))):
        raise RootFindingFailed(f"{near}roots do not satisfy phi(theta) = q: residual {resid}")
    if abs(float(np.sum(weights)) - 1.0 / sigma) > _INIT_TOL:
        raise RootFindingFailed(f"{near}weights do not reproduce W(0+) = 1/sigma")
    return scale


def check_laplace_identity(scale: ScaleSet, theta: float) -> float:
    """Residual of the defining transform at theta > Phi(q).

    The truncated transform int_0^T exp(-theta x) W(x) dx is evaluated in
    closed form with T chosen so the dropped tail is below 1e-13 per term;
    the residual against 1/(phi(theta) - q) is returned.
    """
    if theta <= scale.phi_q + 1e-7:
        raise ThetaInsideSpectrum(
            f"theta = {theta} must exceed the largest exponent {scale.phi_q}"
        )
    gaps = theta - scale.exponents
    # tail of term j beyond T is |w_j| exp(-gap_j T)/gap_j
    T = float(np.max(np.log(np.abs(scale.weights) / (gaps * 1e-13) + 1.0) / gaps))
    T = max(T, 1.0)
    integral = float(np.sum(scale.weights * -np.expm1(-gaps * T) / gaps))
    target = 1.0 / (scale.phi(theta) - scale.q)
    return abs(integral - target)
