"""Closed-form scale functions for each phase, as exponential sums.

For exponential or hyper-exponential demand the Laplace exponent phi is
rational, so the fundamental kernel W solving

    int_0^inf exp(-theta x) W(x) dx = 1 / (phi(theta) - q),   theta > Phi(q)

is a finite sum of exponentials: W(x) = sum_j w_j exp(theta_j x) where the
theta_j are the real roots of phi(theta) = q and w_j = 1/phi'(theta_j).
Every derived function (integrals of W, the Z family) is then exact, and
so is the convolution of W with any other exponential sum (ExpConvolution).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import RootFindingFailed, ThetaInsideSpectrum
from .model import DemandLaw, ModelConfig, laplace_exponent

_ROOT_TOL = 1e-12
_INIT_TOL = 1e-10
_NEAR_RATES = 1e-2  # relative gap under which a root failure names two demand rates
_FILL_MIN = 256  # ScaleSet._exp_sum fills columns from this many entries on


@dataclass(frozen=True)
class ScaleSet:
    """Exponential-sum representation of W and friends for one phase.

    Immutable, its arrays included; all evaluations are pure and accept
    scalars or arrays.
    W(x) = 0 for x < 0 and W(0) means the right limit 1/sigma.
    """

    phase: int
    q: float
    sigma: float
    lam: float
    demand: DemandLaw
    exponents: np.ndarray   # distinct real roots of phi(theta) = q, ascending
    weights: np.ndarray     # 1/phi'(theta_j)
    phi_prime0: float

    @property
    def phi_q(self) -> float:
        """Largest (the unique positive) exponent."""
        return float(self.exponents[-1])

    def phi(self, theta):
        theta = np.asarray(theta, dtype=float)
        out = self.sigma * theta - self.lam + self.lam * self.demand.laplace(theta)
        return out if out.shape else float(out)

    # -- W family ---------------------------------------------------------

    def _exp_sum(self, xp, fn, coef):
        """fn(xp[..., None] * exponents) @ coef, with fn np.exp or np.expm1.

        From _FILL_MIN entries on, each exponent's column of the C-ordered
        (..., k) array is filled by one flat multiply and fn runs in place:
        numpy walks a broadcast over the short trailing axis pair by pair,
        several times slower on large inputs, while below that size the
        per-column calls cost more than the walk.  Either way the matmul
        gets the same operands, bit for bit; the k-first layout
        (coef @ E) would be faster but is not bit-identical.
        """
        if xp.size < _FILL_MIN:
            return fn(xp[..., None] * self.exponents) @ coef
        e = np.empty(xp.shape + self.exponents.shape)
        for j, th in enumerate(self.exponents):
            np.multiply(xp, th, out=e[..., j])
        return fn(e, out=e) @ coef

    def W(self, x):
        x = np.asarray(x, dtype=float)
        xp = np.maximum(x, 0.0)
        val = self._exp_sum(xp, np.exp, self.weights)
        out = np.where(x >= 0, val, 0.0)
        return out if out.shape else float(out)

    def Wbar(self, x):
        """int_0^x W."""
        x = np.asarray(x, dtype=float)
        xp = np.maximum(x, 0.0)
        val = self._exp_sum(xp, np.expm1, self.weights / self.exponents)
        out = np.where(x >= 0, val, 0.0)
        return out if out.shape else float(out)

    def Wbarbar(self, x):
        """int_0^x Wbar."""
        x = np.asarray(x, dtype=float)
        xp = np.maximum(x, 0.0)
        th = self.exponents
        val = self._exp_sum(xp, np.expm1, self.weights / th**2) - xp * float(
            np.sum(self.weights / th)
        )
        out = np.where(x >= 0, val, 0.0)
        return out if out.shape else float(out)

    # -- Z family ---------------------------------------------------------

    def Z(self, x):
        """1 + q * Wbar(x); equals 1 for x <= 0."""
        return 1.0 + self.q * self.Wbar(x)

    def Zbar(self, x):
        """int_0^x Z = x + q * Wbarbar(x); equals x for x <= 0."""
        x = np.asarray(x, dtype=float)
        out = x + self.q * self.Wbarbar(x)
        return out if out.shape else float(out)


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
        for arr in (self.a_col, self.b_exp, self.small, self.safe):
            arr.setflags(write=False)

    def __call__(self, lo: float, x, a_coef, b_coef):
        s = np.maximum(np.asarray(x, dtype=float) - lo, 0.0)[..., None, None]
        ratio = np.where(self.small, s, np.expm1(self.safe * s) / self.safe)
        terms = np.exp(self.a_col * lo + self.b_exp * s) * ratio
        out = (terms @ np.asarray(b_coef, dtype=float)) @ np.asarray(a_coef, dtype=float)
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

    resid = np.abs(laplace_exponent(model, phase, roots) - model.q)
    if np.any(resid > 1e-8 * (1 + abs(model.q))):
        raise RootFindingFailed(f"{near}roots do not satisfy phi(theta) = q: residual {resid}")
    if abs(float(np.sum(weights)) - 1.0 / sigma) > _INIT_TOL:
        raise RootFindingFailed(f"{near}weights do not reproduce W(0+) = 1/sigma")

    roots.setflags(write=False)
    weights.setflags(write=False)
    return ScaleSet(
        phase=phase,
        q=model.q,
        sigma=sigma,
        lam=model.lam,
        demand=d,
        exponents=roots,
        weights=weights,
        phi_prime0=float(sigma + model.lam * d.laplace_deriv(0.0)),
    )


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
