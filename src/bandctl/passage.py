"""Two-sided exit identities, the killed-resolvent transform, and the phase-2 transfer map.

The transfer map's integrals are closed-form convolutions of exponential
sums (scale.ExpConvolution).  The module also declares the shared quadrature
policy, used for the resolvent transform's below-x integral, the exit
constant _B and the callers' landing and level-b integrals: Gauss-Legendre
with node doubling (16 -> ... -> 1024) until successive estimates agree to
1e-9 relative, in one loop (_doubling) under both rules, integrate and
integrate_rows.  Integrands are products of exponentials, so convergence
is fast; callers must split at the one known kink (the diagonal z = x of
the resolvent density, where W jumps at the origin).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import OutOfBand, QuadratureNotConverged
from .model import HoldingCost
from .scale import ExpConvolution, ScaleSet

GL_START = 16
GL_MAX = 1024
GL_REL_TOL = 1e-9


@lru_cache(maxsize=16)
def _gl_nodes(n: int):
    """Gauss-Legendre nodes/weights mapped to [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(n)
    return (x + 1.0) / 2.0, w / 2.0


def _doubling(estimate, failure):
    """Run estimate(t, w) on GL_START, 2 GL_START, ... GL_MAX nodes per unit
    interval until two successive results agree to GL_REL_TOL relative;
    failure() gives the message of the QuadratureNotConverged raised if not."""
    prev = None
    n = GL_START
    while n <= GL_MAX:
        total = estimate(*_gl_nodes(n))
        if prev is not None:
            err = np.max(np.abs(total - prev))
            if err <= GL_REL_TOL * (1.0 + np.max(np.abs(total))):
                return total
        prev = total
        n *= 2
    raise QuadratureNotConverged(failure())


def integrate(f, a: float, b: float, breakpoints=()):
    """Integrate a vectorized integrand over [a, b], a < b, under the doubling policy.

    f maps a node array of shape (m,) to values of shape (..., m); the result
    has shape (...).  breakpoints inside (a, b) split the composite rule.
    """
    cuts = [a] + sorted(p for p in set(breakpoints) if a < p < b) + [b]

    def composite(t, w):
        total = 0.0
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            z = lo + (hi - lo) * t
            total = total + (hi - lo) * np.tensordot(np.asarray(f(z)), w, axes=([-1], [0]))
        return total

    return _doubling(composite, lambda: f"integrate on [{a}, {b}] did not reach {GL_REL_TOL}")


def integrate_rows(f, lo, hi):
    """Row-wise integrals int_{lo_i}^{hi_i} f(z) dz with shared relative nodes.

    lo/hi broadcast against each other; f maps a node array of shape
    (rows..., m) to values of shape (lead..., rows..., m), where the leading
    axes (for example one per demand component) may be empty; the result has
    shape (lead..., rows...).  Rows with hi <= lo give 0; when every row is
    empty, f is not called and the result has shape (rows...).  Integrands
    must be smooth inside each (lo_i, hi_i).
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    lo, hi = np.broadcast_arrays(lo, hi)
    span = np.maximum(hi - lo, 0.0)
    if not span.any():
        return np.zeros(span.shape)

    def rows(t, w):
        return span * (np.asarray(f(lo[..., None] + span[..., None] * t)) @ w)

    return _doubling(rows, lambda: "row-wise quadrature did not converge")


class ExitContext:
    """A phase's process killed on leaving the band (a, d).

    The one implementation of the two-sided exit quantities: the kernel
    values at the span d - a are computed once, here, and up, down, the
    holding cost until exit and the killed-resolvent transform are built
    from them.  down, holding, resolvent_transform and Omega2.apply_* take
    up(x) and down(x) when the caller has them, so each is evaluated once
    per x.  Type-one bands share theirs per y2 (cost_one.PhaseTwoContext).
    """

    def __init__(self, scale: ScaleSet, a: float, d: float):
        if not a < d:
            raise OutOfBand(f"need a < d, got [{a}, {d}]")
        self.scale = scale
        self.a = a
        self.d = d
        self.W_span = scale.W(d - a)
        self.Z_span = scale.Z(d - a)
        self.Zbar_span = scale.Zbar(d - a)
        self.Wbar_span = scale.Wbar(d - a)
        self._mus = np.asarray(scale.demand.rates, dtype=float)
        # _B[k] = int_a^d W(d-z) exp(-mu_k z) dz
        self._B = np.asarray(
            integrate(lambda z: scale.W(d - z) * np.exp(-self._mus[:, None] * z), a, d),
            dtype=float,
        )

    def up(self, x):
        """E_x[e^{-q tau_d^+}; up before down] = W(x-a)/W(d-a)."""
        return self.scale.W(np.asarray(x, dtype=float) - self.a) / self.W_span

    def down(self, x, up=None):
        """E_x[e^{-q tau_a^-}; down before up] = Z(x-a) - up(x) Z(d-a)."""
        x = np.asarray(x, dtype=float)
        return self.scale.Z(x - self.a) - (self.up(x) if up is None else up) * self.Z_span

    def holding(self, x, cost: HoldingCost, up=None, down=None):
        """Expected discounted holding at rate cost.a + cost.c * X until exit."""
        s = self.scale
        x = np.asarray(x, dtype=float)
        up = self.up(x) if up is None else up
        down = self.down(x, up) if down is None else down
        time_part = (1.0 - down - up) / s.q
        level_part = (
            self.d * up
            + self.a * down
            + s.Zbar(x - self.a)
            - s.phi_prime0 * s.Wbar(x - self.a)
            - up * (self.Zbar_span - s.phi_prime0 * self.Wbar_span)
        )
        a, c = cost.a, cost.c
        return (a + c * s.phi_prime0 / s.q) * time_part + (c / s.q) * (x - level_part)

    def resolvent_transform(self, x, up=None) -> np.ndarray:
        """int_a^d u(x, z) exp(-mu_k z) dz per demand component, shape (k,) + x.shape.

        u(x, z) = W(x-a) W(d-z) / W(d-a) - W(x-z) is the killed-resolvent
        density; the integral is _B[k] up(x) minus int_a^x W(x-z)
        exp(-mu_k z) dz.  x must be an array of at least one dimension.
        """
        x = np.asarray(x, dtype=float)
        k = len(self._mus)
        lo = np.broadcast_to(self.a, (k,) + x.shape)
        hi = np.broadcast_to(np.maximum(x, self.a), (k,) + x.shape)
        mus = self._mus.reshape((k,) + (1,) * (x.ndim + 1))
        xx = x.reshape((1,) + x.shape + (1,))
        below = integrate_rows(lambda z: self.scale.W(xx - z) * np.exp(-mus * z), lo, hi)
        shape = (k,) + (1,) * x.ndim
        return self._B.reshape(shape) * (self.up(x) if up is None else up)[None, ...] - below


class Omega2:
    """Transfer map carrying phase-1 payoffs through the phase-2 down-exit.

    For g with the generator identity (G1 - q) g known in closed form,

        Omega(g)(x) = E_x^2[e^{-q tau_{y2}^-} g(X at the down-crossing);
                            down before reaching b]
                    = g(x) - up(x) g(b) + int_{y2}^b (G2 - q) g(z) u2(x, z) dz

    with u2 the killed-process resolvent density.  Implemented payoffs:
    g = Z1 where (G2 - q) g = (sigma2 - sigma1) q W1, and g = Wbarbar1 where
    (G2 - q) g = z + (sigma2 - sigma1) Wbar1.  Both sources are exponential
    sums (plus z), so each z-integral against W2 is a closed-form
    convolution (scale.ExpConvolution); the piece constant in x is the tail at b.
    """

    def __init__(self, scale1: ScaleSet, exit2: ExitContext):
        y2, b = exit2.a, exit2.d
        if y2 < 0:
            raise OutOfBand(f"need 0 <= y2 < b, got y2={y2}, b={b}")
        self.s1 = scale1
        self.exit2 = exit2
        self.dsig = exit2.scale.sigma - scale1.sigma
        th1, w1 = scale1.exponents, scale1.weights
        # (G2-q)g as exponential sums: dsig q W1, and dsig Wbar1 without the
        # z term; each convolved with W2 through one fixed exponent pair
        th2 = exit2.scale.exponents
        self._conv_z = ExpConvolution(th1, th2)
        self._coef_z = self.dsig * scale1.q * w1
        self._conv_w = ExpConvolution(np.append(th1, 0.0), th2)
        self._coef_w = np.append(self.dsig * w1 / th1, -self.dsig * np.sum(w1 / th1))
        # constants: int_{y2}^b (G2-q)g(z) W2(b-z) dz for both payoffs
        self._const_z = self._tail(b, "Z1")
        self._const_w = self._tail(b, "W")

    def _tail(self, x, kind: str):
        """int_{y2}^x (G2-q)g(z) W2(x-z) dz, the x-dependent integral piece."""
        x = np.asarray(x, dtype=float)
        s2, y2 = self.exit2.scale, self.exit2.a
        th2, w2 = s2.exponents, s2.weights
        if kind == "Z1":
            return self._conv_z(y2, x, self._coef_z, w2)
        # int_{y2}^x z W2(x-z) dz, term by term in u = x - z over [0, s]
        s = np.maximum(x - y2, 0.0)[..., None]
        em = np.expm1(th2 * s)
        ramp = (x[..., None] * em / th2 - s * np.exp(th2 * s) / th2 + em / th2**2) @ w2
        return ramp + self._conv_w(y2, x, self._coef_w, w2)

    def _apply(self, g, const: float, kind: str, x, up):
        """Omega(g)(x) = g(x) - up(x) g(b) + up(x) const - tail(x); up may be given."""
        x = np.asarray(x, dtype=float)
        up = self.exit2.up(x) if up is None else up
        out = np.asarray(g(x) - up * g(self.exit2.d) + up * const - self._tail(x, kind))
        return out if out.shape else float(out)

    def apply_Z1(self, x, up=None):
        return self._apply(self.s1.Z, self._const_z, "Z1", x, up)

    def apply_Wbarbar1(self, x, up=None):
        return self._apply(self.s1.Wbarbar, self._const_w, "W", x, up)
