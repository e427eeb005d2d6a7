"""Two-sided exit identities, the killed-resolvent transform, and the phase-2 transfer map.

The transfer map's integrals are closed-form convolutions of exponential
sums (scale.ExpConvolution).  The module also declares the shared quadrature
policy, used for the resolvent transform's below-x integral, the exit
constant _B and the callers' landing and level-b integrals: Gauss-Legendre
with node doubling (16 -> ... -> 1024) until successive estimates agree to
1e-9 relative, in one loop (_doubling) under both rules, integrate and
integrate_rows.  The verifier's demand convolution (verify._convolution)
runs its Chebyshev panels, and its restart-crossover search
(verify._min_crossovers) its interpolants, through the same loop and
orders (_orders), so one tolerance and one failure,
QuadratureNotConverged, hold for every quadrature.  Integrands are products of exponentials, so convergence
is fast; callers must split at the one known kink (the diagonal z = x of
the resolvent density, where W jumps at the origin).

Gauss-Legendre rules of different orders share no nodes, so each level
costs one integrand call.  integrate gets its 16- and 32-node levels from
one call on the 48 concatenated nodes, and reduces each level's slice of
the values with that level's weights, so each estimate is the one a call
per level gives, bit for bit; most quadratures stop at 32 nodes, so they
take one call instead of two.

integrate_rows calls its integrand as f(z, rows), rows the slice of the
first row axis that z covers, once per level on blocks of rows that hold
about _BLOCK_VALUES node values, and joins the blocks' estimates before
the level's one convergence test.  Where a row's values depend on that
row alone, as they do for the resolvent transform's integrand, which nests
no quadrature, every row gets the level and the bits that one call per
level gives.  Memory is then bounded by the block, however many nodes a
caller evaluates V at in one level: the verifier's convolution panels
evaluate the surface, and so the resolvent transform, on all their nodes
in one call.  Blocks run along the first row axis and
keep trailing row axes whole, and 1-D blocks hold a multiple of 8 rows:
matmul reduces the values with one BLAS gemv per stack of the trailing
axes, and a row's bits depend on its place in the stack.

The resolvent transform integrates W(x - z) exp(-mu_k z) over one row per
x, not one per (demand component, x): its integrand evaluates W once per
node and multiplies it by each component's exponential, as the verifier's
panels and _against_exp share theirs.  _against_exp is the demand
transform of one segment, with rows that share one integrate call: the
exit constant _B here and the cost modules' landing constants.
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
_BLOCK_VALUES = 1 << 14  # node values per integrand call of an integrate_rows level


@lru_cache(maxsize=16)
def _gl_nodes(n: int):
    """Gauss-Legendre nodes/weights mapped to [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(n)
    return (x + 1.0) / 2.0, w / 2.0


def _orders(n: int = GL_START):
    """The doubling orders n, 2n, ... GL_MAX."""
    while n <= GL_MAX:
        yield n
        n *= 2


@lru_cache(maxsize=1)
def _gl_first_two():
    """The GL_START- and 2 GL_START-node rules as one call: their nodes
    concatenated, and each rule's weights as an (n, 1) column."""
    (t1, w1), (t2, w2) = _gl_nodes(GL_START), _gl_nodes(2 * GL_START)
    return np.concatenate([t1, t2]), (w1.reshape(-1, 1), w2.reshape(-1, 1))


def _doubling(estimates, failure):
    """Take the per-level estimates on GL_START, 2 GL_START, ... GL_MAX nodes
    per unit interval until two successive ones agree to GL_REL_TOL relative;
    failure() gives the message of the QuadratureNotConverged raised if not.
    estimates is consumed lazily, so no level past the converged one is
    computed.  integrate's first two estimates come from one integrand call;
    integrate_rows makes one call per row block of each estimate."""
    prev = None
    for total in estimates:
        if prev is not None:
            err = np.max(np.abs(total - prev))
            if err <= GL_REL_TOL * (1.0 + np.max(np.abs(total))):
                return total
        prev = total
    raise QuadratureNotConverged(failure())


def integrate(f, a: float, b: float):
    """Integrate a vectorized integrand over [a, b], a < b, under the doubling policy.

    f maps a node array of shape (m,) to values of shape (..., m); the result
    has shape (...).  f must be smooth inside (a, b): callers split at kinks.
    The first two levels share one call of f.
    """

    def level(t, columns):
        """One call of f on nodes t; one estimate per weight column, each on a
        fresh C-ordered copy of its slice of the values, reduced as
        np.tensordot(values, w, axes=([-1], [0])) reduces them."""
        values = np.asarray(f(a + (b - a) * t))
        totals, start = [], 0
        for w in columns:
            n = len(w)
            part = values[..., start:start + n].copy()
            start += n
            totals.append((b - a) * np.dot(part.reshape(-1, n), w).reshape(part.shape[:-1]))
        return totals

    def estimates():
        yield from level(*_gl_first_two())
        for n in _orders(4 * GL_START):
            t, w = _gl_nodes(n)
            yield from level(t, (w.reshape(-1, 1),))

    return _doubling(estimates(), lambda: f"integrate on [{a}, {b}] did not reach {GL_REL_TOL}")


def _against_exp(mus, fn, lo: float, hi: float, lead=()) -> np.ndarray:
    """int_lo^hi fn(u) * exp(mu_k u) du for every demand rate mu_k in mus: the
    exit constant _B and the cost modules' landing constants.

    fn maps nodes of shape (m,) to values of shape (lead..., m); the result
    has shape (lead..., k), and all rows share one quadrature.  An empty
    segment gives zeros without calling fn.
    """
    if hi <= lo:
        return np.zeros(tuple(lead) + mus.shape)
    out = integrate(lambda u: np.asarray(fn(u))[..., None, :] * np.exp(mus[:, None] * u), lo, hi)
    return np.asarray(out, dtype=float)


def _block_rows(shape: tuple, m: int) -> int:
    """Rows of the first row axis per integrand call at m nodes: about
    _BLOCK_VALUES node values, a multiple of 8 for 1-D rows (see the module
    docstring), at least one row (eight for 1-D rows)."""
    per_row = m * int(np.prod(shape[1:], dtype=int))
    if len(shape) == 1:
        return max(8, _BLOCK_VALUES // per_row // 8 * 8)
    return max(1, _BLOCK_VALUES // per_row)


def integrate_rows(f, lo, hi):
    """Row-wise integrals int_{lo_i}^{hi_i} f(z) dz with shared relative nodes.

    lo/hi broadcast against each other; f(z, rows) maps a node array z of
    shape (rows..., m), rows the slice of the first row axis that z covers,
    to values of shape (lead..., rows..., m), where the leading axes (for
    example one per demand component) may be empty; the result has shape
    (lead..., rows...).  f is called per level on blocks of about
    _BLOCK_VALUES node values (see the module docstring).  Rows with
    hi <= lo give 0; when every row is empty, f is not called and the
    result has shape (rows...).  Integrands must be smooth inside each
    (lo_i, hi_i).
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    lo, hi = np.broadcast_arrays(lo, hi)
    span = np.maximum(hi - lo, 0.0)
    if not span.any():
        return np.zeros(span.shape)

    def rows(t, w, block=slice(None)):
        lo_b, span_b = (lo[block], span[block]) if span.ndim else (lo, span)
        z = lo_b[..., None] + span_b[..., None] * t
        return span_b * (np.asarray(f(z, block)) @ w)

    def level(t, w):
        n = len(span) if span.ndim else 1
        step = _block_rows(span.shape, len(t)) if span.ndim else n
        if step >= n:
            return rows(t, w)
        return np.concatenate([rows(t, w, slice(i, i + step)) for i in range(0, n, step)],
                              axis=-span.ndim)

    return _doubling((level(*_gl_nodes(n)) for n in _orders()),
                     lambda: "row-wise quadrature did not converge")


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
        self._B = _against_exp(-self._mus, lambda z: scale.W(d - z), a, d)

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
        The below-x integral has one row per x, on (a, max(x, a)): its
        integrand maps nodes of shape x.shape + (m,) (or a row block's) to
        W(x - z), evaluated once per node, times exp(-mu_k z), of shape
        (k,) + x.shape + (m,), and runs in row blocks.
        When every x <= a it is a zero array of shape x.shape, which
        broadcasts against the (k,) + x.shape exit term.
        """
        x = np.asarray(x, dtype=float)
        shape = (-1,) + (1,) * x.ndim
        mus = self._mus.reshape(shape + (1,))
        below = integrate_rows(lambda z, rows: self.scale.W(x[rows, ..., None] - z)
                               * np.exp(-mus * z),
                               self.a, np.maximum(x, self.a))
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
