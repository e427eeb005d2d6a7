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

Kernel values are shared per (scale, x): ExitContext takes its span values
from one ScaleSet.kernels call, and up, down and the holding cost at x from
one more (exits).  Omega2's convolution and g(b) depend only on the model
and are built once per model (_transfer_sources); at each x one phase-1
kernel evaluation serves both payoffs (apply), and one evaluation of the
convolution terms serves both tails, the Z1 source reading its W1 rows.
Every matmul still gets the operands it got when each quantity was
evaluated on its own, and the arithmetic after it runs in the same order,
so every value keeps its bits.
"""

from __future__ import annotations

import math
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
            err = np.maximum.reduce(np.abs(total - prev), axis=None)
            if err <= GL_REL_TOL * (1.0 + np.maximum.reduce(np.abs(total), axis=None)):
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
    per_row = m * math.prod(shape[1:])
    if len(shape) == 1:
        return max(8, _BLOCK_VALUES // per_row // 8 * 8)
    return max(1, _BLOCK_VALUES // per_row)


def integrate_rows(f, lo, hi):
    """Row-wise integrals int_{lo_i}^{hi_i} f(z) dz with shared relative nodes.

    lo/hi broadcast against each other (a 0-d lo stays 0-d, and broadcasts
    into each node array); f(z, rows) maps a node array z of
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
    span = np.maximum(np.asarray(hi, dtype=float) - lo, 0.0)
    if not span.any():
        return np.zeros(span.shape)
    if lo.ndim and lo.shape != span.shape:
        lo = np.broadcast_to(lo, span.shape)

    def rows(t, w, block=slice(None)):
        lo_b, span_b = (lo[block] if lo.ndim else lo, span[block]) if span.ndim else (lo, span)
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
    values at the span d - a are computed once, here, from one shared
    evaluation (ScaleSet.kernels), and up, down and the holding cost until
    exit come from one more at x - a (exits); the killed-resolvent transform
    takes exits' up(x).  Type-one bands share theirs per y2
    (cost_one.PhaseTwoContext).
    """

    def __init__(self, scale: ScaleSet, a: float, d: float):
        if not a < d:
            raise OutOfBand(f"need a < d, got [{a}, {d}]")
        self.scale = scale
        self.a = a
        self.d = d
        self.W_span, self.Wbar_span, _, self.Z_span, self.Zbar_span = scale.kernels(d - a)
        # _B[k] = int_a^d W(d-z) exp(-mu_k z) dz
        self._B = _against_exp(-scale.demand.rate_array, lambda z: scale.W(d - z), a, d)

    def exits(self, x, cost: HoldingCost) -> tuple:
        """(up, down, holding) at x, from one kernel evaluation at x - a.

        up = E_x[e^{-q tau_d^+}; up before down] = W(x-a)/W(d-a);
        down = E_x[e^{-q tau_a^-}; down before up] = Z(x-a) - up(x) Z(d-a);
        holding is the expected discounted holding at rate cost.a + cost.c * X
        until exit.
        """
        s = self.scale
        x = np.asarray(x, dtype=float)
        W, Wbar, _, Z, Zbar = s.kernels(x - self.a)
        up = W / self.W_span
        down = Z - up * self.Z_span
        time_part = (1.0 - down - up) / s.q
        level_part = (
            self.d * up
            + self.a * down
            + Zbar
            - s.phi_prime0 * Wbar
            - up * (self.Zbar_span - s.phi_prime0 * self.Wbar_span)
        )
        a, c = cost.a, cost.c
        return up, down, (a + c * s.phi_prime0 / s.q) * time_part + (c / s.q) * (x - level_part)

    def resolvent_transform(self, x, up) -> np.ndarray:
        """int_a^d u(x, z) exp(-mu_k z) dz per demand component, shape (k,) + x.shape.

        u(x, z) = W(x-a) W(d-z) / W(d-a) - W(x-z) is the killed-resolvent
        density; the integral is _B[k] up(x) minus int_a^x W(x-z)
        exp(-mu_k z) dz, up(x) as exits gives it.  x must be an array of at
        least one dimension.
        The below-x integral has one row per x, on (a, max(x, a)): its
        integrand maps nodes of shape x.shape + (m,) (or a row block's) to
        W(x - z), evaluated once per node, times exp(-mu_k z), of shape
        (k,) + x.shape + (m,), and runs in row blocks.
        When every x <= a it is a zero array of shape x.shape, which
        broadcasts against the (k,) + x.shape exit term.
        """
        x = np.asarray(x, dtype=float)
        shape = (-1,) + (1,) * x.ndim
        neg_mus = -self.scale.demand.rate_array.reshape(shape + (1,))
        below = integrate_rows(lambda z, rows: self.scale.W(x[rows, ..., None] - z)
                               * np.exp(neg_mus * z),
                               self.a, np.maximum(x, self.a))
        return self._B.reshape(shape) * up[None, ...] - below


@lru_cache(maxsize=16)
def _transfer_sources(scale1: ScaleSet, scale2: ScaleSet, b: float) -> tuple:
    """Omega2's per-model parts: the (G2 - q) g sources convolved with W2, and g(b).

    (conv, coef_z, coef_w, (Z1(b), Wbarbar1(b))): conv pairs the exponents
    of W1 and 0 with those of W2; its first rows, W1's, are the Z1 source's,
    with coefficients coef_z, and all rows are the Wbarbar1 source's, with
    coef_w.  Built once per pair of scales and capacity (one per model),
    read-only.
    """
    th1, w1 = scale1.exponents, scale1.weights
    dsig = scale2.sigma - scale1.sigma
    coef_z = dsig * scale1.q * w1
    coef_w = np.append(dsig * w1 / th1, -dsig * np.sum(w1 / th1))
    for arr in (coef_z, coef_w):
        arr.setflags(write=False)
    _, _, Wbb1_b, Z1_b, _ = scale1.kernels(b, W=False)
    return (ExpConvolution(np.append(th1, 0.0), scale2.exponents), coef_z, coef_w,
            (Z1_b, Wbb1_b))


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
    The convolution depends only on the model (_transfer_sources), and both
    payoffs read its terms at x from one evaluation, the Z1 source its first
    rows; g(b) of both is computed once, and apply gives both payoffs at x
    from one phase-1 kernel evaluation.
    """

    def __init__(self, scale1: ScaleSet, exit2: ExitContext):
        y2, b = exit2.a, exit2.d
        if y2 < 0:
            raise OutOfBand(f"need 0 <= y2 < b, got y2={y2}, b={b}")
        self.s1 = scale1
        self.exit2 = exit2
        self._conv, self._coef_z, self._coef_w, (self._Z1_b, self._Wbb1_b) = (
            _transfer_sources(scale1, exit2.scale, b))
        self._a_lo = self._conv.a_col * y2
        self._th2_sq = exit2.scale.exponents**2
        # int_{y2}^b (G2-q)g(z) W2(b-z) dz for both payoffs
        self._const_z, self._const_w = self._tails(b)

    def _tails(self, x) -> tuple:
        """int_{y2}^x (G2-q)g(z) W2(x-z) dz, the x-dependent integral piece, of
        both payoffs (Z1, Wbarbar1) from one evaluation of the terms."""
        x = np.asarray(x, dtype=float)
        s2 = self.exit2.scale
        th2, w2 = s2.exponents, s2.weights
        s = np.maximum(x - self.exit2.a, 0.0)[..., None]
        exp, ratio = self._conv.factors(self._a_lo, s[..., None])
        terms = exp * ratio
        tail_z = (terms[..., :-1, :] @ w2) @ self._coef_z
        # int_{y2}^x z W2(x-z) dz, term by term in u = x - z over [0, s]; the
        # last row of exp, where a_exp = 0, is exp(th2 s)
        em = np.expm1(th2 * s)
        ramp = (x[..., None] * em / th2 - s * exp[..., -1, :] / th2 + em / self._th2_sq) @ w2
        return tail_z, ramp + (terms @ w2) @ self._coef_w

    def apply(self, x, up) -> tuple:
        """(Omega(Z1)(x), Omega(Wbarbar1)(x)): each g(x) - up(x) g(b) + up(x)
        const - tail(x), up(x) as exit2.exits gives it."""
        _, _, Wbb1, Z1, _ = self.s1.kernels(x, W=False)
        tail_z, tail_w = self._tails(x)
        om_z = Z1 - up * self._Z1_b + up * self._const_z - tail_z
        om_w = Wbb1 - up * self._Wbb1_b + up * self._const_w - tail_w
        return om_z, om_w
