"""Type-two band costs: phase-1 values on the upper non-action component.

A type-two band switches 1 -> 2 only on [y1, y4]; on (y4, b) phase 1 keeps
producing until capacity.  The region (phase 1, x > y1) is unreachable from
level b under the policy, so the level-b scalars and the phase-2 / lower
phase-1 functions coincide with the type-one assembly for (y2, y3, y1); this
module only overlays the phase-1 values on (y4, b).
"""

from __future__ import annotations

import numpy as np

from .cost_one import BandTwo, CostSurface, TypeOneAssembly, _assembly
from .model import ModelConfig
from .passage import ExitContext, _against_exp


class TypeTwoOverlay:
    """Upper-component phase-1 machinery on top of a type-one assembly."""

    def __init__(self, model: ModelConfig, band: BandTwo):
        band.check(model.b)
        self.model = model
        self.band = band
        self.asm: TypeOneAssembly = _assembly(model, band.lower())
        asm = self.asm
        y1, y4, b = band.y1, band.y4, model.b
        k = model.switching
        self.exit1 = ExitContext(asm.s1, y4, b)

        # landing transforms against the demand density, one scalar per cost
        # and component; the (H, S, K) rows of a segment share one quadrature
        def landing_p2(u):
            H, S, K = asm.costs(2, u)
            return np.stack([H, S, k.k12 + K])

        ws, mus = asm.p2.parts.ws, asm.p2.parts.mus
        AH, AS, AK = (_against_exp(mus, landing_p2, y1, y4)
                      + _against_exp(mus, lambda u: np.stack(asm.costs(1, u)), 0.0, y1))
        H1_0, S1_0, K1_0 = (float(c[0]) for c in asm.costs(1, np.asarray([0.0])))
        # carry coefficients: lam * sum_k G1_k(x) * coef_k is the cost carried
        # from the landing below y4
        ptail_coef = model.penalty.p0 + model.penalty.p1 / mus
        self._coef_H = ws * mus * AH + ws * H1_0
        self._coef_S = ws * mus * AS + ws * S1_0 + ws * ptail_coef
        self._coef_K = ws * mus * AK + ws * K1_0

    def costs(self, x):
        """(H, S, K) of phase 1 at a 1-D x in [y4, b]; K includes the K10 charge at capacity."""
        x = np.asarray(x, dtype=float)
        m, asm = self.model, self.asm
        up, _, hold = self.exit1.exits(x, m.h1)
        G = self.exit1.resolvent_transform(x, up)
        H = (hold + up * asm.H0
             + m.lam * np.tensordot(self._coef_H, G, axes=(0, 0)))
        S = up * asm.S0 + m.lam * np.tensordot(self._coef_S, G, axes=(0, 0))
        K = up * (m.switching.k10 + asm.K0) + m.lam * np.tensordot(self._coef_K, G, axes=(0, 0))
        return H, S, K


def total_cost_two(model: ModelConfig, band: BandTwo) -> CostSurface:
    """Full type-two surface: type-one everywhere except phase 1 above y4."""
    ov = TypeTwoOverlay(model, band)
    asm = ov.asm
    return CostSurface(model, band, "two", float(asm.H0), float(asm.S0), float(asm.K0),
                       (band.y2, band.y3, band.y1, band.y4), asm, ov.costs)
