"""Type-two band costs: phase-1 values on the upper non-action component.

A type-two band switches 1 -> 2 only on [y1, y4]; on (y4, b) phase 1 keeps
producing until capacity.  The region (phase 1, x > y1) is unreachable from
level b under the policy, so the level-b scalars and the phase-2 / lower
phase-1 functions coincide with the type-one assembly for (y2, y3, y1); this
module only overlays the phase-1 values on (y4, b).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .cost_one import (
    BandTwo,
    CostSurface,
    TypeOneAssembly,
    _against_exp,
    _assembly,
    _make_branches,
)
from .model import ModelConfig
from .passage import ExitContext


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

        ws, mus = asm._ws, asm._mus
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
        up = self.exit1.up(x)
        down = self.exit1.down(x, up)
        G = self.exit1.resolvent_transform(x, up)
        H = (self.exit1.holding(x, m.h1, up, down) + up * asm.H0
             + m.lam * np.tensordot(self._coef_H, G, axes=(0, 0)))
        S = up * asm.S0 + m.lam * np.tensordot(self._coef_S, G, axes=(0, 0))
        K = up * (m.switching.k10 + asm.K0) + m.lam * np.tensordot(self._coef_K, G, axes=(0, 0))
        return H, S, K


@lru_cache(maxsize=64)
def _overlay(model: ModelConfig, band: BandTwo) -> TypeTwoOverlay:
    return TypeTwoOverlay(model, band)


def total_cost_two(model: ModelConfig, band: BandTwo) -> CostSurface:
    """Full type-two surface: type-one everywhere except phase 1 above y4."""
    ov = _overlay(model, band.check(model.b))
    branches = _make_branches(ov.asm)
    branches["up"] = ov.costs
    return CostSurface(
        model=model,
        band=band,
        kind="two",
        H0=float(ov.asm.H0),
        S0=float(ov.asm.S0),
        K0=float(ov.asm.K0),
        branches=branches,
        thresholds=(band.y2, band.y3, band.y1, band.y4),
    )
