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
    _assembly,
    _make_branches,
)
from .errors import OutOfBand
from .model import ModelConfig
from .passage import ExitContext
from .scale import build_scale


class TypeTwoOverlay:
    """Upper-component phase-1 machinery on top of a type-one assembly."""

    def __init__(self, model: ModelConfig, band: BandTwo):
        band.check(model.b)
        self.model = model
        self.band = band
        self.asm: TypeOneAssembly = _assembly(model, band.lower())
        asm = self.asm
        y1, y4, b = band.y1, band.y4, model.b
        self._mus = asm._mus
        self._ws = asm._ws
        k = model.switching
        self.exit1 = ExitContext(asm.s1, y4, b)

        # landing transforms against the demand density, one scalar per component
        land = asm._against_exp
        self._AH = land(asm.calH2, y1, y4) + land(asm.calH1, 0.0, y1)
        self._AS = land(asm.calS2, y1, y4) + land(asm.calS1, 0.0, y1)
        self._AK = land(lambda u: k.k12 + asm.calK2(u), y1, y4) + land(asm.calK1, 0.0, y1)
        zero = np.asarray([0.0])
        self._H1_0 = float(asm.calH1(zero)[0])
        self._S1_0 = float(asm.calS1(zero)[0])
        self._K1_0 = float(asm.calK1(zero)[0])

    # -- upper-region primitives (domain [y4, b]) ----------------------------

    def _carry(self, x, A: np.ndarray, tail0: float, extra: np.ndarray | None = None):
        """lam * sum_k G1_k(x) * (w_k mu_k A_k + w_k tail0 [+ w_k extra_k])."""
        coef = self._ws * self._mus * A + self._ws * tail0
        if extra is not None:
            coef = coef + self._ws * extra
        G = self.exit1.resolvent_transform(x)
        return self.model.lam * np.tensordot(coef, G, axes=(0, 0))

    def Hbar(self, x):
        x1 = np.atleast_1d(np.asarray(x, dtype=float))
        hold = self.exit1.holding(x1, self.model.h1)
        out = hold + self.exit1.up(x1) * self.asm.H0 + self._carry(x1, self._AH, self._H1_0)
        return out if np.asarray(x).ndim else float(out[0])

    def Sbar(self, x):
        x1 = np.atleast_1d(np.asarray(x, dtype=float))
        m = self.model
        ptail_coef = m.penalty.p0 + m.penalty.p1 / self._mus
        out = self.exit1.up(x1) * self.asm.S0 + self._carry(x1, self._AS, self._S1_0, extra=ptail_coef)
        return out if np.asarray(x).ndim else float(out[0])

    def Kbar(self, x):
        """Includes the K10 charge at the capacity switch-off."""
        x1 = np.atleast_1d(np.asarray(x, dtype=float))
        k10 = self.model.switching.k10
        out = self.exit1.up(x1) * (k10 + self.asm.K0) + self._carry(x1, self._AK, self._K1_0)
        return out if np.asarray(x).ndim else float(out[0])


@lru_cache(maxsize=64)
def _overlay(model: ModelConfig, band: BandTwo) -> TypeTwoOverlay:
    return TypeTwoOverlay(model, band)


def holding_exit_phase1(model: ModelConfig, band: BandTwo, x):
    """Discounted holding at phase 1 until leaving (y4, b)."""
    if np.any(np.asarray(x) < band.y4 - 1e-12) or np.any(np.asarray(x) > model.b + 1e-12):
        raise OutOfBand(f"x outside [{band.y4}, {model.b}]")
    exit1 = ExitContext(build_scale(model, 1), band.check(model.b).y4, model.b)
    return exit1.holding(x, model.h1)


def upper_phase1_costs(model: ModelConfig, band: BandTwo, type_one_surface: CostSurface, x):
    """(holding, shortage, switching) phase-1 values on the upper component.

    type_one_surface must have been built from band.lower(); its level-b
    scalars enter the up-crossing terms.
    """
    if np.any(np.asarray(x) < band.y4 - 1e-12) or np.any(np.asarray(x) > model.b + 1e-12):
        raise OutOfBand(f"x outside [{band.y4}, {model.b}]")
    if type_one_surface.band != band.lower():
        raise ValueError("type-one surface was built from different thresholds")
    ov = _overlay(model, band.check(model.b))
    return ov.Hbar(x), ov.Sbar(x), ov.Kbar(x)


def total_cost_two(model: ModelConfig, band: BandTwo) -> CostSurface:
    """Full type-two surface: type-one everywhere except phase 1 above y4."""
    ov = _overlay(model, band.check(model.b))
    branches = _make_branches(ov.asm)
    branches["up"] = {
        "H": ov.Hbar,
        "S": ov.Sbar,
        "K": ov.Kbar,
        "V": lambda x: ov.Hbar(x) + ov.Sbar(x) + ov.Kbar(x),
    }
    return CostSurface(
        model=model,
        band=band,
        kind="two",
        H0=ov.asm.H0,
        S0=ov.asm.S0,
        K0=ov.asm.K0,
        branches=branches,
        thresholds=(band.y2, band.y3, band.y1, band.y4),
    )
