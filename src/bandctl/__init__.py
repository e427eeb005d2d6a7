"""Band switching policies for a two-rate production-inventory system.

Closed-form discounted costs of threshold policies via fluctuation-theory
kernels, threshold optimization with HJB verification, and an independent
Monte Carlo simulator for cross-checks.
"""

__version__ = "0.1.0"

from .cost_one import (
    BandOne,
    BandTwo,
    CostSurface,
    total_cost,
)
from .cost_two import total_cost_two
from .model import (
    DemandLaw,
    HoldingCost,
    ModelConfig,
    PenaltyCost,
    SwitchMatrix,
    upper_cost_bound,
    validate,
)
from .optimize import (
    OptimizationResult,
    escalate,
    optimize_doshi,
    optimize_type_one,
    optimize_type_two,
)
from .scale import ScaleSet, build_scale, check_laplace_identity
from .simulate import SimEstimate, SimStrategy, estimate_cost
from .verify import VerificationReport, operator_L, verify_strategy

__all__ = [
    "BandOne", "BandTwo", "CostSurface", "DemandLaw", "HoldingCost", "ModelConfig",
    "OptimizationResult", "PenaltyCost", "ScaleSet", "SimEstimate", "SimStrategy",
    "SwitchMatrix", "VerificationReport", "build_scale", "check_laplace_identity",
    "escalate", "estimate_cost", "operator_L", "optimize_doshi",
    "optimize_type_one", "optimize_type_two", "total_cost", "total_cost_two",
    "upper_cost_bound", "validate", "verify_strategy",
]
