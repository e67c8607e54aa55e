"""Equilibrium asset prices under heterogeneous beliefs with quadratic
holding and trading costs: coupled parabolic solver, mean-reversion ODE
reduction, small-cost expansions and simulation-based verification."""

from .kernel import CostKernel, log_deriv, ratio
from .model import BeliefSet, MarketSpec, constant_beliefs, validate
from .ou import OuModel, ou_beliefs, solve_ab

__all__ = [
    "CostKernel", "log_deriv", "ratio",
    "BeliefSet", "MarketSpec", "constant_beliefs", "validate",
    "OuModel", "ou_beliefs", "solve_ab",
]

__version__ = "0.1.0"
