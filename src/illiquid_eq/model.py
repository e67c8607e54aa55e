"""Market primitives: agent beliefs, market specification and validation.

Coefficient functions are plain callables (t, x) -> array, called with a
scalar time t and a state x, scalar or array, and returning a result of x's
shape (a float for a scalar x); the PDE solvers and a grid surface's drift
grids make one call per time level with the grid's nodes as x.  A belief set
built by ``ou.ou_beliefs`` carries its ``OuModel``, which path sampling and
default grid sizing use for exact formulas; the PDE solver ignores it.
Each input is checked once, where it enters.  Global boundedness of the
coefficients is the caller's responsibility, since the flagship
mean-reversion example is itself unbounded.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional, Sequence

import numpy as np

from .kernel import CostKernel

if TYPE_CHECKING:
    from .ou import OuModel

__all__ = [
    "AgentBelief",
    "BeliefSet",
    "MarketSpec",
    "ValidationReport",
    "constant_beliefs",
    "validate",
]

@dataclass(frozen=True)
class AgentBelief:
    """One agent's subjective drift b(t, x) and volatility sigma(t, x)."""

    drift: Callable
    vol: Callable


@dataclass(frozen=True)
class BeliefSet:
    """Per-agent coefficient functions; ``ou`` is the mean-reversion model they came from, if any."""

    agents: tuple
    ou: Optional["OuModel"] = None

    def __post_init__(self):
        if len(self.agents) < 1:
            raise ValueError("need at least one agent")

    @property
    def n_agents(self) -> int:
        return len(self.agents)

    def drift_bar(self, t, x):
        """Arithmetic average of the agents' drifts."""
        return sum(a.drift(t, x) for a in self.agents) / self.n_agents

    def vol_sq_bar(self, t, x):
        """Arithmetic average of the agents' squared volatilities."""
        return sum(np.asarray(a.vol(t, x)) ** 2 for a in self.agents) / self.n_agents


def constant_beliefs(drifts: Sequence[float], vols: Sequence[float]) -> BeliefSet:
    """Belief set with constant per-agent drift (finite) and volatility (finite, positive)."""
    if len(drifts) != len(vols):
        raise ValueError("drifts and vols must have equal length")
    if not all(np.isfinite(b) for b in drifts):
        raise ValueError(f"drifts must be finite, got {list(drifts)}")
    if not all(0.0 < s < np.inf for s in vols):
        raise ValueError(f"vols must be finite and positive, got {list(vols)}")
    agents = tuple(
        AgentBelief(
            drift=lambda t, x, b=float(b): b * np.ones(np.shape(x)),
            vol=lambda t, x, s=float(s): s * np.ones(np.shape(x)),
        )
        for b, s in zip(drifts, vols)
    )
    return BeliefSet(agents=agents)


@dataclass(frozen=True)
class MarketSpec:
    """Costs, supply, initial allocations and terminal payoff of one market."""

    kernel: CostKernel
    supply_a0: float
    allocations: tuple
    payoff: Callable

    def __post_init__(self):
        if not 0.0 <= self.supply_a0 < np.inf:
            raise ValueError(f"supply must be nonnegative and finite, got {self.supply_a0:g}")
        if len(self.allocations) < 1:
            raise ValueError("need at least one allocation")
        a = self.allocations
        # to 1e-12 of the holdings' size: the default [a0/N] * N misses a0 by roundoff of a0
        if not (np.isfinite(a).all()
                and abs(sum(a) - self.supply_a0) <= 1e-12 * max(1.0, sum(map(abs, a)))):
            raise ValueError(f"allocations {list(a)} must sum to the supply and be finite")

    @property
    def n_agents(self) -> int:
        return len(self.allocations)

    @property
    def horizon_T(self) -> float:
        return self.kernel.horizon_T


@dataclass
class ValidationReport:
    """List of violated invariants; empty means the inputs are usable."""

    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        if self.ok:
            return "ok"
        return "; ".join(self.violations)


def validate(spec: MarketSpec, beliefs: BeliefSet, domain) -> ValidationReport:
    """Check that beliefs and market have the same number of agents; ``domain`` is not read.

    Every other input is checked where it enters; this check needs both objects.
    """
    report = ValidationReport()
    if beliefs.n_agents != spec.n_agents:
        report.violations.append(
            f"agent count mismatch: {beliefs.n_agents} beliefs vs {spec.n_agents} allocations")
    return report
