"""Market primitives: agent beliefs, market specification and validation.

Coefficient functions are plain callables (t, x) -> array.  A belief set may
carry a closed-form tag ("ou", "constant") that downstream modules exploit
for exact formulas; the PDE solver ignores it.  Global boundedness of the
coefficients is the caller's responsibility and is only spot-checked on the
computational domain, since the flagship mean-reversion example is itself
unbounded.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from .kernel import CostKernel

__all__ = [
    "AgentBelief",
    "BeliefSet",
    "MarketSpec",
    "ValidationReport",
    "constant_beliefs",
    "validate",
]

# sampled times (and points per time) of ``validate``, and the seed of its points
VALIDATE_SAMPLES, VALIDATE_SEED = 24, 0


@dataclass(frozen=True)
class AgentBelief:
    """One agent's subjective drift b(t, x) and volatility sigma(t, x)."""

    drift: Callable
    vol: Callable


@dataclass(frozen=True)
class BeliefSet:
    """Per-agent coefficient functions plus a declared parabolicity floor.

    ``parabolicity_floor`` is the constant kappa > 0 with sigma_i^2 >= kappa
    on the computational domain; it is checked by sampling in ``validate``.
    """

    agents: tuple
    parabolicity_floor: float
    tag: Optional[str] = None
    tag_params: Optional[Mapping] = None

    def __post_init__(self):
        if len(self.agents) < 1:
            raise ValueError("need at least one agent")
        if not self.parabolicity_floor > 0.0:
            raise ValueError("parabolicity floor must be positive")

    @property
    def n_agents(self) -> int:
        return len(self.agents)

    def drift(self, i: int, t, x):
        return self.agents[i].drift(t, x)

    def vol(self, i: int, t, x):
        return self.agents[i].vol(t, x)

    def drift_bar(self, t, x):
        """Arithmetic average of the agents' drifts."""
        return sum(a.drift(t, x) for a in self.agents) / self.n_agents

    def vol_sq_bar(self, t, x):
        """Arithmetic average of the agents' squared volatilities."""
        return sum(np.asarray(a.vol(t, x)) ** 2 for a in self.agents) / self.n_agents


def constant_beliefs(drifts: Sequence[float], vols: Sequence[float]) -> BeliefSet:
    """Belief set with constant per-agent drift and volatility."""
    if len(drifts) != len(vols):
        raise ValueError("drifts and vols must have equal length")
    agents = tuple(
        AgentBelief(
            drift=lambda t, x, b=float(b): np.broadcast_to(np.float64(b), np.shape(x)).copy()
            if np.ndim(x) else float(b),
            vol=lambda t, x, s=float(s): np.broadcast_to(np.float64(s), np.shape(x)).copy()
            if np.ndim(x) else float(s),
        )
        for b, s in zip(drifts, vols)
    )
    floor = float(min(vols)) ** 2
    return BeliefSet(agents=agents, parabolicity_floor=floor, tag="constant",
                     tag_params={"drifts": tuple(map(float, drifts)),
                                 "vols": tuple(map(float, vols))})


@dataclass(frozen=True)
class MarketSpec:
    """Costs, supply, initial allocations and terminal payoff of one market."""

    kernel: CostKernel
    supply_a0: float
    allocations: tuple
    payoff: Callable

    def __post_init__(self):
        if self.supply_a0 < 0.0:
            raise ValueError("supply must be nonnegative")
        if len(self.allocations) < 1:
            raise ValueError("need at least one allocation")

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
    """Sampled check of the standing assumptions on ``domain = (x_lo, x_hi)``.

    Checks the allocation sum, the parabolicity floor, finiteness of the
    coefficients and three sampled derivatives of the payoff, at
    VALIDATE_SAMPLES times with points from the fixed seed VALIDATE_SEED.
    """
    report = ValidationReport()
    x_lo, x_hi = float(domain[0]), float(domain[1])
    if not x_lo < x_hi:
        raise ValueError("domain must satisfy x_lo < x_hi")

    if beliefs.n_agents != spec.n_agents:
        report.violations.append(
            f"agent count mismatch: {beliefs.n_agents} beliefs vs {spec.n_agents} allocations")

    alloc_gap = abs(sum(spec.allocations) - spec.supply_a0)
    if alloc_gap > 1e-12:
        report.violations.append(f"allocation sum differs from supply by {alloc_gap:.3e}")

    rng = np.random.default_rng(VALIDATE_SEED)
    T = spec.horizon_T
    ts = np.linspace(0.0, T, VALIDATE_SAMPLES)
    xs = x_lo + (x_hi - x_lo) * rng.random((VALIDATE_SAMPLES, VALIDATE_SAMPLES))
    for i in range(beliefs.n_agents):
        vol_min = np.inf
        finite = True
        for k, t in enumerate(ts):
            b = np.asarray(beliefs.drift(i, t, xs[k]), dtype=float)
            s = np.asarray(beliefs.vol(i, t, xs[k]), dtype=float)
            finite = finite and bool(np.all(np.isfinite(b)) and np.all(np.isfinite(s)))
            if s.size:
                vol_min = min(vol_min, float(np.min(s * s)))
        if not finite:
            report.violations.append(f"agent {i}: non-finite drift or vol on domain")
        elif vol_min < beliefs.parabolicity_floor * (1.0 - 1e-12):
            report.violations.append(
                f"agent {i}: parabolicity floor violated (min sigma^2 = {vol_min:.6g} "
                f"< {beliefs.parabolicity_floor:.6g})")

    # payoff smoothness: value and two central-difference derivatives stay finite
    xp = np.linspace(x_lo, x_hi, 4 * VALIDATE_SAMPLES)
    h = (x_hi - x_lo) / 1000.0
    try:
        f0 = np.asarray(spec.payoff(xp), dtype=float)
        f1 = (np.asarray(spec.payoff(xp + h)) - np.asarray(spec.payoff(xp - h))) / (2 * h)
        f2 = (np.asarray(spec.payoff(xp + h)) - 2 * f0 + np.asarray(spec.payoff(xp - h))) / h**2
        if not (np.all(np.isfinite(f0)) and np.all(np.isfinite(f1)) and np.all(np.isfinite(f2))):
            report.violations.append("payoff or its sampled derivatives are non-finite on domain")
    except Exception as exc:  # payoff not evaluable on arrays
        report.violations.append(f"payoff evaluation failed: {exc}")

    return report
