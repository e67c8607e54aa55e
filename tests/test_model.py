"""Market primitives: construction rules, the checks where inputs enter and the validation report."""

import numpy as np
import pytest

from illiquid_eq.kernel import CostKernel
from illiquid_eq.model import (AgentBelief, BeliefSet, MarketSpec,
                               constant_beliefs, validate)
from illiquid_eq.pde import Grid1D, solve_equilibrium


def _spec(allocations, a0, gamma=1e-8, lam=1e-7):
    return MarketSpec(kernel=CostKernel(gamma, lam, 3.0), supply_a0=a0,
                      allocations=allocations,
                      payoff=lambda x: np.asarray(x, dtype=float) + 0.0)


class TestConstruction:
    def test_belief_set_needs_agents(self):
        with pytest.raises(ValueError):
            BeliefSet(agents=())

    def test_spec_rejects_negative_supply(self):
        with pytest.raises(ValueError):
            _spec((1.0,), -1.0)

    def test_averaged_coefficients(self):
        b = constant_beliefs([0.1, 0.3], [0.2, 0.4])
        assert b.drift_bar(0.0, 1.0) == pytest.approx(0.2)
        assert b.vol_sq_bar(0.0, 1.0) == pytest.approx((0.04 + 0.16) / 2)


class TestValidate:
    """Each input is checked where it enters; ``validate`` checks only the agent count."""

    def test_zero_sum_allocations_pass(self):
        spec = _spec((1.0, -1.0), 0.0)
        beliefs = constant_beliefs([0.0, 0.0], [0.3, 0.3])
        assert validate(spec, beliefs, (0.0, 2.0)).ok

    def test_allocation_sum_violation(self):
        # the market itself refuses allocations that do not sum to the supply
        for allocations, a0 in (((1.0, 1.0), 0.0), ((0.5, 0.5 + 2e-12), 1.0), ((np.nan,), 0.0),
                                ((np.inf, -np.inf), 0.0), ((np.inf, 0.0), 0.0)):
            with pytest.raises(ValueError, match="must sum to the supply"):
                _spec(allocations, a0)
        _spec((0.5, 0.5 + 5e-13), 1.0)

    def test_non_finite_coefficients_detected(self):
        # a NaN drift reaches the solver's matrices, which must be finite
        spec = _spec((1.0,), 1.0)
        agents = constant_beliefs([0.0], [0.3]).agents
        bad = BeliefSet(
            agents=(AgentBelief(drift=lambda t, x: np.full_like(np.asarray(x), np.nan),
                                vol=agents[0].vol),))
        with pytest.raises(ValueError, match="infs or NaNs"):
            solve_equilibrium(spec, bad, Grid1D(0.0, 2.0, 11, 5))

    def test_agent_count_mismatch(self):
        spec = _spec((1.0, -1.0), 0.0)
        beliefs = constant_beliefs([0.0], [0.3])
        report = validate(spec, beliefs, (0.0, 2.0))
        assert any("agent count" in v for v in report.violations)
