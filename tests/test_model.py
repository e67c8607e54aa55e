"""Market primitives: construction rules and the validation report."""

import numpy as np
import pytest

from illiquid_eq.kernel import CostKernel
from illiquid_eq.model import (AgentBelief, BeliefSet, MarketSpec,
                               constant_beliefs, validate)


def _spec(allocations, a0, gamma=1e-8, lam=1e-7):
    return MarketSpec(kernel=CostKernel(gamma, lam, 3.0), supply_a0=a0,
                      allocations=allocations,
                      payoff=lambda x: np.asarray(x, dtype=float) + 0.0)


class TestConstruction:
    def test_belief_set_needs_positive_floor(self):
        agents = constant_beliefs([0.0], [1.0]).agents
        with pytest.raises(ValueError):
            BeliefSet(agents=agents, parabolicity_floor=0.0)

    def test_belief_set_needs_agents(self):
        with pytest.raises(ValueError):
            BeliefSet(agents=(), parabolicity_floor=1.0)

    def test_spec_rejects_negative_supply(self):
        with pytest.raises(ValueError):
            _spec((1.0,), -1.0)

    def test_averaged_coefficients(self):
        b = constant_beliefs([0.1, 0.3], [0.2, 0.4])
        assert b.drift_bar(0.0, 1.0) == pytest.approx(0.2)
        assert b.vol_sq_bar(0.0, 1.0) == pytest.approx((0.04 + 0.16) / 2)


class TestValidate:
    def test_zero_sum_allocations_pass(self):
        spec = _spec((1.0, -1.0), 0.0)
        beliefs = constant_beliefs([0.0, 0.0], [0.3, 0.3])
        assert validate(spec, beliefs, (0.0, 2.0)).ok

    def test_allocation_sum_violation(self):
        spec = _spec((1.0, 1.0), 0.0)
        beliefs = constant_beliefs([0.0, 0.0], [0.3, 0.3])
        report = validate(spec, beliefs, (0.0, 2.0))
        assert not report.ok
        assert any("allocation sum" in v for v in report.violations)

    def test_fx_beliefs_pass_with_sigma_sq_floor(self, fx_spec, fx_beliefs):
        # constant vol 0.128 supports exactly the floor 0.128^2
        assert fx_beliefs.parabolicity_floor == pytest.approx(0.128**2)
        assert validate(fx_spec, fx_beliefs, (0.0, 2.5)).ok

    def test_parabolicity_violation_detected(self):
        spec = _spec((1.0, -1.0), 0.0)
        base = constant_beliefs([0.0, 0.0], [0.3, 0.3])
        tight = BeliefSet(agents=base.agents, parabolicity_floor=0.2)
        report = validate(spec, tight, (0.0, 2.0))
        assert any("parabolicity" in v for v in report.violations)

    def test_non_finite_coefficients_detected(self):
        spec = _spec((1.0,), 1.0)
        agents = constant_beliefs([0.0], [0.3]).agents
        bad = BeliefSet(
            agents=(AgentBelief(drift=lambda t, x: np.full_like(np.asarray(x), np.nan),
                                vol=agents[0].vol),),
            parabolicity_floor=0.01)
        report = validate(spec, bad, (0.0, 2.0))
        assert any("non-finite" in v for v in report.violations)

    def test_agent_count_mismatch(self):
        spec = _spec((1.0, -1.0), 0.0)
        beliefs = constant_beliefs([0.0], [0.3])
        report = validate(spec, beliefs, (0.0, 2.0))
        assert any("agent count" in v for v in report.violations)

    def test_deterministic_for_fixed_seed(self, fx_spec, fx_beliefs):
        r1 = validate(fx_spec, fx_beliefs, (0.5, 2.0))
        r2 = validate(fx_spec, fx_beliefs, (0.5, 2.0))
        assert str(r1) == str(r2)
