"""Trading strategies: rates, clearing, objective, optimality residuals."""

import numpy as np
import pytest

from illiquid_eq.kernel import CostKernel, ratio
from illiquid_eq.model import MarketSpec
from illiquid_eq.ou import OuModel, ou_beliefs, solve_ab
from illiquid_eq.pde import Grid1D, solve_equilibrium
from illiquid_eq.portfolio import (bump_directions, clearing_residual,
                                   cumulative_positions, gateaux_residual,
                                   integrate_strategies, objective)
from illiquid_eq.simulate import DomainExitError, simulate


def _identity(x):
    return np.asarray(x, dtype=float) + 0.0


@pytest.fixture(scope="module")
def fx_batch(fx_beliefs):
    return simulate(fx_beliefs, 0, 1.0, 0.0, 3.0, 2000, 100, seed=42)


@pytest.fixture(scope="module")
def fx_strategies(fx_ab, fx_spec, fx_batch):
    return integrate_strategies(fx_ab, fx_spec, fx_batch)


class TestEquilibriumRate:
    def test_homogeneous_tanh_flow(self):
        # identical agents have equal prices, so the rate (G'/G)(phi_i - a0/N)
        # relaxes each position toward a0/N = 1 like G(t)/G(0)
        m = OuModel(kappas=(0.575, 0.575), mean_X=1.25, sigma=0.128, horizon_T=3.0)
        kern = CostKernel(1e-8, 1e-7, 3.0)
        spec = MarketSpec(kernel=kern, supply_a0=2.0, allocations=(2.0, 0.0),
                          payoff=_identity)
        ab = solve_ab(m, kern, 2000, supply_a0=2.0)
        batch = simulate(ou_beliefs(m), 0, 1.0, 0.0, 3.0, 2000, 4, seed=3)
        strat = integrate_strategies(ab, spec, batch)
        expect = ratio(kern, batch.ts, 0.0)
        # forward Euler: O(dt) = O(1.5e-3) error
        assert np.max(np.abs(strat.positions[0] - 1.0 - expect)) <= 5e-4
        assert np.max(np.abs(strat.positions[1] - 1.0 + expect)) <= 5e-4


class TestIntegrateStrategies:
    def test_initial_allocations(self, fx_strategies, fx_spec):
        for i, a in enumerate(fx_spec.allocations):
            assert np.all(fx_strategies.positions[i][:, 0] == a)

    def test_positions_are_euler_integral(self, fx_strategies):
        dt = fx_strategies.ts[1] - fx_strategies.ts[0]
        for i in range(2):
            phi = fx_strategies.positions[i]
            rate = fx_strategies.rates[i]
            recon = phi[:, 0][:, None] + np.concatenate(
                [np.zeros((phi.shape[0], 1)), np.cumsum(rate[:, :-1] * dt, axis=1)], axis=1)
            assert np.max(np.abs(phi - recon)) == 0.0

    def test_homogeneous_positions_follow_kernel_flow(self):
        # identical agents: positions decay deterministically like G(t)/G(0),
        # independent of the simulated path
        m = OuModel(kappas=(0.575, 0.575), mean_X=1.25, sigma=0.128, horizon_T=3.0)
        kern = CostKernel(1e-8, 1e-7, 3.0)
        beliefs = ou_beliefs(m)
        spec = MarketSpec(kernel=kern, supply_a0=0.0, allocations=(1.0, -1.0),
                          payoff=_identity)
        ab = solve_ab(m, kern, 2000)
        batch = simulate(beliefs, 0, 1.0, 0.0, 3.0, 2000, 4, seed=3)
        strat = integrate_strategies(ab, spec, batch)
        expect = np.array([ratio(kern, t, 0.0) for t in batch.ts])
        for p in range(4):
            assert np.allclose(strat.positions[0][p], expect, atol=5e-4)
            assert np.allclose(strat.positions[1][p], -expect, atol=5e-4)
        # path independence
        assert np.allclose(strat.positions[0][0], strat.positions[0][3], atol=1e-9)

    def test_single_agent_holds_supply(self):
        m = OuModel(kappas=(0.575,), mean_X=1.25, sigma=0.128, horizon_T=3.0)
        kern = CostKernel(1e-8, 1e-7, 3.0)
        spec = MarketSpec(kernel=kern, supply_a0=1.0, allocations=(1.0,),
                          payoff=_identity)
        beliefs = ou_beliefs(m)
        ab = solve_ab(m, kern, 1000)
        batch = simulate(beliefs, 0, 1.0, 0.0, 3.0, 500, 3, seed=5)
        strat = integrate_strategies(ab, spec, batch)
        assert np.max(np.abs(strat.positions[0] - 1.0)) <= 1e-6

    def test_terminal_rate_vanishes(self, fx_strategies):
        for i in range(2):
            assert np.max(np.abs(fx_strategies.rates[i][:, -1])) <= 1e-10

    def test_path_exit_detected(self, fx_spec, fx_beliefs, fx_batch):
        g = Grid1D(1.2, 1.3, 11, 11)     # much narrower than the paths
        sol = solve_equilibrium(fx_spec, fx_beliefs, g)
        with pytest.raises(ValueError, match="exits spatial grid"):
            integrate_strategies(sol, fx_spec, fx_batch)

    @pytest.mark.parametrize("n_out", [1, 3])
    def test_exit_fraction_rule(self, fx_spec, fx_beliefs, n_out):
        # up to 1% of the paths may leave the grid; they are integrated on the
        # surface's linear extension and counted
        batch = simulate(fx_beliefs, 0, 1.0, 0.0, 3.0, 50, 200, seed=7)
        tops = np.sort(batch.paths.max(axis=1))[::-1]
        hi = 0.5 * (tops[n_out - 1] + tops[n_out])   # exactly n_out paths rise above hi
        grid = Grid1D(batch.paths.min() - 0.1, hi, 41, 61)
        sol = solve_equilibrium(fx_spec, fx_beliefs, grid)
        if n_out == 1:
            strat = integrate_strategies(sol, fx_spec, batch)
            assert strat.exit_frac == 1 / 200
            assert clearing_residual(strat) <= 1e-6
        else:
            with pytest.raises(DomainExitError, match="path exits spatial grid") as err:
                integrate_strategies(sol, fx_spec, batch)
            assert isinstance(err.value, ValueError)


class TestClearing:
    def test_single_agent_exact(self):
        m = OuModel(kappas=(0.575,), mean_X=1.25, sigma=0.128, horizon_T=3.0)
        kern = CostKernel(1e-8, 1e-7, 3.0)
        spec = MarketSpec(kernel=kern, supply_a0=1.0, allocations=(1.0,),
                          payoff=_identity)
        beliefs = ou_beliefs(m)
        ab = solve_ab(m, kern, 1000)
        batch = simulate(beliefs, 0, 1.0, 0.0, 3.0, 200, 2, seed=5)
        strat = integrate_strategies(ab, spec, batch)
        assert clearing_residual(strat) <= 1e-6

    def test_homogeneous_symmetric(self):
        m = OuModel(kappas=(0.575, 0.575), mean_X=1.25, sigma=0.128, horizon_T=3.0)
        kern = CostKernel(1e-8, 1e-7, 3.0)
        spec = MarketSpec(kernel=kern, supply_a0=0.0, allocations=(1.0, -1.0),
                          payoff=_identity)
        beliefs = ou_beliefs(m)
        ab = solve_ab(m, kern, 2000)
        batch = simulate(beliefs, 0, 1.0, 0.0, 3.0, 500, 4, seed=6)
        strat = integrate_strategies(ab, spec, batch)
        assert clearing_residual(strat) <= 1e-10

    def test_calibrated_two_agent(self, fx_strategies):
        # the Euler sum dynamics close exactly; what remains is roundoff in
        # the A/B identity amplified by 1/lambda, far below the 1e-6 target
        assert clearing_residual(fx_strategies) <= 1e-6


class TestObjective:
    def test_zero_strategy_scores_zero(self, fx_batch, fx_strategies, fx_ab):
        zeros = np.zeros_like(fx_strategies.positions[0])
        est = objective(0, fx_batch, fx_strategies, fx_ab,
                        positions=zeros, rates=zeros)
        assert est.mean == 0.0 and np.all(est.per_path == 0.0)

    def test_measure_mismatch_flagged(self, fx_beliefs, fx_ab, fx_spec, fx_strategies):
        other = simulate(fx_beliefs, 1, 1.0, 0.0, 3.0, 2000, 10, seed=1)
        with pytest.raises(ValueError, match="measure mismatch"):
            objective(0, other, fx_strategies, fx_ab)

    def test_optimal_beats_perturbations(self, fx_beliefs, fx_ab, fx_spec):
        batch = simulate(fx_beliefs, 0, 1.0, 0.0, 3.0, 600, 10000, seed=3)
        strat = integrate_strategies(fx_ab, fx_spec, batch)
        base = objective(0, batch, strat, fx_ab)
        dirs = bump_directions(batch.ts, 20, seed=77)
        scale = float(np.sqrt(np.mean(strat.positions[0] ** 2)))
        for d in range(dirs.shape[0]):
            theta = cumulative_positions(batch.ts, dirs[d]) * scale
            pert = objective(0, batch, strat, fx_ab,
                             positions=strat.positions[0] + 0.1 * theta[None, :],
                             rates=strat.rates[0] + 0.1 * scale * dirs[d][None, :])
            gap = base.per_path - pert.per_path
            se = gap.std(ddof=1) / np.sqrt(len(gap))
            assert gap.mean() >= -3.0 * se

    def test_quadratic_gap_in_perturbation_size(self, fx_beliefs, fx_ab, fx_spec):
        batch = simulate(fx_beliefs, 0, 1.0, 0.0, 3.0, 600, 10000, seed=3)
        strat = integrate_strategies(fx_ab, fx_spec, batch)
        base = objective(0, batch, strat, fx_ab)
        dirs = bump_directions(batch.ts, 3, seed=99)
        scale = float(np.sqrt(np.mean(strat.positions[0] ** 2)))
        for d in range(dirs.shape[0]):
            theta = cumulative_positions(batch.ts, dirs[d]) * scale
            gaps = []
            for eps in (0.1, 0.2):
                pert = objective(0, batch, strat, fx_ab,
                                 positions=strat.positions[0] + eps * theta[None, :],
                                 rates=strat.rates[0] + eps * scale * dirs[d][None, :])
                gaps.append(float(np.mean(base.per_path - pert.per_path)))
            assert gaps[1] / gaps[0] == pytest.approx(4.0, rel=0.2)

    def test_constant_price_shift_invariance(self, fx_beliefs):
        # shifting the payoff shifts every surface by the same constant and
        # leaves strategies and objectives unchanged path by path
        kern = CostKernel(1e-8, 1e-7, 3.0)
        spec = MarketSpec(kernel=kern, supply_a0=0.0, allocations=(1.0, -1.0),
                          payoff=_identity)
        shifted = MarketSpec(kernel=kern, supply_a0=0.0, allocations=(1.0, -1.0),
                             payoff=lambda x: np.asarray(x, dtype=float) + 0.33)
        sd = 0.128 / np.sqrt(2 * 0.575)
        g = Grid1D(1.25 - 6 * sd, 1.25 + 6 * sd, 121, 201)
        sol1 = solve_equilibrium(spec, fx_beliefs, g)
        sol2 = solve_equilibrium(shifted, fx_beliefs, g)
        batch = simulate(fx_beliefs, 0, 1.0, 0.0, 3.0, 400, 50, seed=4)
        s1 = integrate_strategies(sol1, spec, batch)
        s2 = integrate_strategies(sol2, shifted, batch)
        o1 = objective(0, batch, s1, sol1)
        o2 = objective(0, batch, s2, sol2)
        assert np.max(np.abs(o1.per_path - o2.per_path)) <= 1e-8 * max(
            1.0, np.max(np.abs(o1.per_path)))


class TestGateaux:
    def test_zero_direction_scores_zero(self, fx_batch, fx_strategies, fx_ab):
        zero = np.zeros((1, len(fx_batch.ts)))
        res = gateaux_residual(0, fx_batch, fx_strategies, fx_ab, directions=zero)
        assert res.max_residual == 0.0

    def test_measure_mismatch_flagged(self, fx_beliefs, fx_ab, fx_strategies):
        other = simulate(fx_beliefs, 1, 1.0, 0.0, 3.0, 2000, 10, seed=1)
        with pytest.raises(ValueError, match="measure mismatch"):
            gateaux_residual(0, other, fx_strategies, fx_ab)

    def test_deterministic_homogeneous_flow(self):
        m = OuModel(kappas=(0.575, 0.575), mean_X=1.25, sigma=0.128, horizon_T=3.0)
        kern = CostKernel(1e-8, 1e-7, 3.0)
        beliefs = ou_beliefs(m)
        spec = MarketSpec(kernel=kern, supply_a0=0.0, allocations=(1.0, -1.0),
                          payoff=_identity)
        ab = solve_ab(m, kern, 3000)
        batch = simulate(beliefs, 0, 1.0, 0.0, 3.0, 600, 4000, seed=8)
        strat = integrate_strategies(ab, spec, batch)
        res = gateaux_residual(0, batch, strat, ab, seed=103)
        assert res.max_residual <= 3.0

    def test_optimal_within_three_se(self, fx_beliefs, fx_ab, fx_spec):
        for i in range(2):
            batch = simulate(fx_beliefs, i, 1.0, 0.0, 3.0, 600, 10000, seed=3 + i)
            strat = integrate_strategies(fx_ab, fx_spec, batch)
            res = gateaux_residual(i, batch, strat, fx_ab, seed=103 + i)
            assert res.max_residual <= 3.0

    def test_single_agent_holding_supply(self):
        # the only agent must hold a0; on a surface solved for that supply its
        # zero rate is optimal, and the drift gamma a0 of the price cancels
        # the holding cost
        m = OuModel(kappas=(0.575,), mean_X=1.25, sigma=0.128, horizon_T=3.0)
        kern = CostKernel(1e-8, 1e-7, 3.0)
        spec = MarketSpec(kernel=kern, supply_a0=1.0, allocations=(1.0,),
                          payoff=_identity)
        ab = solve_ab(m, kern, 1000, supply_a0=1.0)
        batch = simulate(ou_beliefs(m), 0, 1.0, 0.0, 3.0, 500, 200, seed=5)
        strat = integrate_strategies(ab, spec, batch)
        assert gateaux_residual(0, batch, strat, ab, seed=5).max_residual <= 3.0

    def test_supply_mismatch_rejected(self, fx_beliefs, fx_ab, fx_kernel):
        spec = MarketSpec(kernel=fx_kernel, supply_a0=1.0, allocations=(1.0, 0.0),
                          payoff=_identity)
        batch = simulate(fx_beliefs, 0, 1.0, 0.0, 3.0, 100, 10, seed=1)
        strat = integrate_strategies(fx_ab, spec, batch)
        with pytest.raises(ValueError, match="supply mismatch"):
            gateaux_residual(0, batch, strat, fx_ab)
        with pytest.raises(ValueError, match="supply mismatch"):
            objective(0, batch, strat, fx_ab)

    def test_odd_step_count_rejected(self, fx_beliefs, fx_ab, fx_spec):
        # the mesh bias is estimated on every other node
        batch = simulate(fx_beliefs, 0, 1.0, 0.0, 3.0, 101, 10, seed=1)
        strat = integrate_strategies(fx_ab, fx_spec, batch)
        with pytest.raises(ValueError, match="even number of time steps"):
            gateaux_residual(0, batch, strat, fx_ab)

    def test_sabotaged_rate_detected(self, fx_beliefs, fx_ab, fx_spec):
        batch = simulate(fx_beliefs, 0, 1.0, 0.0, 3.0, 600, 10000, seed=3)
        bad = integrate_strategies(fx_ab, fx_spec, batch, rate_scale=1.5)
        res = gateaux_residual(0, batch, bad, fx_ab, seed=103)
        assert res.max_residual > 5.0


class TestDirections:
    def test_unit_norm_and_zero_start(self):
        ts = np.linspace(0.0, 3.0, 601)
        dirs = bump_directions(ts, 6, seed=1)
        dt = ts[1] - ts[0]
        for d in range(6):
            assert np.sum(dirs[d] ** 2) * dt == pytest.approx(1.0, rel=1e-12)
            theta = cumulative_positions(ts, dirs[d])
            assert theta[0] == 0.0

    def test_frozen_per_seed(self):
        ts = np.linspace(0.0, 3.0, 101)
        assert np.array_equal(bump_directions(ts, 3, seed=5), bump_directions(ts, 3, seed=5))
        assert not np.array_equal(bump_directions(ts, 3, seed=5),
                                  bump_directions(ts, 3, seed=6))
