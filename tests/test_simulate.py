"""Path generation and the Monte Carlo price oracle."""

import numpy as np
import pytest

from illiquid_eq.kernel import CostKernel
from illiquid_eq.model import AgentBelief, BeliefSet
from illiquid_eq.pde import GridSurface
from illiquid_eq.simulate import DomainExitError, feynman_kac_vi, simulate


def _untagged_ou(kappa=0.8625, mean=1.25, sigma=0.128):
    # same coefficients as the tagged model, but forcing the Euler path
    return BeliefSet(
        agents=(AgentBelief(
            drift=lambda t, x: kappa * (mean - np.asarray(x, dtype=float)),
            vol=lambda t, x: sigma * np.ones_like(np.asarray(x, dtype=float))),),
        parabolicity_floor=sigma**2)


class TestSimulate:
    def test_bit_reproducible(self, fx_beliefs):
        b1 = simulate(fx_beliefs, 0, 1.0, 0.0, 3.0, 50, 300, seed=17)
        b2 = simulate(fx_beliefs, 0, 1.0, 0.0, 3.0, 50, 300, seed=17)
        assert np.array_equal(b1.paths, b2.paths)
        b3 = simulate(fx_beliefs, 0, 1.0, 0.0, 3.0, 50, 300, seed=18)
        assert not np.array_equal(b1.paths, b3.paths)

    def test_path_streams_independent_of_batch_size(self, fx_beliefs):
        # per-path keying: path p identical whether 10 or 300 paths are drawn
        small = simulate(fx_beliefs, 0, 1.0, 0.0, 3.0, 50, 10, seed=17)
        big = simulate(fx_beliefs, 0, 1.0, 0.0, 3.0, 50, 300, seed=17)
        assert np.array_equal(small.paths, big.paths[:10])

    def test_zero_noise_follows_drift_flow(self, fx_beliefs):
        batch = simulate(fx_beliefs, 0, 1.0, 0.0, 3.0, 100, 3, seed=1, vol_scale=0.0)
        expect = 1.25 + (1.0 - 1.25) * np.exp(-0.8625 * batch.ts)
        for p in range(3):
            assert np.allclose(batch.paths[p], expect, atol=1e-13)

    def test_exact_sampler_moments(self, fx_beliefs):
        batch = simulate(fx_beliefs, 0, 1.0, 0.0, 3.0, 30, 40000, seed=5)
        XT = batch.paths[:, -1]
        mean_th = 1.25 + (1.0 - 1.25) * np.exp(-0.8625 * 3.0)
        var_th = 0.128**2 * (1 - np.exp(-2 * 0.8625 * 3.0)) / (2 * 0.8625)
        se_mean = XT.std(ddof=1) / np.sqrt(len(XT))
        assert abs(XT.mean() - mean_th) <= 3 * se_mean
        # variance of the sample variance for a normal: 2 sigma^4/(n-1)
        se_var = np.sqrt(2.0 / (len(XT) - 1)) * var_th
        assert abs(XT.var(ddof=1) - var_th) <= 3 * se_var

    def test_average_measure_drift(self, fx_beliefs):
        # averaged speed: deterministic flow relaxes at kappa_bar
        batch = simulate(fx_beliefs, "average", 1.0, 0.0, 3.0, 100, 1, seed=2,
                         vol_scale=0.0)
        expect = 1.25 + (1.0 - 1.25) * np.exp(-0.575 * batch.ts)
        assert np.allclose(batch.paths[0], expect, atol=1e-13)

    def test_euler_strong_order_one(self):
        # untagged mean-reverting coefficients force the Euler scheme; the
        # tagged twin is exact. Shared seeds couple the noises step by step.
        tagged_params = dict(kappas=(0.8625,), mean_X=1.25, sigma=0.128)
        from illiquid_eq.ou import OuModel, ou_beliefs
        tagged = ou_beliefs(OuModel(horizon_T=3.0, **tagged_params))
        untagged = _untagged_ou()
        errs = []
        for nt in (64, 128, 256):
            be = simulate(untagged, 0, 1.0, 0.0, 3.0, nt, 4000, seed=13)
            bx = simulate(tagged, 0, 1.0, 0.0, 3.0, nt, 4000, seed=13)
            errs.append(np.mean(np.abs(be.paths[:, -1] - bx.paths[:, -1])))
        slopes = np.diff(np.log(errs)) / np.diff(np.log([3.0 / n for n in (64, 128, 256)]))
        assert np.all(slopes >= 0.8)

    def test_statistics_permutation_invariant(self, fx_beliefs):
        batch = simulate(fx_beliefs, 1, 1.0, 0.0, 3.0, 40, 500, seed=3)
        XT = batch.paths[:, -1]
        rng = np.random.default_rng(0)
        perm = rng.permutation(len(XT))
        assert XT.mean() == pytest.approx(XT[perm].mean(), abs=1e-12)
        assert XT.std() == pytest.approx(XT[perm].std(), abs=1e-12)

    def test_increments_retained_on_request(self, fx_beliefs):
        batch = simulate(fx_beliefs, 0, 1.0, 0.0, 3.0, 10, 5, seed=4,
                         keep_increments=True)
        assert batch.increments.shape == (5, 10)
        assert simulate(fx_beliefs, 0, 1.0, 0.0, 3.0, 10, 5, seed=4).increments is None

    def test_measure_validation(self, fx_beliefs):
        with pytest.raises(ValueError):
            simulate(fx_beliefs, 7, 1.0, 0.0, 3.0, 10, 5, seed=4)

    def test_path_count_validation(self, fx_beliefs):
        # an empty batch has no exit fraction and no Monte Carlo estimate
        with pytest.raises(ValueError, match="at least 1 path"):
            simulate(fx_beliefs, 0, 1.0, 0.0, 3.0, 10, 0, seed=4)


class TestFeynmanKac:
    def test_constant_surface_exact(self, fx_beliefs):
        kern = CostKernel(1e-8, 1e-7, 3.0)
        ts = np.linspace(0.0, 3.0, 9)
        xs = np.linspace(-10.0, 10.0, 11)
        surf = GridSurface(ts=ts, xs=xs, v=np.full((9, 11), 2.5))
        est, se = feynman_kac_vi(fx_beliefs, 0, surf, kern, 0.5, 1.0,
                                 npaths=200, seed=6, nt=40)
        assert est == pytest.approx(2.5, abs=1e-12)

    def test_risk_neutral_reduces_to_plain_expectation(self, fx_beliefs):
        # gamma -> 0: G(u)/G(t) = 1 to roundoff, so the kernel-weighted price
        # integral vanishes and only E[f(X_T)] remains
        kern = CostKernel(1e-30, 1e-7, 3.0)
        ts = np.linspace(0.0, 3.0, 3)
        xs = np.linspace(-10.0, 10.0, 41)
        # surface v(t,x) = x: terminal row gives f(X_T) = X_T
        v = np.tile(xs, (3, 1))
        surf = GridSurface(ts=ts, xs=xs, v=v)
        est, _ = feynman_kac_vi(fx_beliefs, 0, surf, kern, 0.0, 1.0,
                                npaths=500, seed=8, nt=30)
        batch = simulate(fx_beliefs, 0, 1.0, 0.0, 3.0, 30, 500, seed=8)
        assert est == pytest.approx(batch.paths[:, -1].mean(), rel=1e-12)

    def test_matches_ode_per_agent_values(self, fx_beliefs, fx_ab, fx_kernel):
        for i in range(2):
            est, se = feynman_kac_vi(fx_beliefs, i, fx_ab, fx_kernel, 0.0, 1.0,
                                     npaths=100000, seed=40 + i, nt=400)
            exact = fx_ab.agent_value(i, 0.0, 1.0)
            assert abs(est - exact) <= 3 * se

    def test_domain_exit_error(self, fx_beliefs):
        kern = CostKernel(1e-8, 1e-7, 3.0)
        ts = np.linspace(0.0, 3.0, 4)
        xs = np.linspace(1.2, 1.3, 5)     # far too narrow for the paths
        surf = GridSurface(ts=ts, xs=xs, v=np.ones((4, 5)))
        with pytest.raises(DomainExitError):
            feynman_kac_vi(fx_beliefs, 0, surf, kern, 0.0, 1.0,
                           npaths=300, seed=12, nt=30)
