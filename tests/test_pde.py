"""Finite-difference solver: exact limits, oracle comparisons, invariants."""

import numpy as np
import pytest

from illiquid_eq.kernel import CostKernel, log_deriv
from illiquid_eq.model import AgentBelief, BeliefSet, MarketSpec, constant_beliefs
from illiquid_eq.ou import OuModel, ou_beliefs, solve_ab
import scipy.linalg

from illiquid_eq.pde import (BLOCK_LEVELS, DegenerateVolatilityError, Grid1D, _dv_dx, _interp2,
                             _level_solver, _march, default_grid, solve_equilibrium,
                             solve_frictionless, solve_risk_neutral)
from illiquid_eq.simulate import feynman_kac_vi, simulate

from conftest import interior_mask


def _const_spec(drifts, vols, allocations, a0, payoff, gamma=1e-3, lam=1e-2, T=1.0):
    beliefs = constant_beliefs(drifts, vols)
    spec = MarketSpec(kernel=CostKernel(gamma, lam, T), supply_a0=a0,
                      allocations=allocations, payoff=payoff)
    return spec, beliefs


class TestGrid:
    def test_validation(self):
        with pytest.raises(ValueError):
            Grid1D(1.0, 0.0, 11, 11)
        with pytest.raises(ValueError):
            Grid1D(0.0, 1.0, 2, 11)
        with pytest.raises(ValueError):
            Grid1D(0.0, 1.0, 11, 1)

    @pytest.mark.parametrize("bounds", [(0.5, np.inf), (-np.inf, 1.0), (np.nan, 1.0)])
    def test_bounds_must_be_finite(self, bounds):
        with pytest.raises(ValueError, match="grid bounds must be finite"):
            Grid1D(*bounds, 11, 11)

    def test_default_grid_width(self, fx_beliefs):
        g = default_grid(fx_beliefs)
        sd = 0.128 / np.sqrt(2 * 0.575)
        assert g.x_min == pytest.approx(1.25 - 6 * sd)
        assert g.x_max == pytest.approx(1.25 + 6 * sd)

    def test_default_grid_needs_ou(self):
        with pytest.raises(ValueError):
            default_grid(constant_beliefs([0.0], [1.0]))


class TestSolveEquilibrium:
    def test_terminal_condition(self, fx_spec, fx_beliefs, small_grid):
        sol = solve_equilibrium(fx_spec, fx_beliefs, small_grid)
        assert np.allclose(sol.v[-1], small_grid.xs, atol=1e-14)
        assert np.allclose(sol.vi[:, -1], small_grid.xs, atol=1e-14)

    def test_aggregate_identity_zero_supply(self, fx_spec, fx_beliefs, small_grid):
        sol = solve_equilibrium(fx_spec, fx_beliefs, small_grid)
        gap = sol.v - sol.vi.mean(axis=0)
        assert np.max(np.abs(gap)) <= 1e-12

    def test_aggregate_identity_positive_supply(self, fx_beliefs, small_grid):
        kern = CostKernel(1e-8, 1e-7, 3.0)
        spec = MarketSpec(kernel=kern, supply_a0=2.0, allocations=(1.5, 0.5),
                          payoff=lambda x: np.asarray(x, dtype=float) + 0.0)
        sol = solve_equilibrium(spec, fx_beliefs, small_grid)
        c = log_deriv(kern, sol.ts)
        expect = sol.vi.mean(axis=0) + kern.lam / 2 * c[:, None] * 2.0
        assert np.max(np.abs(sol.v - expect)) <= 1e-12

    def test_matches_ode_oracle(self, fx_spec, fx_beliefs, fx_model, fx_kernel, fx_grid):
        sol = solve_equilibrium(fx_spec, fx_beliefs, fx_grid)
        ab = solve_ab(fx_model, fx_kernel, n_steps=6000)
        box = interior_mask(sol.xs)
        oracle = np.array([[ab.value(t, x) for x in sol.xs[box]] for t in sol.ts])
        assert np.max(np.abs(sol.v[:, box] - oracle)) <= 1e-4
        oracle_i = np.array([[ab.agent_value(0, t, x) for x in sol.xs[box]] for t in sol.ts])
        assert np.max(np.abs(sol.vi[0][:, box] - oracle_i)) <= 1e-4

    def test_matches_ode_oracle_three_agents(self, fx_kernel):
        m = OuModel(kappas=(0.8625, 0.2875, 0.5), mean_X=1.25, sigma=0.128, horizon_T=3.0)
        beliefs = ou_beliefs(m)
        spec = MarketSpec(kernel=fx_kernel, supply_a0=0.0, allocations=(1.0, -1.0, 0.0),
                          payoff=lambda x: np.asarray(x, dtype=float) + 0.0)
        sol = solve_equilibrium(spec, beliefs, default_grid(beliefs))
        ab = solve_ab(m, fx_kernel, n_steps=6000)
        box = interior_mask(sol.xs)
        T, X = np.meshgrid(sol.ts, sol.xs[box], indexing="ij")
        assert np.max(np.abs(sol.v[:, box] - ab.value(T, X))) <= 1e-4
        for i in range(3):
            assert np.max(np.abs(sol.vi[i][:, box] - ab.agent_value(i, T, X))) <= 1e-4

    def test_homogeneous_beliefs_match_simulated_expectation(self):
        # identical agents: price is the common expectation less the supply drag
        payoff = lambda x: np.tanh(np.asarray(x, dtype=float))
        spec, beliefs = _const_spec([0.05, 0.05], [0.25, 0.25], (0.6, 0.4), 1.0,
                                    payoff, gamma=1e-3, lam=5e-3, T=1.0)
        grid = Grid1D(-2.5, 3.5, 241, 201)
        sol = solve_equilibrium(spec, beliefs, grid)
        batch = simulate(beliefs, 0, 0.4, 0.0, 1.0, 64, 40000, seed=9)
        fT = payoff(batch.paths[:, -1])
        est = fT.mean() - 1e-3 * 1.0 * 1.0 / 2
        se = fT.std(ddof=1) / np.sqrt(batch.npaths)
        assert abs(sol.value(0.0, 0.4) - est) <= 3 * se

    def test_zero_supply_scale_invariance(self, fx_spec, fx_beliefs, small_grid):
        base = solve_equilibrium(fx_spec, fx_beliefs, small_grid)
        for c in (10.0, 0.1):
            kern = fx_spec.kernel
            scaled_spec = MarketSpec(kernel=CostKernel(c * kern.gamma, c * kern.lam,
                                                       kern.horizon_T), supply_a0=0.0,
                                     allocations=fx_spec.allocations,
                                     payoff=fx_spec.payoff)
            scaled = solve_equilibrium(scaled_spec, fx_beliefs, small_grid)
            assert np.max(np.abs(base.v - scaled.v)) <= 1e-10

    def test_supply_homogeneity(self, fx_beliefs, small_grid):
        payoff = lambda x: np.asarray(x, dtype=float) + 0.0
        a0 = 2.0
        base_spec = MarketSpec(kernel=CostKernel(1e-8, 1e-7, 3.0), supply_a0=a0,
                               allocations=(1.5, 0.5), payoff=payoff)
        base = solve_equilibrium(base_spec, fx_beliefs, small_grid)
        for c in (10.0, 0.1):
            spec_c = MarketSpec(kernel=CostKernel(c * 1e-8, c * 1e-7, 3.0), supply_a0=a0 / c,
                                allocations=(1.5 / c, 0.5 / c), payoff=payoff)
            scaled = solve_equilibrium(spec_c, fx_beliefs, small_grid)
            assert np.max(np.abs(base.v - scaled.v)) <= 1e-10

    def test_degenerate_vol_detected(self, small_grid):
        beliefs = BeliefSet(
            agents=constant_beliefs([0.0, 0.0], [0.3, 0.3]).agents[:1] + (
                AgentBelief(
                    drift=lambda t, x: np.zeros_like(np.asarray(x, dtype=float)),
                    vol=lambda t, x: np.zeros_like(np.asarray(x, dtype=float))),),
            parabolicity_floor=1e-4)
        spec = MarketSpec(kernel=CostKernel(1e-3, 1e-3, 3.0), supply_a0=0.0,
                          allocations=(1.0, -1.0),
                          payoff=lambda x: np.asarray(x, dtype=float) + 0.0)
        with pytest.raises(DegenerateVolatilityError):
            solve_equilibrium(spec, beliefs, small_grid)


    def test_grid_refinement_order(self, fx_kernel):
        # smooth non-affine payoff so the spatial error is visible
        m = OuModel(kappas=(0.8625, 0.2875), mean_X=1.25, sigma=0.128, horizon_T=3.0)
        beliefs = ou_beliefs(m)
        payoff = lambda x: np.exp(-8.0 * (np.asarray(x, dtype=float) - 1.25) ** 2)
        spec = MarketSpec(kernel=fx_kernel, supply_a0=0.0, allocations=(1.0, -1.0),
                          payoff=payoff)
        sd = 0.128 / np.sqrt(2 * 0.575)
        vals = []
        for f in (1, 2, 4):
            g = Grid1D(1.25 - 6 * sd, 1.25 + 6 * sd, 40 * f + 1, 40 * f + 1)
            sol = solve_equilibrium(spec, beliefs, g)
            vals.append(sol.value(0.0, 1.25))
        e1 = abs(vals[0] - vals[1])
        e2 = abs(vals[1] - vals[2])
        order = np.log2(e1 / e2)
        assert order >= 1.8

    def test_agent_drift_matches_affine_oracle(self, fx_spec, fx_beliefs, fx_model,
                                               fx_kernel, fx_grid):
        sol = solve_equilibrium(fx_spec, fx_beliefs, fx_grid)
        ab = solve_ab(fx_model, fx_kernel, n_steps=3000)
        for (t, x) in ((0.9, 1.2), (1.7, 1.35)):
            exact = ab.agent_drift(0, t, x)
            got = sol.agent_drift(0, t, x)
            assert got == pytest.approx(exact, abs=5e-4)


class TestSolveFrictionless:
    def test_constant_payoff_zero_supply(self):
        spec, beliefs = _const_spec([0.1, -0.1], [0.3, 0.4], (1.0, -1.0), 0.0,
                                    lambda x: np.full_like(np.asarray(x, float), 2.0))
        sol = solve_frictionless(spec, beliefs, Grid1D(-2.0, 2.0, 61, 41))
        assert np.max(np.abs(sol.v - 2.0)) <= 1e-12

    def test_constant_payoff_positive_supply(self):
        spec, beliefs = _const_spec([0.1, -0.1], [0.3, 0.4], (0.5, 0.5), 1.0,
                                    lambda x: np.full_like(np.asarray(x, float), 2.0),
                                    gamma=1e-2, T=1.0)
        sol = solve_frictionless(spec, beliefs, Grid1D(-2.0, 2.0, 61, 41))
        expect = 2.0 - 1e-2 * 1.0 * (1.0 - sol.ts) / 2
        assert np.max(np.abs(sol.v - expect[:, None])) <= 1e-12

    def test_calibrated_point(self, fx_spec, fx_beliefs, fx_grid, fx_model):
        sol = solve_frictionless(fx_spec, fx_beliefs, fx_grid)
        assert sol.value(0.0, 1.0) == pytest.approx(1.2054567370567755, abs=2e-5)


class TestSolveRiskNeutral:
    def test_constant_payoff(self):
        spec, beliefs = _const_spec([0.1, -0.1], [0.3, 0.4], (1.0, -1.0), 0.0,
                                    lambda x: np.full_like(np.asarray(x, float), 1.5))
        agg, per = solve_risk_neutral(spec, beliefs, Grid1D(-2.0, 2.0, 61, 41))
        assert np.max(np.abs(agg.v - 1.5)) <= 1e-12
        for surf in per:
            assert np.max(np.abs(surf.v - 1.5)) <= 1e-12

    def test_single_agent_is_expectation(self):
        payoff = lambda x: np.tanh(np.asarray(x, dtype=float))
        spec, beliefs = _const_spec([0.08], [0.3], (1.0,), 1.0, payoff, T=1.0)
        agg, per = solve_risk_neutral(spec, beliefs, Grid1D(-3.0, 3.5, 301, 101))
        batch = simulate(beliefs, 0, 0.2, 0.0, 1.0, 64, 40000, seed=21)
        fT = payoff(batch.paths[:, -1])
        se = fT.std(ddof=1) / np.sqrt(batch.npaths)
        assert abs(agg.value(0.0, 0.2) - fT.mean()) <= 3 * se

    def test_calibrated_point(self, fx_spec, fx_beliefs, fx_grid, fx_model):
        agg, per = solve_risk_neutral(fx_spec, fx_beliefs, fx_grid)
        assert agg.value(0.0, 1.0) == pytest.approx(1.1878358345986477, abs=2e-5)
        assert per[0].value(0.0, 1.0) == pytest.approx(
            1.25 - 0.25 * np.exp(-2.5875), abs=2e-5)


class TestFeynmanKacCrossCheck:
    def test_agent_value_within_mc_error(self):
        payoff = lambda x: np.tanh(np.asarray(x, dtype=float))
        spec, beliefs = _const_spec([0.12, -0.04], [0.25, 0.35], (1.0, -1.0), 0.0,
                                    payoff, gamma=2e-3, lam=4e-3, T=1.0)
        grid = Grid1D(-3.0, 3.5, 261, 161)
        sol = solve_equilibrium(spec, beliefs, grid)
        for i in range(2):
            est, se = feynman_kac_vi(beliefs, i, sol, spec.kernel, 0.0, 0.3,
                                     npaths=20000, seed=31 + i, nt=160)
            assert abs(est - sol.agent_value(i, 0.0, 0.3)) <= 3 * se


class TestExportAndCache:
    def test_csv_shape(self, fx_spec, fx_beliefs, tmp_path):
        g = Grid1D(1.0, 1.5, 5, 4)
        sol = solve_equilibrium(fx_spec, fx_beliefs, g)
        out = tmp_path / "eq.csv"
        sol.to_csv(out)
        lines = out.read_text().splitlines()
        assert lines[0] == "t,x,v,v1,v2,dv_dx"
        assert len(lines) == 1 + 4 * 5


class TestDerivativeGrids:
    @pytest.fixture(scope="class")
    def fx_sol(self, fx_spec, fx_beliefs):
        # the configs/ou_fx.yaml grid: its linspace spacings differ from grid.h by an ulp
        grid = Grid1D(0.53, 1.97, 241, 601)
        return grid, solve_equilibrium(fx_spec, fx_beliefs, grid)

    def test_slope_uses_the_grid_step(self, fx_sol):
        grid, sol = fx_sol
        assert sol.xs[1] - sol.xs[0] != grid.h
        assert np.array_equal(sol.dv_dx, _dv_dx(sol.v, grid.h))

    def test_time_slope_and_curvature(self, fx_sol):
        _, sol = fx_sol
        assert np.array_equal(sol.dv_dt, np.gradient(sol.v, sol.ts, axis=0))
        h = sol.xs[1] - sol.xs[0]
        g = np.empty_like(sol.v)
        g[:, 1:-1] = (sol.v[:, 2:] - 2 * sol.v[:, 1:-1] + sol.v[:, :-2]) / h**2
        g[:, 0] = g[:, 1]
        g[:, -1] = g[:, -2]
        assert np.array_equal(sol.dv_dxx, g)

    def test_grids_are_computed_on_first_read(self, fx_spec, fx_beliefs, small_grid):
        surf = solve_frictionless(fx_spec, fx_beliefs, small_grid)
        assert "dv_dx" not in vars(surf)
        slope = surf.dv_dx
        assert vars(surf)["dv_dx"] is slope
        sol = solve_equilibrium(fx_spec, fx_beliefs, small_grid)
        assert not {"dv_dx", "dv_dt", "dv_dxx"} & set(vars(sol))
        sol.agent_drift(0, 1.0, 1.2)
        assert {"dv_dx", "dv_dt", "dv_dxx"} <= set(vars(sol))


def _dense_operator(xs, drift, vol, t):
    """L = 0.5 sigma^2 d_xx + b d_x with the zero-curvature edge rows, dense."""
    nx, h = len(xs), xs[1] - xs[0]
    b, s2 = drift(t, xs), vol(t, xs) ** 2
    L = np.zeros((nx, nx))
    for j in range(1, nx - 1):
        L[j, j - 1] = 0.5 * s2[j] / h**2 - b[j] / (2 * h)
        L[j, j] = -s2[j] / h**2
        L[j, j + 1] = 0.5 * s2[j] / h**2 + b[j] / (2 * h)
    L[0, :2] = [-b[0] / h, b[0] / h]
    L[-1, -2:] = [-b[-1] / h, b[-1] / h]
    return L


class TestMarch:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_three_steps_match_dense_solve(self, n):
        # time-dependent coefficients, coupling and sources; the reference
        # assembles the same theta scheme (two implicit-Euler start-up steps,
        # then Crank-Nicolson) agent-major and solves it densely
        xs = np.linspace(-1.0, 2.0, 9)
        ts = np.array([0.0, 0.1, 0.25, 0.45])
        nx = len(xs)
        coeffs = [(lambda t, x, i=i: (0.3 + 0.2 * i) * (0.5 - x) * (1.0 + t),
                   lambda t, x, i=i: 0.4 + 0.1 * i + 0.05 * np.sin(x + t)) for i in range(n)]
        c = -1.5 * (1.0 + ts)
        source = lambda t: np.stack([np.cos((i + 1) * xs) * (1.0 + t) for i in range(n)])
        terminal = np.stack([np.sin(xs + i) for i in range(n)])
        got = _march(ts, xs, coeffs, terminal, coupling=c,
                     source=np.stack([source(t) for t in 0.5 * (ts[:-1] + ts[1:])]))

        mean = np.kron(np.full((n, n), 1.0 / n), np.eye(nx))

        def system(m):
            K = np.zeros((n * nx, n * nx))
            for i, (b, s) in enumerate(coeffs):
                K[i * nx:(i + 1) * nx, i * nx:(i + 1) * nx] = _dense_operator(xs, b, s, ts[m])
            return K + c[m] * (np.eye(n * nx) - mean)

        v = terminal.ravel()
        for m, theta in ((2, 1.0), (1, 1.0), (0, 0.5)):
            dt = ts[m + 1] - ts[m]
            rhs = v + dt * (1.0 - theta) * system(m + 1) @ v \
                + dt * source(0.5 * (ts[m] + ts[m + 1])).ravel()
            v = np.linalg.solve(np.eye(n * nx) - dt * theta * system(m), rhs)
            assert np.max(np.abs(got[:, m].ravel() - v)) <= 1e-12

    @pytest.mark.parametrize("n", [1, 2])
    def test_non_finite_level_is_refused(self, n):
        xs = np.linspace(-1.0, 1.0, 5)
        coeffs = [(lambda t, x: 0.1 * x, lambda t, x: 0.3 + 0.0 * x)] * n
        ts = np.linspace(0.0, 1.0, 4)
        source = lambda t: np.where(xs > 0.5, np.nan, 0.0)
        with pytest.raises(ValueError, match="infs or NaNs"):
            _march(ts, xs, coeffs, np.zeros((n, 5)),
                   source=np.stack([source(t) for t in 0.5 * (ts[:-1] + ts[1:])]))

    @pytest.mark.parametrize("n", [1, 2])
    def test_singular_level_is_linalg_error(self, n):
        # no spatial coupling and k c = 1: each node's N x N block is singular;
        # for one equation, k di = 1 zeroes the diagonal
        nx, k = 4, 0.5
        zero = np.zeros((n, nx))
        di = np.full((n, nx), 1.0 / k) if n == 1 else zero
        with pytest.raises(np.linalg.LinAlgError, match="singular matrix"):
            matrices, solve = _level_solver(n, nx)
            solve(matrices(zero[None], di[None], zero[None], np.array([1.0 / k]),
                           np.array([k]))[0], np.ones((n, nx)))


def _per_level_march(ts, xs, coeffs, terminal, c, mid_source):
    """The theta scheme one level at a time, each level's matrix in the band
    storage of ``scipy.linalg.solve_banded((N, N))``, unknown j*N + i for
    agent i at node j."""
    n, nx = len(coeffs), len(xs)
    h = xs[1] - xs[0]

    def bands(t):
        L = np.zeros((3, n, nx))
        for i, (drift, vol) in enumerate(coeffs):
            b, s2 = drift(t, xs), vol(t, xs) ** 2
            L[0, i, 1:-1] = 0.5 * s2[1:-1] / h**2 - b[1:-1] / (2 * h)
            L[1, i, 1:-1] = -s2[1:-1] / h**2
            L[2, i, 1:-1] = 0.5 * s2[1:-1] / h**2 + b[1:-1] / (2 * h)
            L[1, i, 0], L[2, i, 0] = -b[0] / h, b[0] / h
            L[1, i, -1], L[0, i, -1] = b[-1] / h, -b[-1] / h
        return L

    out = np.empty((n, len(ts), nx))
    out[:, -1] = v = terminal
    explicit_bands = bands(ts[-1])
    for m in range(len(ts) - 2, -1, -1):
        dt = ts[m + 1] - ts[m]
        theta = 1.0 if m >= len(ts) - 3 else 0.5
        lo, di, up = explicit_bands
        expl = di * v
        expl[:, :-1] += up[:, :-1] * v[:, 1:]
        expl[:, 1:] += lo[:, 1:] * v[:, :-1]
        expl += c[m + 1] * (v - v.mean(axis=0))
        rhs = v + dt * (1.0 - theta) * expl + dt * mid_source[m]
        lo, di, up = explicit_bands = bands(ts[m])
        k = dt * theta
        ab = np.zeros((2 * n + 1, n * nx))
        ab[0, n:] = -k * up[:, :-1].T.ravel()
        ab[n] = (1.0 - k * (di + c[m]) + k * c[m] / n).T.ravel()
        ab[2 * n, :-n] = -k * lo[:, 1:].T.ravel()
        for d in range(1, n):
            ab[n - d].reshape(nx, n)[:, d:] = k * c[m] / n
            ab[n + d].reshape(nx, n)[:, :n - d] = k * c[m] / n
        v = scipy.linalg.solve_banded((n, n), ab, rhs.T.ravel()).reshape(nx, n).T
        out[:, m] = v
    return out


class TestBlockedMarch:
    # two full blocks and a partial one of BLOCK_LEVELS levels, on uneven steps
    ts = np.linspace(0.0, 1.0, 2 * BLOCK_LEVELS + 5) ** 1.2
    xs = np.linspace(-1.0, 2.0, 11)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_equals_per_level_march(self, n):
        ts, xs = self.ts, self.xs
        coeffs = [(lambda t, x, i=i: (0.3 + 0.2 * i) * (0.5 - x) * (1.0 + t),
                   lambda t, x, i=i: 0.4 + 0.1 * i + 0.05 * np.sin(x + 3 * t)) for i in range(n)]
        c = -1.5 * (1.0 + np.cos(2 * ts))
        source = lambda t: np.stack([np.cos((i + 1) * xs + t) for i in range(n)])
        mid_source = np.stack([source(t) for t in 0.5 * (ts[:-1] + ts[1:])])
        terminal = np.stack([np.sin(xs + i) for i in range(n)])
        got = _march(ts, xs, coeffs, terminal, coupling=c, source=mid_source)
        want = _per_level_march(ts, xs, coeffs, terminal.copy(), c, mid_source)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("level", [len(ts) - 1, 2 * BLOCK_LEVELS + 1, BLOCK_LEVELS + 30, 2, 0])
    def test_vanishing_vol_names_its_level(self, level):
        # a second vanishing level below it, in the same block when there is
        # room, is not reached: the march goes backward
        ts, xs = self.ts, self.xs
        zero = {ts[level], ts[max(level - 3, 0)]}
        coeffs = [(lambda t, x: 0.1 * x, lambda t, x: 0.3 + 0.0 * x),
                  (lambda t, x: 0.1 * x, lambda t, x: (0.0 if t in zero else 0.3) + 0.0 * x)]
        with pytest.raises(DegenerateVolatilityError, match=f"at t={ts[level]:.6g}$"):
            _march(ts, xs, coeffs, np.zeros((2, len(xs))))


def test_interp2_stacked_surfaces_match_one_at_a_time():
    ts, xs = np.linspace(0.0, 3.0, 7), np.linspace(0.5, 2.0, 9)
    F = np.random.default_rng(1).random((3, len(ts), len(xs)))
    tq, xq = np.linspace(0.1, 2.9, 5)[:, None], np.linspace(0.4, 2.1, 9)
    got = _interp2(ts, xs, F, tq, xq)
    assert np.array_equal(got, np.stack([_interp2(ts, xs, f, tq, xq) for f in F]))
