"""Finite-difference solver: exact limits, oracle comparisons, invariants."""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import illiquid_eq
from illiquid_eq import pde
from illiquid_eq.asymptotics import tc_correction
from illiquid_eq.kernel import CostKernel, log_deriv, supply_drag
from illiquid_eq.model import AgentBelief, BeliefSet, MarketSpec, constant_beliefs
from illiquid_eq.ou import OuModel, ou_beliefs, solve_ab
import scipy.linalg

from illiquid_eq.pde import (BLOCK_LEVELS, DegenerateVolatilityError, Grid1D, GridSurface,
                             _interp2, _level_solver, _march, _setup, _step, default_grid,
                             solve_equilibrium)
from illiquid_eq.simulate import feynman_kac_vi, simulate

from conftest import HORIZON, curved, drifting_beliefs, interior_mask


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
                    vol=lambda t, x: np.zeros_like(np.asarray(x, dtype=float))),))
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


def _frictionless(spec, beliefs, grid):
    """The frictionless price: the averaged generator's march from the payoff, as a surface."""
    ts, xs, terminal = _setup(spec, beliefs, grid, 1)
    return GridSurface(ts=ts, xs=xs, v=_march(ts, xs, beliefs, terminal)[0])


def _risk_neutral(spec, beliefs, grid):
    """(mean, per-agent) risk-neutral surfaces: each agent's generator marched from the payoff."""
    ts, xs, terminal = _setup(spec, beliefs, grid, beliefs.n_agents)
    vi = _march(ts, xs, beliefs, terminal)
    surfaces = [GridSurface(ts=ts, xs=xs, v=v) for v in vi]
    return GridSurface(ts=ts, xs=xs, v=vi.mean(axis=0)), surfaces


class TestSolveFrictionless:
    def test_constant_payoff_zero_supply(self):
        spec, beliefs = _const_spec([0.1, -0.1], [0.3, 0.4], (1.0, -1.0), 0.0,
                                    lambda x: np.full_like(np.asarray(x, float), 2.0))
        sol = _frictionless(spec, beliefs, Grid1D(-2.0, 2.0, 61, 41))
        assert np.max(np.abs(sol.v - 2.0)) <= 1e-12

    def test_calibrated_point(self, fx_spec, fx_beliefs, fx_grid, fx_model):
        sol = _frictionless(fx_spec, fx_beliefs, fx_grid)
        assert sol.value(0.0, 1.0) == pytest.approx(1.2054567370567755, abs=2e-5)


def _state_dependent_beliefs():
    """Two agents whose drift and vol vary with t and x, so no ODE reduction applies."""
    return BeliefSet(agents=(
        AgentBelief(drift=lambda t, x: 0.8 * (1.0 - np.asarray(x, dtype=float)) + 0.05 * np.sin(t),
                    vol=lambda t, x: 0.3 + 0.05 * np.tanh(np.asarray(x, dtype=float))),
        AgentBelief(drift=lambda t, x: 0.2 * (1.0 - np.asarray(x, dtype=float)),
                    vol=lambda t, x: 0.25 + 0.02 * np.cos(np.asarray(x, dtype=float) + t))))


# moderate costs, and stiff ones (a T = 31.6), where a marched supply source
# carried a time error of 5e-5
@pytest.mark.parametrize("gamma, lam", [(0.05, 0.2), (1.0, 1e-3)])
def test_supply_enters_as_closed_form_shift(gamma, lam):
    kern = CostKernel(gamma, lam, 1.0)
    beliefs = _state_dependent_beliefs()
    payoff = lambda x: np.tanh(np.asarray(x, dtype=float))
    grid = Grid1D(-1.0, 3.0, 41, 81)
    specs = [MarketSpec(kern, a0, (a0 + 1.0, -1.0), payoff) for a0 in (0.0, 1.0)]
    T = grid.ts(1.0)[:, None]
    drag = supply_drag(kern, 0.5, T)
    assert np.max(np.abs(drag + gamma * 0.5 * (1.0 - T))) <= 1e-15
    base, supplied = (solve_equilibrium(spec, beliefs, grid) for spec in specs)
    assert np.max(np.abs(supplied.v - base.v - drag)) <= 1e-13
    shift_i = drag - lam * 0.5 * log_deriv(kern, T)
    assert np.max(np.abs(supplied.vi - base.vi - shift_i)) <= 1e-13
    base, supplied = (tc_correction(spec, beliefs, grid, refine=2) for spec in specs)
    assert np.max(np.abs(supplied.v - base.v)) <= 1e-12 * np.max(np.abs(base.v))


class TestSolveRiskNeutral:
    def test_constant_payoff(self):
        spec, beliefs = _const_spec([0.1, -0.1], [0.3, 0.4], (1.0, -1.0), 0.0,
                                    lambda x: np.full_like(np.asarray(x, float), 1.5))
        agg, per = _risk_neutral(spec, beliefs, Grid1D(-2.0, 2.0, 61, 41))
        assert np.max(np.abs(agg.v - 1.5)) <= 1e-12
        for surf in per:
            assert np.max(np.abs(surf.v - 1.5)) <= 1e-12

    def test_single_agent_is_expectation(self):
        payoff = lambda x: np.tanh(np.asarray(x, dtype=float))
        spec, beliefs = _const_spec([0.08], [0.3], (1.0,), 1.0, payoff, T=1.0)
        agg, per = _risk_neutral(spec, beliefs, Grid1D(-3.0, 3.5, 301, 101))
        batch = simulate(beliefs, 0, 0.2, 0.0, 1.0, 64, 40000, seed=21)
        fT = payoff(batch.paths[:, -1])
        se = fT.std(ddof=1) / np.sqrt(batch.npaths)
        assert abs(agg.value(0.0, 0.2) - fT.mean()) <= 3 * se

    def test_calibrated_point(self, fx_spec, fx_beliefs, fx_grid, fx_model):
        agg, per = _risk_neutral(fx_spec, fx_beliefs, fx_grid)
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
        # the configs/ou_fx.yaml grid: its linspace spacings differ from its step by an ulp
        grid = Grid1D(0.53, 1.97, 241, 601)
        return grid, solve_equilibrium(fx_spec, fx_beliefs, grid)

    def test_slope_uses_the_grid_step(self, fx_sol):
        _, sol = fx_sol
        h = _step(sol.xs)
        assert sol.xs[1] - sol.xs[0] != h
        assert np.array_equal(sol.dv_dx, np.gradient(sol.v, h, axis=-1, edge_order=2))

    def test_time_slope_and_curvature(self, fx_sol):
        grid, sol = fx_sol
        # numpy would weight these unevenly spaced levels non-uniformly
        assert np.ptp(np.diff(sol.ts)) > 0
        dv_dt, dv_dxx = _time_slope_and_curvature(sol)
        assert np.array_equal(dv_dt, np.gradient(sol.v, sol.ts[-1] / (grid.nt - 1), axis=0))
        for i, a in enumerate(sol.beliefs.agents):
            b = np.stack([a.drift(t, sol.xs) for t in sol.ts])
            s2 = np.stack([a.vol(t, sol.xs) for t in sol.ts]) ** 2
            assert np.array_equal(sol.drift_grids[i], dv_dt + b * sol.dv_dx + 0.5 * s2 * dv_dxx)

    def test_grids_are_computed_on_first_read(self, fx_spec, fx_beliefs, small_grid):
        surf = _frictionless(fx_spec, fx_beliefs, small_grid)
        assert "dv_dx" not in vars(surf)
        slope = surf.dv_dx
        assert vars(surf)["dv_dx"] is slope
        sol = solve_equilibrium(fx_spec, fx_beliefs, small_grid)
        assert not {"dv_dx", "drift_grids"} & set(vars(sol))
        sol.agent_drift(0, 1.0, 1.2)
        assert {"dv_dx", "drift_grids"} <= set(vars(sol))


def _time_slope_and_curvature(sol):
    """d_t v and d_xx v on the nodes, the curvature's edge columns copying their neighbours."""
    dv_dt = np.gradient(sol.v, _step(sol.ts), axis=0)
    h = _step(sol.xs)
    g = np.empty_like(sol.v)
    g[:, 1:-1] = (sol.v[:, 2:] - 2 * sol.v[:, 1:-1] + sol.v[:, :-2]) / h**2
    g[:, 0] = g[:, 1]
    g[:, -1] = g[:, -2]
    return dv_dt, g


def _dense_operator(xs, drift, vol, t):
    """L = 0.5 sigma^2 d_xx + b d_x with the zero-curvature edge rows, dense."""
    nx = len(xs)
    h = (xs[-1] - xs[0]) / (nx - 1)
    b, s2 = drift(t, xs), vol(t, xs) ** 2
    L = np.zeros((nx, nx))
    for j in range(1, nx - 1):
        L[j, j - 1] = 0.5 * s2[j] / h**2 - b[j] / (2 * h)
        L[j, j] = -s2[j] / h**2
        L[j, j + 1] = 0.5 * s2[j] / h**2 + b[j] / (2 * h)
    L[0, :2] = [-b[0] / h, b[0] / h]
    L[-1, -2:] = [-b[-1] / h, b[-1] / h]
    return L


def _belief_set(coeffs):
    """A belief set of one agent per (drift, vol) pair of callables."""
    return BeliefSet(agents=tuple(AgentBelief(b, s) for b, s in coeffs))


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
        got = _march(ts, xs, _belief_set(coeffs), terminal, coupling=c,
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
            _march(ts, xs, _belief_set(coeffs), np.zeros((n, 5)),
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
    h = (xs[-1] - xs[0]) / (nx - 1)

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
        got = _march(ts, xs, _belief_set(coeffs), terminal, coupling=c, source=mid_source)
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
            _march(ts, xs, _belief_set(coeffs), np.zeros((2, len(xs))))


def test_interp2_stacked_surfaces_match_one_at_a_time():
    ts, xs = np.linspace(0.0, 3.0, 7), np.linspace(0.5, 2.0, 9)
    F = np.random.default_rng(1).random((3, len(ts), len(xs)))
    tq, xq = np.linspace(0.1, 2.9, 5)[:, None], np.linspace(0.4, 2.1, 9)
    got = _interp2(ts, xs, F, tq, xq)
    assert np.array_equal(got, np.stack([_interp2(ts, xs, f, tq, xq) for f in F]))


@pytest.mark.parametrize("tq, at", [(-np.inf, 0), (-0.3, 0), (1.4, -1), (np.inf, -1)])
def test_interp2_clamps_time(tq, at):
    # a time outside [0, T], infinite included, reads the edge level, a scalar
    # time and an array of it alike, with x beyond both edges extrapolated;
    # an infinite x reads the extrapolation's limit: +-inf where the edge cell
    # slopes (the left edge), its value where it is flat (the right edge), as
    # does a finite state whose weight overflows
    ts, xs = np.linspace(0.0, 1.0, 11), np.linspace(0.5, 2.0, 9)
    F = np.random.default_rng(2).random((len(ts), len(xs)))
    F[:, -1] = F[:, -2]
    xq = np.array([0.2, 0.5, 1.37, 2.6])
    j = np.array([0, 0, 4, 7])
    w = (xq - xs[j]) / (xs[1] - xs[0])
    want = (1 - w) * F[at, j] + w * F[at, j + 1]
    xq = np.concatenate([xq, [-np.inf, np.inf, 1.7e308]])
    want = np.concatenate([want, [np.copysign(np.inf, F[at, 0] - F[at, 1]), F[at, -1], F[at, -1]]])
    with np.errstate(all="raise"):
        got = _interp2(ts, xs, F, tq, xq)
        assert np.array_equal(_interp2(ts, xs, F, np.full(len(xq), tq), xq), got)
    assert got == pytest.approx(want, rel=1e-12)


def test_interp2_nan_time_gives_nan():
    ts, xs = np.linspace(0.0, 1.0, 11), np.linspace(0.5, 2.0, 9)
    F = np.ones((len(ts), len(xs)))
    with np.errstate(all="raise"):
        assert np.isnan(_interp2(ts, xs, F, np.nan, 1.0))
        assert np.isnan(_interp2(ts, xs, F, np.array([0.5, np.nan]), 1.0)).tolist() == [False, True]


def test_interp2_nan_and_huge_states_are_read_without_a_cast_warning():
    # the state is clamped to a cell before it is cast to an index, as the
    # time is: a NaN gives NaN and +-1e300 extrapolates the edge cell; at
    # +-1.7e308 the weight overflows, and the read is the edge value plus the
    # distance times the edge cell's slope per unit x, -inf where that overflows
    ts, xs = np.linspace(0.0, 1.0, 11), np.linspace(0.5, 2.0, 9)
    F = np.random.default_rng(3).random((len(ts), len(xs)))
    xq = np.array([np.nan, 1e300, -1e300, 1.37, 1.7e308, -1.7e308])
    with np.errstate(all="raise"):
        got = _interp2(ts, xs, F, 0.5, xq)
    h, f, x = float(xs[1] - xs[0]), F[5].tolist(), xs.tolist()   # t = 0.5 is level 5
    assert np.isnan(got[0])
    assert got[1] == pytest.approx(f[-2] + (1e300 - x[-2]) / h * (f[-1] - f[-2]), rel=1e-12)
    assert got[2] == pytest.approx(f[0] + (-1e300 - x[0]) / h * (f[1] - f[0]), rel=1e-12)
    assert got[3] == _interp2(ts, xs, F, 0.5, 1.37)
    assert got[4] == f[-1] + (1.7e308 - x[-1]) * ((f[-1] - f[-2]) / h) == -np.inf
    assert got[5] == pytest.approx(f[0] + (-1.7e308 - x[0]) * ((f[1] - f[0]) / h), rel=1e-12)
    assert np.isfinite(got[5])
    # from a thousandth of a step to 1e300 beyond either edge: the edge value
    # plus the distance times the edge cell's slope per unit x
    d = h * np.logspace(-3, 0, 7)
    d = np.concatenate([d, np.logspace(1, 300, 14)])
    with np.errstate(all="raise"):
        right, left = _interp2(ts, xs, F, 0.5, x[-1] + d), _interp2(ts, xs, F, 0.5, x[0] - d)
    assert right == pytest.approx(f[-1] + d * ((f[-1] - f[-2]) / h), rel=1e-12)
    assert left == pytest.approx(f[0] - d * ((f[1] - f[0]) / h), rel=1e-12)


def test_interp2_reads_a_huge_state_over_a_flat_edge_as_the_edge_value():
    # the edge cell of test_interp2_clamps_time's grid is flat on the right
    ts, xs = np.linspace(0.0, 1.0, 11), np.linspace(0.5, 2.0, 9)
    F = np.random.default_rng(2).random((len(ts), len(xs)))
    F[:, -1] = F[:, -2]
    with np.errstate(all="raise"):
        got = _interp2(ts, xs, F, 0.5, np.array([1e16, 1e20, 1e300]))
        edge = _interp2(ts, xs, F, 0.5, xs[-1])
    assert got.tolist() == [edge] * 3
    assert edge == pytest.approx(F[5, -1], rel=1e-15)


@pytest.mark.parametrize("tq, at", [(1.7e308, -1), (-1.7e308, 0)])
def test_interp2_reads_a_huge_time_as_the_edge_level(tq, at):
    # on the grid of test_interp2_clamps_time, without an overflow in the time
    # weight: the nodes read the edge level, and states beyond the x edges
    # read as at an infinite time
    ts, xs = np.linspace(0.0, 1.0, 11), np.linspace(0.5, 2.0, 9)
    F = np.random.default_rng(2).random((len(ts), len(xs)))
    beyond = np.array([0.2, 2.6])
    with np.errstate(all="raise"):
        assert np.array_equal(_interp2(ts, xs, F, tq, xs), F[at])
        assert np.array_equal(_interp2(ts, xs, F, tq, beyond),
                              _interp2(ts, xs, F, np.copysign(np.inf, tq), beyond))


def test_interp2_reads_inside_the_grid_by_the_bilinear_formula():
    ts, xs = np.linspace(0.0, 1.3, 12), np.linspace(-0.7, 2.0, 10)
    rng = np.random.default_rng(4)
    F = rng.normal(size=(3, len(ts), len(xs)))
    tq = np.concatenate([ts[[0, -1]], rng.uniform(ts[0], ts[-1], 38)])[:, None]
    xq = np.concatenate([xs[[0, -1]], rng.uniform(xs[0], xs[-1], 48)])
    dt, h = _step(ts), _step(xs)
    it = np.minimum(((tq - ts[0]) / dt).astype(int), len(ts) - 2)
    ix = np.minimum(((xq - xs[0]) / h).astype(int), len(xs) - 2)
    wt, wx = np.clip((tq - ts[it]) / dt, 0.0, 1.0), (xq - xs[ix]) / h
    want = (((1 - wx) * F[:, it, ix] + wx * F[:, it, ix + 1]) * (1 - wt)
            + ((1 - wx) * F[:, it + 1, ix] + wx * F[:, it + 1, ix + 1]) * wt)
    with np.errstate(all="raise"):
        assert np.array_equal(_interp2(ts, xs, F, tq, xq), want)


def _counted(beliefs):
    """The belief set with each drift and vol call counted, and the counts."""
    calls = {"drift": 0, "vol": 0}

    def count(kind, fn):
        def wrapped(t, x):
            calls[kind] += 1
            return fn(t, x)
        return wrapped
    agents = tuple(AgentBelief(count("drift", a.drift), count("vol", a.vol))
                   for a in beliefs.agents)
    return dataclasses.replace(beliefs, agents=agents), calls


def _per_point_drift(sol, i, t, x):
    """The reference: one belief call per point, each derivative grid interpolated on its own."""
    tb, xb = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(x, dtype=float))
    pts = list(zip(tb.ravel().tolist(), xb.ravel().tolist()))
    agent = sol.beliefs.agents[i]
    b = np.array([agent.drift(a, c) for a, c in pts]).reshape(tb.shape)
    s = np.array([agent.vol(a, c) for a, c in pts]).reshape(tb.shape)
    dv_dt, dv_dxx = _time_slope_and_curvature(sol)
    dv_dt, dv_dx, dv_dxx = (_interp2(sol.ts, sol.xs, g, tb, xb) for g in (dv_dt, sol.dv_dx, dv_dxx))
    return dv_dt + b * dv_dx + 0.5 * s * s * dv_dxx


@pytest.mark.parametrize("kind", ["ou", "constant"])
def test_agent_drift_calls_beliefs_once_per_time(kind, fx_spec, fx_beliefs, small_grid):
    # once per time level of the grid, on the first read; later reads call nothing
    base = fx_beliefs if kind == "ou" else constant_beliefs([0.02, -0.01], [0.1, 0.2])
    beliefs, calls = _counted(base)
    sol = solve_equilibrium(fx_spec, beliefs, small_grid)
    calls.update(drift=0, vol=0)
    sol.agent_drift(0, 1.0, 1.2)
    assert calls == {"drift": 2 * small_grid.nt, "vol": 2 * small_grid.nt}
    column = (sol.ts[77], np.linspace(0.4, 2.1, 50))  # a path column, past both edges
    mesh = np.meshgrid(np.linspace(0.0, 3.0, 3), np.linspace(0.8, 1.7, 4), indexing="ij")
    scale = np.max(np.abs(sol.drift_grids))
    for i in range(2):
        for t, x in (column, mesh):
            calls.update(drift=0, vol=0)
            got = sol.agent_drift(i, t, x)
            assert calls == {"drift": 0, "vol": 0}
            assert np.max(np.abs(got - _per_point_drift(sol, i, t, x))) <= 1e-12 * scale
        calls.update(drift=0, vol=0)
        assert np.isnan(sol.agent_drift(i, [1.0, np.nan], 1.2)).tolist() == [False, True]
        assert calls == {"drift": 0, "vol": 0}


def test_agent_drift_on_time_and_state_dependent_beliefs(fx_kernel, small_grid):
    # the product b_i d_x v is interpolated, not its factors: the two drifts
    # differ at second order in the grid steps: 8.1e-5 of max |mu| here, 2.0e-5
    # with both steps halved
    spec = MarketSpec(kernel=fx_kernel, supply_a0=0.0, allocations=(1.0, -1.0), payoff=curved)
    sol = solve_equilibrium(spec, drifting_beliefs(), small_grid)
    rng = np.random.default_rng(0)
    t = rng.uniform(0.0, HORIZON, 2000)
    x = rng.uniform(small_grid.x_min, small_grid.x_max, 2000)
    scale = np.max(np.abs(sol.drift_grids))
    for i in range(2):
        gap = np.max(np.abs(sol.agent_drift(i, t, x) - _per_point_drift(sol, i, t, x)))
        assert gap <= 2e-4 * scale


def _fresh_python(code: str) -> str:
    """stdout of ``code`` run in a new interpreter that imports this package."""
    src = str(Path(illiquid_eq.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env={**os.environ, "PYTHONPATH": path})
    return done.stdout.strip()


def test_importing_the_cli_leaves_scipy_unloaded():
    code = ("import sys, illiquid_eq.cli; "
            "print(sorted(m for m in ('scipy', 'scipy.linalg') if m in sys.modules))")
    assert _fresh_python(code) == "[]"


# pde's loader first, which must not import scipy, or scipy.linalg first
_LOAD_ORDERS = {
    "pde first": "from illiquid_eq.pde import _lapack; f = _lapack(); "
                 "print('scipy' in sys.modules); import scipy.linalg",
    "scipy first": "import scipy.linalg; from illiquid_eq.pde import _lapack; f = _lapack(); "
                   "print('scipy.linalg' in sys.modules)",
}


@pytest.mark.parametrize("order", list(_LOAD_ORDERS))
def test_lapack_routines_are_scipys(order):
    code = ("import sys; import numpy as np; " + _LOAD_ORDERS[order] + "; "
            "g = scipy.linalg.get_lapack_funcs(('gtsv', 'gbsv'), (np.empty(0),)); "
            "print(g[0] is f.dgtsv, g[1] is f.dgbsv)")
    loaded_scipy, same = _fresh_python(code).splitlines()
    assert loaded_scipy == ("False" if order == "pde first" else "True")
    assert same == "True True"


def test_missing_lapack_extension_names_the_file(monkeypatch):
    monkeypatch.delitem(sys.modules, "scipy.linalg._flapack", raising=False)
    monkeypatch.setattr(pde, "EXTENSION_SUFFIXES", [".missing.so"])
    with pytest.raises(ImportError, match=r"linalg[/\\]_flapack\.missing\.so"):
        pde._lapack.__wrapped__()
