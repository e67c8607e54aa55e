"""Small-cost corrections: finite-difference surfaces against the closed forms."""

import tracemalloc

import numpy as np
import pytest

from illiquid_eq import asymptotics
from illiquid_eq.asymptotics import SmoothnessError, hc_correction, tc_correction
from illiquid_eq.model import AgentBelief, BeliefSet, MarketSpec
from illiquid_eq.ou import (OuModel, hc_correction_closed, ou_beliefs,
                            tc_correction_closed)
from illiquid_eq.pde import Grid1D, _interp2, _march, solve_frictionless

from conftest import GAMMA, HORIZON, LAM, MEAN_X, SIGMA

MARKETS = {2: ((0.8625, 0.2875), (1.0, -1.0)),
           3: ((0.8625, 0.2875, 0.5), (1.0, -1.0, 0.0))}


def _identity(x):
    return np.asarray(x, dtype=float) + 0.0


def _market(n, kernel, a0=0.0, payoff=_identity):
    kappas, allocations = MARKETS[n]
    if a0:
        allocations = (a0,) + (0.0,) * (n - 1)
    model = OuModel(kappas=kappas, mean_X=MEAN_X, sigma=SIGMA, horizon_T=HORIZON)
    spec = MarketSpec(kernel=kernel, supply_a0=a0, allocations=allocations, payoff=payoff)
    return model, ou_beliefs(model), spec


def _rel_err(w, closed):
    """max |w - closed| / max |closed| over the middle half of the x nodes."""
    nx = closed.shape[1]
    mid = slice(nx // 4, nx - nx // 4)
    return np.max(np.abs(w[:, mid] - closed[:, mid])) / np.max(np.abs(closed[:, mid]))


@pytest.mark.parametrize("n", [2, 3])
def test_corrections_match_closed_forms(n, fx_kernel):
    model, beliefs, spec = _market(n, fx_kernel)
    grid = Grid1D(0.53, 1.97, 241, 601)
    T, X = np.meshgrid(grid.ts(HORIZON), grid.xs, indexing="ij")
    tc = tc_correction(spec, beliefs, grid)
    assert _rel_err(tc.v, tc_correction_closed(model, GAMMA, T, X)) <= 5e-5
    hc = hc_correction(spec, beliefs, grid)
    assert _rel_err(hc.v, hc_correction_closed(model, LAM, T, X)) <= 5e-5


@pytest.mark.parametrize("n", [2, 3])
def test_supply_shifts_holding_correction(n, fx_kernel):
    # the supply enters the holding-cost correction only as -(T - t) a0 / N
    grid = Grid1D(0.53, 1.97, 41, 61)
    _, beliefs, spec = _market(n, fx_kernel)
    _, _, supplied_spec = _market(n, fx_kernel, a0=1.0)
    base = hc_correction(spec, beliefs, grid)
    supplied = hc_correction(supplied_spec, beliefs, grid)
    expect = -(HORIZON - base.ts)[:, None] / n * np.ones_like(base.xs)
    assert np.max(np.abs(supplied.v - base.v - expect)) <= 1e-12 * np.max(np.abs(base.v))


def _curved(x):
    x = np.asarray(x, dtype=float)
    return x + 0.5 * (x - MEAN_X) ** 2


def _uniform_step(grid, refine):
    """The fine grid's time step, as ``_expansion_source`` takes it."""
    fts = grid.refined(refine).ts(HORIZON)
    return (fts[-1] - fts[0]) / (len(fts) - 1)


def _whole_array_tc(spec, beliefs, grid, refine, time_axis):
    """The trading-cost correction with its source built as whole fine-grid arrays.

    ``time_axis`` is what the time derivative's ``np.gradient`` is given:
    the uniform step, or the fine time levels themselves.
    """
    gamma = spec.kernel.gamma
    n = beliefs.n_agents
    v0 = solve_frictionless(spec, beliefs, grid.refined(refine))
    fts, fxs = v0.ts, v0.xs
    h = fxs[1] - fxs[0]

    def coeff(fn):
        return np.stack([np.asarray(fn(t, fxs), dtype=float) for t in fts])

    vx = np.gradient(v0.v, h, axis=1, edge_order=2)
    vxx = np.gradient(vx, h, axis=1, edge_order=2)
    bbar, s2bar = coeff(beliefs.drift_bar), coeff(beliefs.vol_sq_bar)
    source = np.zeros_like(v0.v)
    for agent in beliefs.agents:
        b_i, s2_i = coeff(agent.drift), coeff(agent.vol) ** 2
        li_v0 = (b_i - bbar) * vx + 0.5 * (s2_i - s2bar) * vxx + gamma * spec.supply_a0 / n
        phi_hat = li_v0 / gamma
        pt = np.gradient(phi_hat, time_axis, axis=0, edge_order=2)
        px = np.gradient(phi_hat, h, axis=1, edge_order=2)
        pxx = np.gradient(px, h, axis=1, edge_order=2)
        source += (np.sqrt(gamma) / n) * (pt + b_i * px + 0.5 * s2_i * pxx)
    smoothed = source.copy()
    smoothed[:, 1:-1] = 0.25 * source[:, :-2] + 0.5 * source[:, 1:-1] + 0.25 * source[:, 2:]
    ts, xs = grid.ts(spec.horizon_T), grid.xs
    return _march(ts, xs, [(beliefs.drift_bar, lambda t, x: np.sqrt(beliefs.vol_sq_bar(t, x)))],
                  np.zeros((1, len(xs))),
                  source=lambda t: _interp2(fts, fxs, smoothed, np.full_like(xs, t), xs))[0]


# nt = 66 refines to 131 or 261 fine levels, unevenly spaced in floating point,
# so numpy weights a gradient taken against the levels non-uniformly; nt = 9
# refines to evenly spaced levels, where both weightings are the uniform one
@pytest.mark.parametrize("nt", [66, 9])
@pytest.mark.parametrize("refine", [2, 4])
@pytest.mark.parametrize("a0", [0.0, 1.0])
@pytest.mark.parametrize("n", [2, 3])
def test_blocked_chain_matches_whole_array(n, a0, refine, nt, fx_kernel):
    _, beliefs, spec = _market(n, fx_kernel, a0, payoff=_curved)
    grid = Grid1D(0.53, 1.97, 21, nt)
    tc = tc_correction(spec, beliefs, grid, refine=refine)
    assert np.array_equal(tc.v, _whole_array_tc(spec, beliefs, grid, refine,
                                                _uniform_step(grid, refine)))
    # the chain weighted by the fine time levels differs only by roundoff
    levels = _whole_array_tc(spec, beliefs, grid, refine, grid.refined(refine).ts(HORIZON))
    assert np.max(np.abs(tc.v - levels)) <= 1e-12 * np.max(np.abs(levels))


def test_chain_holds_few_fine_grid_arrays(fx_kernel):
    # 801 fine levels: the whole-array chain held about 17 fine-grid arrays at once
    _, beliefs, spec = _market(2, fx_kernel, payoff=_curved)
    grid = Grid1D(0.53, 1.97, 21, 201)
    fine = grid.refined(4)
    tracemalloc.start()
    try:
        tc_correction(spec, beliefs, grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5 * fine.nx * fine.nt * 8


def _ripple(fine, x):
    """A period-4 ripple on the nodes of ``fine``, vanishing at both edges.

    Central differences keep it and the 3-point filter halves it.
    """
    u = (np.asarray(x, dtype=float) - fine.x_min) / (fine.x_max - fine.x_min)
    return np.sin(np.pi * u) ** 2 * np.cos(0.5 * np.pi * np.rint(u * (fine.nx - 1)))


def test_overflowing_chain_is_smoothness_error(fx_kernel):
    _, beliefs, spec = _market(2, fx_kernel,
                               payoff=lambda x: 1e300 * np.asarray(x, dtype=float) ** 2)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(SmoothnessError, match="non-finite derivative chain"):
        tc_correction(spec, beliefs, Grid1D(0.53, 1.97, 21, 66))


def test_grid_scale_oscillation_is_smoothness_error(fx_kernel):
    # the march damps the ripple within the last levels before the horizon
    grid = Grid1D(0.53, 1.97, 21, 201)
    fine = grid.refined(4)
    _, beliefs, spec = _market(2, fx_kernel, payoff=lambda x: _identity(x) + 0.1 * _ripple(fine, x))
    with pytest.raises(SmoothnessError, match="grid-scale oscillation"):
        tc_correction(spec, beliefs, grid)


@pytest.mark.parametrize("amplitude, rough", [(0.15, False), (1.0, True)])
def test_roughness_in_one_block_is_judged_against_global_scale(amplitude, rough, fx_kernel,
                                                                monkeypatch):
    # agent 1's drift ripples on fine levels 96..100, inside the block of levels
    # 64..127.  At amplitude 0.15 the ripple exceeds half of that block's own
    # largest smoothed value but not half of the largest over the whole grid,
    # which sits at the horizon, so the rule passes; at 1.0 it dominates both.
    grid = Grid1D(0.53, 1.97, 21, 201)
    fine = grid.refined(2)
    t0, t1 = fine.ts(HORIZON)[[96, 100]]
    _, ou, spec = _market(2, fx_kernel)
    drift = ou.agents[0].drift

    def rippled(t, x):
        return drift(t, x) + amplitude * (t0 <= t <= t1) * _ripple(fine, x)

    beliefs = BeliefSet(agents=(AgentBelief(rippled, ou.agents[0].vol), ou.agents[1]),
                        parabolicity_floor=ou.parabolicity_floor)
    for levels in (asymptotics.BLOCK_LEVELS, 1):
        monkeypatch.setattr(asymptotics, "BLOCK_LEVELS", levels)
        if rough:
            with pytest.raises(SmoothnessError, match="grid-scale oscillation"):
                tc_correction(spec, beliefs, grid, refine=2)
        else:
            tc = tc_correction(spec, beliefs, grid, refine=2)
            assert np.array_equal(tc.v, _whole_array_tc(spec, beliefs, grid, 2,
                                                        _uniform_step(grid, 2)))
