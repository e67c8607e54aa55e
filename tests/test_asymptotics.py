"""Small-cost corrections: finite-difference surfaces against the closed forms."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from illiquid_eq import asymptotics
from illiquid_eq.asymptotics import SmoothnessError, hc_correction, tc_correction
from illiquid_eq.model import AgentBelief, BeliefSet, MarketSpec
from illiquid_eq.ou import (OuModel, hc_correction_closed, ou_beliefs,
                            tc_correction_closed)
from illiquid_eq.pde import (DegenerateVolatilityError, Grid1D, _interp2, _march, _setup,
                             _step, default_grid, solve_equilibrium)

from conftest import GAMMA, HORIZON, LAM, MEAN_X, SIGMA, curved, drifting_beliefs

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


def test_holding_correction_matches_closed_form_at_repeated_speeds(fx_kernel):
    # the closed form is continuous in the speeds; at a repeated pair the
    # march on the default grid agrees with it to the grid's error
    model = OuModel(kappas=(0.5, 0.5, 0.2), mean_X=MEAN_X, sigma=SIGMA, horizon_T=HORIZON)
    beliefs = ou_beliefs(model)
    spec = MarketSpec(kernel=fx_kernel, supply_a0=0.0, allocations=(1.0, -0.5, -0.5),
                      payoff=_identity)
    grid = default_grid(beliefs)
    hc = hc_correction(spec, beliefs, grid)
    T, X = np.meshgrid(hc.ts, hc.xs, indexing="ij")
    assert _rel_err(hc.v, hc_correction_closed(model, LAM, T, X)) <= 2e-5


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


def _averaged_march(beliefs, grid, horizon, source):
    """The trading-cost correction w: the averaged generator's march from w(T) = 0."""
    ts, xs = grid.ts(horizon), grid.xs
    return _march(ts, xs, beliefs, np.zeros((1, len(xs))), source=source)[0]


def _frictionless(spec, beliefs, fine):
    """(times, nodes, values) of the frictionless price on ``fine``: Lbar marched from the payoff."""
    fts, fxs, terminal = _setup(spec, beliefs, fine, 1)
    return fts, fxs, _march(fts, fxs, beliefs, terminal)[0]


def _smoothed(source):
    out = source.copy()
    out[:, 1:-1] = 0.25 * source[:, :-2] + 0.5 * source[:, 1:-1] + 0.25 * source[:, 2:]
    return out


def _whole_array_tc(spec, beliefs, grid, refine):
    """The trading-cost correction with its source built as whole arrays over all step midpoints.

    The source is sum_i (L^i - Lbar)^2 v0 / (N sqrt(gamma)), as ``tc_correction`` forms it.
    """
    gamma = spec.kernel.gamma
    n = beliefs.n_agents
    fts, fxs, v0 = _frictionless(spec, beliefs, grid.refined(refine))
    ts = grid.ts(spec.horizon_T)
    mids = 0.5 * (ts[:-1] + ts[1:])
    h = (fxs[-1] - fxs[0]) / (len(fxs) - 1)

    def coeff(fn):
        return np.stack([np.asarray(fn(t, fxs), dtype=float) for t in mids])

    v = _interp2(fts, fxs, v0, mids[:, None], fxs)
    vx = np.gradient(v, h, axis=1, edge_order=2)
    vxx = np.gradient(vx, h, axis=1, edge_order=2)
    bbar, s2bar = coeff(beliefs.drift_bar), coeff(beliefs.vol_sq_bar)
    source = np.zeros_like(v)
    for agent in beliefs.agents:
        db, ds2 = coeff(agent.drift) - bbar, 0.5 * (coeff(agent.vol) ** 2 - s2bar)
        phi = (db * vx + ds2 * vxx) / gamma
        px = np.gradient(phi, h, axis=1, edge_order=2)
        pxx = np.gradient(px, h, axis=1, edge_order=2)
        source += (np.sqrt(gamma) / n) * (db * px + ds2 * pxx)
    return _averaged_march(beliefs, grid, spec.horizon_T, _smoothed(source)[:, ::refine])


def _full_generator_tc(spec, beliefs, grid, refine):
    """The trading-cost correction from the full generators, the reference for the identity.

    The source is sqrt(gamma)/N sum_i (d_t + L^i) phi_i, phi_i = (L^i - Lbar) v0 / gamma:
    the full generators, time derivative included, on every level of the
    fine grid; the smoothed source is interpolated to the step midpoints.
    """
    gamma = spec.kernel.gamma
    n = beliefs.n_agents
    fts, fxs, v0 = _frictionless(spec, beliefs, grid.refined(refine))
    h, dt = (fxs[-1] - fxs[0]) / (len(fxs) - 1), (fts[-1] - fts[0]) / (len(fts) - 1)

    def coeff(fn):
        return np.stack([np.asarray(fn(t, fxs), dtype=float) for t in fts])

    vx = np.gradient(v0, h, axis=1, edge_order=2)
    vxx = np.gradient(vx, h, axis=1, edge_order=2)
    bbar, s2bar = coeff(beliefs.drift_bar), coeff(beliefs.vol_sq_bar)
    source = np.zeros_like(v0)
    for agent in beliefs.agents:
        b_i, s2_i = coeff(agent.drift), coeff(agent.vol) ** 2
        phi = ((b_i - bbar) * vx + 0.5 * (s2_i - s2bar) * vxx) / gamma
        pt = np.gradient(phi, dt, axis=0, edge_order=2)
        px = np.gradient(phi, h, axis=1, edge_order=2)
        pxx = np.gradient(px, h, axis=1, edge_order=2)
        source += (np.sqrt(gamma) / n) * (pt + b_i * px + 0.5 * s2_i * pxx)
    ts = grid.ts(spec.horizon_T)
    mids = 0.5 * (ts[:-1] + ts[1:])
    return _averaged_march(beliefs, grid, spec.horizon_T,
                           _interp2(fts, fxs, _smoothed(source), mids[:, None], grid.xs))


# nt = 66 has 65 step midpoints, which with the payoff level make two blocks
# of BLOCK_LEVELS = 64; nt = 9 has one block
@pytest.mark.parametrize("nt", [66, 9])
@pytest.mark.parametrize("refine", [2, 4])
@pytest.mark.parametrize("a0", [0.0, 1.0])
@pytest.mark.parametrize("n", [2, 3])
def test_blocked_chain_matches_whole_array(n, a0, refine, nt, fx_kernel):
    _, beliefs, spec = _market(n, fx_kernel, a0, payoff=curved)
    grid = Grid1D(0.53, 1.97, 21, nt)
    tc = tc_correction(spec, beliefs, grid, refine=refine)
    assert np.array_equal(tc.v, _whole_array_tc(spec, beliefs, grid, refine))


@pytest.mark.parametrize("refine", [2, 4])
def test_source_is_the_full_generator_chain(refine, fx_kernel):
    # the frictionless portfolios clear, so d_t and Lbar drop out of the
    # averaged source: dropping them changes the correction by roundoff only
    _, _, spec = _market(2, fx_kernel, payoff=curved)
    beliefs = drifting_beliefs()
    grid = Grid1D(0.53, 1.97, 121, 301)
    tc = tc_correction(spec, beliefs, grid, refine=refine)
    full = _full_generator_tc(spec, beliefs, grid, refine)
    assert np.max(np.abs(full)) > 0
    assert np.max(np.abs(tc.v - full)) <= 1e-9 * np.max(np.abs(full))


def test_chain_holds_few_fine_grid_arrays(fx_kernel):
    # 801 fine levels: the whole-array chain held about 17 fine-grid arrays at once
    _, beliefs, spec = _market(2, fx_kernel, payoff=curved)
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


@pytest.mark.parametrize("eps, rough", [(0.0, False), (1e-6, False), (1e-3, True), (1.0, True)])
def test_period_two_payoff_ripple_is_smoothness_error(eps, rough, fx_kernel):
    # central differences cancel (-1)^j inside and the filter leaves the edge
    # columns alone, so the ripple shows only at the edges of the source
    grid = Grid1D(0.53, 1.97, 21, 201)
    fine = grid.refined(4)

    def payoff(x):
        j = np.rint((np.asarray(x, dtype=float) - fine.x_min) / _step(fine.xs))
        return _identity(x) + eps * (-1.0) ** j

    _, beliefs, spec = _market(2, fx_kernel, payoff=payoff)
    if rough:
        with pytest.raises(SmoothnessError, match="grid-scale oscillation"):
            tc_correction(spec, beliefs, grid)
    else:
        tc_correction(spec, beliefs, grid)


def test_nearly_constant_payoff_is_judged(fx_kernel):
    # only a payoff constant on the grid skips the roughness rule: a period-2
    # ripple of 1e-9 on a constant is grid-scale oscillation all the same
    grid = Grid1D(0.53, 1.97, 21, 201)
    fine = grid.refined(4)

    def payoff(x):
        j = np.rint((np.asarray(x, dtype=float) - fine.x_min) / _step(fine.xs))
        return 7.0 + 1e-9 * (-1.0) ** j

    _, beliefs, spec = _market(2, fx_kernel, payoff=payoff)
    with pytest.raises(SmoothnessError, match="grid-scale oscillation"):
        tc_correction(spec, beliefs, grid)


@pytest.mark.parametrize("amplitude, rough", [(0.15, False), (1.0, True)])
def test_roughness_in_one_block_is_judged_against_global_scale(amplitude, rough, fx_kernel,
                                                                monkeypatch):
    # agent 1's drift ripples on fine levels 96..100, at the step midpoints
    # 48 and 49, inside the first block of midpoints 0..63.  At amplitude 0.15
    # the ripple exceeds half of that block's own largest smoothed value but
    # not half of the largest over the whole grid, which sits at the horizon,
    # so the rule passes; at 1.0 it dominates both.
    grid = Grid1D(0.53, 1.97, 21, 201)
    fine = grid.refined(2)
    t0, t1 = fine.ts(HORIZON)[[96, 100]]
    _, ou, spec = _market(2, fx_kernel)
    drift = ou.agents[0].drift

    def rippled(t, x):
        return drift(t, x) + amplitude * (t0 <= t <= t1) * _ripple(fine, x)

    beliefs = BeliefSet(agents=(AgentBelief(rippled, ou.agents[0].vol), ou.agents[1]))
    for levels in (asymptotics.BLOCK_LEVELS, 1):
        monkeypatch.setattr(asymptotics, "BLOCK_LEVELS", levels)
        if rough:
            with pytest.raises(SmoothnessError, match="grid-scale oscillation"):
                tc_correction(spec, beliefs, grid, refine=2)
        else:
            tc = tc_correction(spec, beliefs, grid, refine=2)
            assert np.array_equal(tc.v, _whole_array_tc(spec, beliefs, grid, 2))


def test_averaged_march_refuses_a_vanishing_agent_vol(fx_kernel):
    # agent 1's vol vanishes at one grid time, where the agents' mean sigma^2
    # stays positive; Lbar is built from the agents' coefficients, so its
    # march refuses the level as the coupled march does
    grid = Grid1D(0.53, 1.97, 21, 66)
    t_bad = grid.ts(HORIZON)[40]
    _, ou, spec = _market(2, fx_kernel)
    drift, vol = ou.agents[1].drift, ou.agents[1].vol

    def vanishing(t, x):
        return vol(t, x) * (abs(t - t_bad) > 1e-9)

    beliefs = BeliefSet(agents=(ou.agents[0], AgentBelief(drift, vanishing)))
    assert np.all(beliefs.vol_sq_bar(t_bad, grid.xs) > 0)
    for solve in (tc_correction, hc_correction, solve_equilibrium):
        with pytest.raises(DegenerateVolatilityError, match="at t=1.84615$"):
            solve(spec, beliefs, grid)


def _counted(beliefs):
    """The belief set with the calls of each agent's drift and vol counted, and the counts."""
    calls = {}

    def count(key, fn):
        calls[key] = 0

        def wrapped(t, x):
            calls[key] += 1
            return fn(t, x)
        return wrapped
    agents = tuple(AgentBelief(count((i, "drift"), a.drift), count((i, "vol"), a.vol))
                   for i, a in enumerate(beliefs.agents))
    return dataclasses.replace(beliefs, agents=agents), calls


def test_corrections_call_each_belief_once_per_time(fx_kernel):
    _, ou, spec = _market(3, fx_kernel, payoff=curved)
    beliefs, calls = _counted(ou)
    grid = Grid1D(0.53, 1.97, 21, 66)
    fine = grid.refined(2)
    tc_correction(spec, beliefs, grid, refine=2)
    # the frictionless march on the fine levels, the source at the step
    # midpoints and T, and the correction's march on the coarse levels
    assert set(calls.values()) == {fine.nt + 2 * grid.nt} == {263}
    calls.update(dict.fromkeys(calls, 0))
    hc_correction(spec, beliefs, grid)
    # the risk-neutral march and the correction's march
    assert set(calls.values()) == {2 * grid.nt} == {132}
