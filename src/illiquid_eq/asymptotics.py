"""Leading-order small-cost price corrections for general coefficients.

Both corrections are built from auxiliary inhomogeneous parabolic solves,
independent of any closed form.  The small-trading-cost correction divides
by sqrt(trading cost).  Its source is sqrt(gamma)/N times the sum over
agents of the generator d_t + L^i applied to agent i's frictionless
portfolio phi_i = (L^i - Lbar) v0 / gamma.  These portfolios clear the
market, sum_i phi_i = 0, because sum_i (L^i - Lbar) = 0, so d_t and Lbar
cancel from the sum and the source is sum_i (L^i - Lbar)^2 v0 / (N sqrt(gamma)),
a fourth-order spatial chain of the frictionless price at each time level.
It is manufactured on a refined grid by repeated central differencing with
a single 3-point smoothing pass, only at the step midpoints where the march
reads it, BLOCK_LEVELS of them at a time.  The small-holding-cost
correction uses only the risk-neutral values.  Each correction marches its
own limit price with ``pde._march``, and the beliefs are read only through
``pde._coefficients``: Lbar's b and sigma^2 are the agents' means.
"""

from __future__ import annotations

import numpy as np

from .kernel import supply_drag
from .model import BeliefSet, MarketSpec
from .pde import (BLOCK_LEVELS, Grid1D, GridSurface, _agent_mean, _coefficients, _interp2,
                  _march, _midpoints, _setup, _step)

__all__ = ["CorrectionSurface", "SmoothnessError", "tc_correction", "hc_correction"]


class SmoothnessError(ValueError):
    """Payoff too rough for the derivative chain; smooth it or refine the grid."""


class CorrectionSurface(GridSurface):
    """First-order correction surface; vanishes identically at t = T."""

    def to_csv(self, path) -> None:
        self._write_csv(path, ["t", "x", "v_star", "dv_star_dx"], [self.v, self.dv_dx])


def _smooth_x(F: np.ndarray) -> np.ndarray:
    """One pass of the 3-point [1/4, 1/2, 1/4] filter along x."""
    out = F.copy()
    out[:, 1:-1] = 0.25 * F[:, :-2] + 0.5 * F[:, 1:-1] + 0.25 * F[:, 2:]
    return out


def _constant_payoff(v: np.ndarray) -> bool:
    """Whether the payoff, the last time level of surface ``v``, is constant on the grid.

    Then every correction source is exactly zero: the marched surfaces vary by
    roundoff alone, which the derivatives and 1/lam would amplify.
    """
    return not np.ptp(v[-1])


def _expansion_source(spec: MarketSpec, beliefs: BeliefSet, fts, fxs, v0, ts) -> np.ndarray:
    """Smoothed trading-cost source at the midpoints of the steps ``ts``, (len(ts) - 1, nx).

    ``v0`` is the frictionless price on the times ``fts`` and nodes ``fxs``
    of a refinement of the grid of ``ts``.  The chain runs on its nodes,
    BLOCK_LEVELS midpoints at a time, and the source is taken on the coarse
    nodes, so only v0 is a whole fine-grid array.  The smoothness rule is
    global: the largest roughness over all midpoints and the payoff level T,
    which is judged but feeds no source, is judged against the largest
    smoothed interior value.  Roughness is what the filter removes inside
    and, at the unfiltered edge columns, the distance from the linear
    extrapolation of their two smoothed inner neighbours, so a period-2
    ripple cannot hide at the edges.  A constant payoff gives the zero
    source without a roughness judgement.
    """
    refine = (len(fts) - 1) // (len(ts) - 1)
    levels = np.append(_midpoints(ts), ts[-1])
    out = np.zeros((len(levels), len(fxs[::refine])))
    if _constant_payoff(v0):
        return out[:-1]
    gamma = spec.kernel.gamma
    n = beliefs.n_agents
    h = _step(fxs)
    scale = rough = 0.0
    for lo in range(0, len(levels), BLOCK_LEVELS):
        t = levels[lo:lo + BLOCK_LEVELS]
        v = _interp2(fts, fxs, v0, t[:, None], fxs)
        vx = np.gradient(v, h, axis=1, edge_order=2)
        vxx = np.gradient(vx, h, axis=1, edge_order=2)
        b, s2 = _coefficients(beliefs, t, fxs)
        db, ds2 = b - _agent_mean(b), 0.5 * (s2 - _agent_mean(s2))
        source = np.zeros_like(v)
        for i in range(n):
            # agent i's portfolio phi_i = (L^i - Lbar) v0 / gamma, then (L^i - Lbar) phi_i
            phi = (db[:, i] * vx + ds2[:, i] * vxx) / gamma
            px = np.gradient(phi, h, axis=1, edge_order=2)
            pxx = np.gradient(px, h, axis=1, edge_order=2)
            source += (np.sqrt(gamma) / n) * (db[:, i] * px + ds2[:, i] * pxx)
        block = _smooth_x(source)
        if not np.all(np.isfinite(block)):
            raise SmoothnessError(
                "non-finite derivative chain; payoff is too rough for the fourth-order "
                "expansion source - apply a smoothing filter to the payoff or refine the grid")
        edge = source[:, [0, -1]] - 2.0 * block[:, [1, -2]] + block[:, [2, -3]]
        scale = max(scale, float(np.max(np.abs(block[:, 1:-1]))))
        rough = max(rough, float(np.max(np.abs(source - block))), float(np.max(np.abs(edge))))
        out[lo:lo + len(t)] = block[:, ::refine]
    if scale > 0 and rough > 0.5 * scale:
        raise SmoothnessError(
            "grid-scale oscillation dominates the expansion source; payoff appears "
            "insufficiently smooth - apply a smoothing filter or refine the grid")
    return out[:-1]


def tc_correction(spec: MarketSpec, beliefs: BeliefSet, grid: Grid1D,
                  refine: int = 4) -> CorrectionSurface:
    """Price correction per sqrt(trading cost) around the frictionless limit.

    Solves the averaged-generator equation with source equal to the average
    of each agent's subjective drift of their frictionless portfolio
    feedback, (d_t + L^i) phi_i times sqrt(gamma).  The portfolios clear, so
    the source is sum_i (L^i - Lbar)^2 v0 / (N sqrt(gamma)), a spatial chain of
    the frictionless price v0, Lbar's march from the payoff on the grid
    refined ``refine`` times in t and x.  The supply would shift v0 by a
    function of t alone, which the chain differentiates away.
    """
    ts, xs = grid.ts(spec.horizon_T), grid.xs
    fts, fxs, terminal = _setup(spec, beliefs, grid.refined(refine), 1)
    v0 = _march(fts, fxs, beliefs, terminal)[0]
    source = _expansion_source(spec, beliefs, fts, fxs, v0, ts)
    w = _march(ts, xs, beliefs, np.zeros((1, len(xs))), source=source)[0]
    return CorrectionSurface(ts=ts, xs=xs, v=w)


def hc_correction(spec: MarketSpec, beliefs: BeliefSet, grid: Grid1D) -> CorrectionSurface:
    """Price correction per unit holding cost around the risk-neutral limit.

    Marches the risk-neutral values, L^i v0_i = 0 with the payoff at T, and
    their mean v0; then solves  L^i w_i + ((T-t)/lam)(v0 - v0_i) = 0,
    w_i(T) = 0,  for all agents in one march, averages and adds
    ``kernel.supply_drag`` / gamma.
    """
    n = beliefs.n_agents
    ts, xs, terminal = _setup(spec, beliefs, grid, n)
    vi = _march(ts, xs, beliefs, terminal)
    v0 = vi.mean(axis=0)
    # each surface at every step midpoint, the mean of its two levels
    v0_mids, vi_mids = 0.5 * (v0[:-1] + v0[1:]), 0.5 * (vi[:, :-1] + vi[:, 1:])
    weight = (spec.horizon_T - _midpoints(ts)) / spec.kernel.lam
    source = weight[:, None, None] * (v0_mids - vi_mids).transpose(1, 0, 2)
    if _constant_payoff(v0):
        source[:] = 0.0
    w = _march(ts, xs, beliefs, np.zeros((n, len(xs))), source=source)
    drag = supply_drag(spec.kernel, spec.supply_a0 / n, ts) / spec.kernel.gamma
    return CorrectionSurface(ts=ts, xs=xs, v=w.mean(axis=0) + drag[:, None])
