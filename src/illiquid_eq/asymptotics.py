"""Leading-order small-cost price corrections for general coefficients.

Both corrections are built from auxiliary inhomogeneous parabolic solves,
independent of any closed form.  The small-trading-cost correction divides
by sqrt(trading cost) and needs a fourth-order derivative chain of the
frictionless price, which is manufactured on a refined grid by repeated
central differencing with a single 3-point smoothing pass.  The time
derivative takes the uniform grid's step, (fts[-1] - fts[0]) / (nt - 1), so
it reads only a level's neighbours, and the chain runs over blocks of
BLOCK_LEVELS fine time levels, each with a one-level halo: besides the
frictionless price only the smoothed source is held as a whole fine-grid
array, and the result is bit for bit that of the whole-array chain.  The
small-holding-cost correction uses only the risk-neutral value surfaces.
"""

from __future__ import annotations

import numpy as np

from .model import BeliefSet, MarketSpec
from .pde import (BLOCK_LEVELS, Grid1D, GridSurface, _coeff_grid, _interp2, _march, _midpoints,
                  solve_frictionless, solve_risk_neutral)

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


def _halo(lo: int, hi: int, nt: int) -> tuple:
    """Levels h0..h1-1 that the time derivative of levels lo..hi-1 reads."""
    return max(0, min(lo - 1, nt - 3)), min(nt, max(hi + 1, 3))


def _expansion_source(spec: MarketSpec, beliefs: BeliefSet, fts, fxs, v0) -> np.ndarray:
    """Smoothed source of the trading-cost correction on the fine grid.

    Built BLOCK_LEVELS time levels at a time, each block with the halo its
    time derivative needs, so only the frictionless price v0 and the result
    are whole fine-grid arrays.  The smoothness rule is global: the largest
    roughness over all blocks is judged against the largest smoothed interior
    value.  Roughness is what the filter removes inside and, at the unfiltered
    edge columns, the distance from the linear extrapolation of their two
    smoothed inner neighbours, so a period-2 ripple cannot hide at the edges.
    """
    gamma = spec.kernel.gamma
    n = beliefs.n_agents
    nt = len(fts)
    h = fxs[1] - fxs[0]
    dt = (fts[-1] - fts[0]) / (nt - 1)
    smoothed = np.empty_like(v0)
    scale = rough = 0.0
    for lo in range(0, nt, BLOCK_LEVELS):
        hi = min(lo + BLOCK_LEVELS, nt)
        h0, h1 = _halo(lo, hi, nt)
        ts = fts[h0:h1]
        own = slice(lo - h0, hi - h0)
        vx = np.gradient(v0[h0:h1], h, axis=1, edge_order=2)
        vxx = np.gradient(vx, h, axis=1, edge_order=2)
        bs = [_coeff_grid(agent.drift, ts, fxs) for agent in beliefs.agents]
        s2s = [_coeff_grid(agent.vol, ts, fxs) ** 2 for agent in beliefs.agents]
        # the averages as drift_bar and vol_sq_bar form them
        bbar, s2bar = sum(bs) / n, sum(s2s) / n
        source = np.zeros((hi - lo, len(fxs)))
        for b_i, s2_i in zip(bs, s2s):
            # L^i v0 via the frictionless equation: only coefficient differences survive
            li_v0 = (b_i - bbar) * vx + 0.5 * (s2_i - s2bar) * vxx \
                + gamma * spec.supply_a0 / n
            phi_hat = li_v0 / gamma
            pt = np.gradient(phi_hat, dt, axis=0, edge_order=2)[own]
            px = np.gradient(phi_hat[own], h, axis=1, edge_order=2)
            pxx = np.gradient(px, h, axis=1, edge_order=2)
            source += (np.sqrt(gamma) / n) * (pt + b_i[own] * px + 0.5 * s2_i[own] * pxx)
        block = _smooth_x(source)
        if not np.all(np.isfinite(block)):
            raise SmoothnessError(
                "non-finite derivative chain; payoff is too rough for the fourth-order "
                "expansion source - apply a smoothing filter to the payoff or refine the grid")
        edge = source[:, [0, -1]] - 2.0 * block[:, [1, -2]] + block[:, [2, -3]]
        scale = max(scale, float(np.max(np.abs(block[:, 1:-1]))))
        rough = max(rough, float(np.max(np.abs(source - block))), float(np.max(np.abs(edge))))
        smoothed[lo:hi] = block
    if scale > 0 and rough > 0.5 * scale:
        raise SmoothnessError(
            "grid-scale oscillation dominates the expansion source; payoff appears "
            "insufficiently smooth - apply a smoothing filter or refine the grid")
    return smoothed


def tc_correction(spec: MarketSpec, beliefs: BeliefSet, grid: Grid1D,
                  refine: int = 4) -> CorrectionSurface:
    """Price correction per sqrt(trading cost) around the frictionless limit.

    Solves the averaged-generator equation with source equal to the average
    of each agent's subjective drift of their frictionless portfolio
    feedback: each agent's full space-time generator applied to the
    feedback function.
    """
    fine = grid.refined(refine)
    fts, fxs = fine.ts(spec.horizon_T), fine.xs
    smoothed = _expansion_source(spec, beliefs, fts, fxs,
                                 solve_frictionless(spec, beliefs, fine).v)

    ts, xs = grid.ts(spec.horizon_T), grid.xs
    w = _march(ts, xs, [(beliefs.drift_bar, lambda t, x: np.sqrt(beliefs.vol_sq_bar(t, x)))],
               np.zeros((1, len(xs))),
               source=_interp2(fts, fxs, smoothed, _midpoints(ts)[:, None], xs))[0]
    return CorrectionSurface(ts=ts, xs=xs, v=w)


def hc_correction(spec: MarketSpec, beliefs: BeliefSet, grid: Grid1D) -> CorrectionSurface:
    """Price correction per unit holding cost around the risk-neutral limit.

    Solves  L^i w_i + ((T-t)/lam)(v0 - v0_i) = 0, w_i(T) = 0,  for all
    agents in one march, with the risk-neutral surfaces from the
    finite-difference solver, then averages and subtracts (T-t) a0 / N.
    """
    lam = spec.kernel.lam
    n = beliefs.n_agents
    v0, vis = solve_risk_neutral(spec, beliefs, grid)
    ts, xs = v0.ts, v0.xs
    T = spec.horizon_T
    mids = _midpoints(ts)
    # every surface at every step midpoint, (N + 1, nt - 1, nx)
    at_mids = _interp2(ts, xs, np.stack([v0.v] + [vi.v for vi in vis]), mids[:, None], xs)
    source = ((T - mids) / lam)[:, None, None] * (at_mids[0] - at_mids[1:]).transpose(1, 0, 2)
    w = _march(ts, xs, [(b.drift, b.vol) for b in beliefs.agents], np.zeros((n, len(xs))),
               source=source)
    v_star = w.mean(axis=0) - np.outer(T - ts, np.ones_like(xs)) * spec.supply_a0 / n
    return CorrectionSurface(ts=ts, xs=xs, v=v_star)
