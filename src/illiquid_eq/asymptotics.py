"""Leading-order small-cost price corrections for general coefficients.

Both corrections are built from auxiliary inhomogeneous parabolic solves,
independent of any closed form.  The small-trading-cost correction divides
by sqrt(trading cost) and needs a fourth-order derivative chain of the
frictionless price, which is manufactured on a refined grid by repeated
central differencing with a single 3-point smoothing pass.  The
small-holding-cost correction uses only the risk-neutral value surfaces
themselves.
"""

from __future__ import annotations

import numpy as np

from .model import BeliefSet, MarketSpec
from .pde import (Grid1D, GridSurface, _dv_dx, _interp2, _march, solve_frictionless,
                  solve_risk_neutral)

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


def _coeff_grid(fn, ts, xs) -> np.ndarray:
    return np.stack([np.asarray(fn(t, xs), dtype=float) for t in ts])


def tc_correction(spec: MarketSpec, beliefs: BeliefSet, grid: Grid1D,
                  refine: int = 4) -> CorrectionSurface:
    """Price correction per sqrt(trading cost) around the frictionless limit.

    Solves the averaged-generator equation with source equal to the average
    of each agent's subjective drift of their frictionless portfolio
    feedback: each agent's full space-time generator applied to the
    feedback function.
    """
    gamma = spec.kernel.gamma
    n = beliefs.n_agents
    fine = grid.refined(refine)
    v0 = solve_frictionless(spec, beliefs, fine)
    fts, fxs = v0.ts, v0.xs
    h = fxs[1] - fxs[0]

    vx = np.gradient(v0.v, h, axis=1, edge_order=2)
    vxx = np.gradient(vx, h, axis=1, edge_order=2)

    bbar = _coeff_grid(beliefs.drift_bar, fts, fxs)
    s2bar = _coeff_grid(beliefs.vol_sq_bar, fts, fxs)
    source = np.zeros_like(v0.v)
    for i in range(n):
        b_i = _coeff_grid(beliefs.agents[i].drift, fts, fxs)
        s2_i = _coeff_grid(beliefs.agents[i].vol, fts, fxs) ** 2
        # L^i v0 via the frictionless equation: only coefficient differences survive
        li_v0 = (b_i - bbar) * vx + 0.5 * (s2_i - s2bar) * vxx \
            + gamma * spec.supply_a0 / n
        phi_hat = li_v0 / gamma
        pt = np.gradient(phi_hat, fts, axis=0, edge_order=2)
        px = np.gradient(phi_hat, h, axis=1, edge_order=2)
        pxx = np.gradient(px, h, axis=1, edge_order=2)
        source += (np.sqrt(gamma) / n) * (pt + b_i * px + 0.5 * s2_i * pxx)

    smoothed = _smooth_x(source)
    if not np.all(np.isfinite(smoothed)):
        raise SmoothnessError(
            "non-finite derivative chain; payoff is too rough for the fourth-order "
            "expansion source - apply a smoothing filter to the payoff or refine the grid")
    scale = float(np.max(np.abs(smoothed)))
    rough = float(np.max(np.abs(source - smoothed)))
    if scale > 0 and rough > 0.5 * scale:
        raise SmoothnessError(
            "grid-scale oscillation dominates the expansion source; payoff appears "
            "insufficiently smooth - apply a smoothing filter or refine the grid")

    ts, xs = grid.ts(spec.horizon_T), grid.xs
    w = _march(ts, xs, [(beliefs.drift_bar, lambda t, x: np.sqrt(beliefs.vol_sq_bar(t, x)))],
               np.zeros((1, len(xs))),
               source=lambda t: _interp2(fts, fxs, smoothed, np.full_like(xs, t), xs))[0]
    return CorrectionSurface(ts=ts, xs=xs, v=w, dv_dx=_dv_dx(w, grid.h))


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

    def source(t):
        tq = np.full_like(xs, t)
        v0_t = _interp2(ts, xs, v0.v, tq, xs)
        return np.stack([(T - t) / lam * (v0_t - _interp2(ts, xs, vi.v, tq, xs)) for vi in vis])

    w = _march(ts, xs, [(b.drift, b.vol) for b in beliefs.agents], np.zeros((n, len(xs))),
               source=source)
    v_star = w.mean(axis=0) - np.outer(T - ts, np.ones_like(xs)) * spec.supply_a0 / n
    return CorrectionSurface(ts=ts, xs=xs, v=v_star, dv_dx=_dv_dx(v_star, grid.h))
