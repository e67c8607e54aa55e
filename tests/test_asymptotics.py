"""Small-cost corrections: finite-difference surfaces against the closed forms."""

import numpy as np
import pytest

from illiquid_eq.asymptotics import hc_correction, tc_correction
from illiquid_eq.model import MarketSpec
from illiquid_eq.ou import (OuModel, hc_correction_closed, ou_beliefs,
                            tc_correction_closed)
from illiquid_eq.pde import Grid1D

from conftest import GAMMA, HORIZON, LAM, MEAN_X, SIGMA

MARKETS = {2: ((0.8625, 0.2875), (1.0, -1.0)),
           3: ((0.8625, 0.2875, 0.5), (1.0, -1.0, 0.0))}


def _market(n, kernel, a0=0.0):
    kappas, allocations = MARKETS[n]
    if a0:
        allocations = (a0,) + (0.0,) * (n - 1)
    model = OuModel(kappas=kappas, mean_X=MEAN_X, sigma=SIGMA, horizon_T=HORIZON)
    spec = MarketSpec(kernel=kernel, supply_a0=a0, allocations=allocations,
                      payoff=lambda x: np.asarray(x, dtype=float) + 0.0)
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
