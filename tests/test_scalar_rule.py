"""One scalar rule for every evaluator: numpy's own.

Scalar inputs, Python floats or 0-d arrays alike, give a numpy float scalar,
which is a ``float`` instance with ndim 0; array inputs give their broadcast
shape.
"""

import numpy as np
import pytest

from illiquid_eq import ou
from illiquid_eq.kernel import CostKernel, log_deriv, ratio
from illiquid_eq.model import MarketSpec, constant_beliefs
from illiquid_eq.pde import Grid1D, GridSurface, _march, _setup, solve_equilibrium

KERN = CostKernel(1e-8, 1e-7, 3.0)
MODEL = ou.OuModel(kappas=(0.8625, 0.2875), mean_X=1.25, sigma=0.128, horizon_T=3.0)
CONSTANT = constant_beliefs([0.02, -0.01], [0.1, 0.15])


@pytest.fixture(scope="module")
def surfaces():
    beliefs = ou.ou_beliefs(MODEL)
    spec = MarketSpec(kernel=KERN, supply_a0=1.0, allocations=(1.0, 0.0),
                      payoff=lambda x: np.asarray(x, dtype=float) + 0.0)
    grid = Grid1D(0.5, 2.0, 21, 11)
    ts, xs, terminal = _setup(spec, beliefs, grid, 1)
    return {"ab": ou.solve_ab(MODEL, KERN, n_steps=300, supply_a0=1.0),
            "eq": solve_equilibrium(spec, beliefs, grid),
            "grid": GridSurface(ts=ts, xs=xs, v=_march(ts, xs, beliefs, terminal)[0])}


# each evaluator as f(surfaces, t, x)
EVALUATORS = {
    "AbSolution.value": lambda s, t, x: s["ab"].value(t, x),
    "AbSolution.agent_value": lambda s, t, x: s["ab"].agent_value(1, t, x),
    "AbSolution.agent_drift": lambda s, t, x: s["ab"].agent_drift(1, t, x),
    "EquilibriumSolution.value": lambda s, t, x: s["eq"].value(t, x),
    "EquilibriumSolution.agent_value": lambda s, t, x: s["eq"].agent_value(1, t, x),
    "EquilibriumSolution.agent_drift": lambda s, t, x: s["eq"].agent_drift(1, t, x),
    "GridSurface.value": lambda s, t, x: s["grid"].value(t, x),
    "ou.frictionless_price": lambda s, t, x: ou.frictionless_price(MODEL, t, x),
    "ou.risk_neutral_price": lambda s, t, x: ou.risk_neutral_price(MODEL, t, x)[0],
    "ou.tc_correction_closed": lambda s, t, x: ou.tc_correction_closed(MODEL, 1e-8, t, x),
    "ou.hc_correction_closed": lambda s, t, x: ou.hc_correction_closed(MODEL, 1e-7, t, x),
    "constant_beliefs drift": lambda s, t, x: CONSTANT.agents[1].drift(t, x),
    "constant_beliefs vol": lambda s, t, x: CONSTANT.agents[1].vol(t, x),
    "kernel.log_deriv": lambda s, t, x: log_deriv(KERN, t),
    "kernel.ratio": lambda s, t, x: ratio(KERN, t, t),
}

# (3, 4) arrays, so an evaluator that reads only t or only x has that shape too
T_GRID, X_GRID = np.meshgrid(np.linspace(0.0, 3.0, 3), np.linspace(0.8, 1.7, 4), indexing="ij")
INPUTS = {"float": (1.3, 1.1), "0-d array": (np.array(1.3), np.array(1.1))}


@pytest.mark.parametrize("kind", list(INPUTS))
@pytest.mark.parametrize("name", list(EVALUATORS))
def test_scalar_inputs_give_a_float(surfaces, name, kind):
    out = EVALUATORS[name](surfaces, *INPUTS[kind])
    assert isinstance(out, np.float64) and np.ndim(out) == 0


@pytest.mark.parametrize("name", list(EVALUATORS))
def test_array_inputs_give_the_broadcast_shape(surfaces, name):
    out = EVALUATORS[name](surfaces, T_GRID, X_GRID)
    assert isinstance(out, np.ndarray) and out.shape == (3, 4)
    # and each entry equals the scalar evaluation at that point
    for k in ((0, 0), (1, 2), (2, 3)):
        assert out[k] == pytest.approx(EVALUATORS[name](surfaces, T_GRID[k], X_GRID[k]),
                                       rel=1e-12, abs=1e-300)
