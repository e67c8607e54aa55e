"""Shared fixtures: the calibrated two-agent FX example used throughout."""

import numpy as np
import pytest

from illiquid_eq.kernel import CostKernel
from illiquid_eq.model import AgentBelief, BeliefSet, MarketSpec
from illiquid_eq.ou import OuModel, ou_beliefs, solve_ab
from illiquid_eq.pde import Grid1D

# calibrated example: kappa1 = 3*kappa2, common level and volatility from
# the USD/EUR fit, gamma = 1e-8, lambda = 1e-7, three-year horizon
KAPPAS = (0.8625, 0.2875)
MEAN_X = 1.25
SIGMA = 0.128
HORIZON = 3.0
GAMMA = 1e-8
LAM = 1e-7


@pytest.fixture(scope="session")
def fx_model():
    return OuModel(kappas=KAPPAS, mean_X=MEAN_X, sigma=SIGMA, horizon_T=HORIZON)


@pytest.fixture(scope="session")
def fx_kernel():
    return CostKernel(gamma=GAMMA, lam=LAM, horizon_T=HORIZON)


@pytest.fixture(scope="session")
def fx_beliefs(fx_model):
    return ou_beliefs(fx_model)


@pytest.fixture(scope="session")
def fx_spec(fx_kernel):
    return MarketSpec(kernel=fx_kernel, supply_a0=0.0, allocations=(1.0, -1.0),
                      payoff=lambda x: np.asarray(x, dtype=float) + 0.0)


@pytest.fixture(scope="session")
def fx_ab(fx_model, fx_kernel):
    return solve_ab(fx_model, fx_kernel, n_steps=3000)


@pytest.fixture(scope="session")
def fx_grid():
    # mean +- 6 stationary standard deviations, as the solver defaults
    sd = SIGMA / np.sqrt(2.0 * 0.575)
    return Grid1D(MEAN_X - 6 * sd, MEAN_X + 6 * sd, 241, 601)


@pytest.fixture(scope="session")
def small_grid():
    sd = SIGMA / np.sqrt(2.0 * 0.575)
    return Grid1D(MEAN_X - 6 * sd, MEAN_X + 6 * sd, 121, 201)


def interior_mask(xs, half_width=3.0):
    sd = SIGMA / np.sqrt(2.0 * 0.575)
    return (xs >= MEAN_X - half_width * sd) & (xs <= MEAN_X + half_width * sd)


def curved(x):
    x = np.asarray(x, dtype=float)
    return x + 0.5 * (x - MEAN_X) ** 2


def drifting_beliefs():
    """Two agents whose coefficients vary in t and x; not OU."""
    def drift0(t, x):
        return 0.8 * (1.0 + 0.2 * np.sin(t)) * (MEAN_X - x) + 0.05 * np.sin(3.0 * x)

    def drift1(t, x):
        return 0.3 * (MEAN_X - x) + 0.02 * t * x

    def vol0(t, x):
        return SIGMA * (1.0 + 0.2 * (x - MEAN_X))

    def vol1(t, x):
        return SIGMA * (1.0 + 0.05 * t * np.cos(x))

    return BeliefSet(agents=(AgentBelief(drift0, vol0), AgentBelief(drift1, vol1)))
