"""Equilibrium trading strategies and verification of their optimality.

The optimal rate solves the random ODE
dphi_i/dt = (G'/G)(phi_i - a0/N) + (v_i - mean_j v_j)/lam along each state
path, which is (G'/G) phi_i + (v_i - v)/lam rewritten with the identity
v = mean_j v_j + (lam G'/(N G)) a0, so only per-agent prices enter.
Positions are its forward Euler integral: the initial allocation plus a
running sum of rate * dt.  The objective is evaluated in drift form
(int phi * L^i v dt), which drops a zero-mean martingale term and sharply
reduces Monte Carlo variance.  First-order optimality is certified against
a finite family of smooth deterministic test directions.  Both costs are
positive (``CostKernel`` rejects anything else), so the rate ODE, its
1/lam forcing and the objective are defined for every market.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .kernel import CostKernel, log_deriv
from .model import MarketSpec
from .simulate import SimulationBatch, exit_fraction

__all__ = [
    "StrategyBatch",
    "ObjectiveEstimate",
    "GateauxResult",
    "integrate_strategies",
    "clearing_residual",
    "objective",
    "gateaux_residual",
    "bump_directions",
]

# Gaussian bumps per test direction, and test directions of the Gateaux residual
BUMPS_PER_DIRECTION, GATEAUX_DIRECTIONS = 6, 20


@dataclass
class StrategyBatch:
    """Strategies for a whole path batch; agent-major arrays."""

    ts: np.ndarray
    state: np.ndarray          # (npaths, nt+1)
    positions: list            # N arrays of shape (npaths, nt+1)
    rates: list
    spec: MarketSpec
    rate_scale: float = 1.0
    exit_frac: float = 0.0     # fraction of paths that left the surface's domain

    @property
    def n_agents(self) -> int:
        return len(self.positions)

    @property
    def npaths(self) -> int:
        return self.state.shape[0]


def _forcing_rows(surface, spec: MarketSpec, ts, X, c):
    """Per agent, the rate ODE's forcing (v_i - mean_j v_j)/lam - (G'/G) a0/N.

    Row per path, column per time index; the mean is taken over the same
    per-agent values, so its roundoff is not amplified by 1/lam.
    """
    n = spec.n_agents
    lam = spec.kernel.lam
    share = spec.supply_a0 / n
    forcing = [np.empty_like(X) for _ in range(n)]
    for k in range(len(ts)):
        vals = [np.asarray(surface.agent_value(i, ts[k], X[:, k]), dtype=float)
                for i in range(n)]
        mean = sum(vals) / n
        for i in range(n):
            forcing[i][:, k] = (vals[i] - mean) / lam - c[k] * share
    return forcing


def _euler(allocation: float, forcing: np.ndarray, c: np.ndarray, dt: float,
           rate_scale: float):
    """Forward Euler on dphi/dt = rate_scale * (c phi + forcing).

    The forcing rows are overwritten with the rates.  Positions are the
    allocation plus a running sum of rate * dt from zero, summed in the
    order of ``np.cumsum``.  Returns (positions, rates).
    """
    rate = forcing
    phi = np.empty_like(rate)
    traded = np.zeros(rate.shape[0])
    last = rate.shape[1] - 1
    for k in range(last + 1):
        phi[:, k] = allocation + traded
        rate[:, k] = rate_scale * (c[k] * phi[:, k] + rate[:, k])
        if k < last:
            traded += rate[:, k] * dt
    return phi, rate


def integrate_strategies(surface, spec: MarketSpec, batch: SimulationBatch,
                         rate_scale: float = 1.0) -> StrategyBatch:
    """Forward Euler on the rate ODE along every path of the batch.

    The rate is rate_scale * [(G'/G)(phi_i - a0/N) + (v_i - mean_j v_j)/lam]
    with a0 the spec's supply; only the per-agent prices are read from the
    surface (bilinear for grid surfaces, exact affine evaluation for ODE
    solutions).  Positions are allocation + cumsum(rate * dt), so they sum
    to the supply up to roundoff whenever the allocations do.
    ``rate_scale`` != 1 deliberately misscales the rate, for
    optimality-detection tests.  Paths leaving the surface's spatial domain
    follow ``simulate.exit_fraction``: up to ``MAX_EXIT_FRACTION`` of them
    are integrated on the surface's linear extension and their fraction is
    recorded as ``exit_frac``; more raise ``DomainExitError``.
    """
    X = batch.paths
    ts = batch.ts
    exit_frac = exit_fraction(X, surface.x_bounds)
    c = log_deriv(spec.kernel, ts)
    forcing = _forcing_rows(surface, spec, ts, X, c)
    positions, rates = [], []
    for i, f in enumerate(forcing):
        phi, rate = _euler(spec.allocations[i], f, c, batch.dt, rate_scale)
        positions.append(phi)
        rates.append(rate)
    return StrategyBatch(ts=ts, state=X, positions=positions, rates=rates,
                         spec=spec, rate_scale=rate_scale, exit_frac=exit_frac)


def clearing_residual(strategies: StrategyBatch) -> float:
    """max over mesh and paths of |sum_i phi_i - a0|, a0 the market's supply."""
    total = sum(strategies.positions)
    return float(np.max(np.abs(total - strategies.spec.supply_a0)))


@dataclass
class ObjectiveEstimate:
    mean: float
    se: float
    per_path: np.ndarray


def _trapz_weights(n: int, dt: float) -> np.ndarray:
    w = np.full(n, dt)
    w[0] = w[-1] = 0.5 * dt
    return w


def _agent_drift_rows(surface, i, ts, X):
    mu = np.empty_like(X)
    for k in range(len(ts)):
        mu[:, k] = np.asarray(surface.agent_drift(i, ts[k], X[:, k]), dtype=float)
    return mu


def _require_supply(surface, spec: MarketSpec) -> None:
    """Reject a surface solved for another supply than the market's."""
    a0 = getattr(surface, "supply_a0", None)
    if a0 is not None and a0 != spec.supply_a0:
        raise ValueError(f"supply mismatch: the surface was solved for a0 = {a0:g}, "
                         f"the market has a0 = {spec.supply_a0:g}")


def objective(i: int, batch: SimulationBatch, strategies: StrategyBatch, surface,
              positions: Optional[np.ndarray] = None,
              rates: Optional[np.ndarray] = None) -> ObjectiveEstimate:
    """Monte Carlo estimate of agent i's penalized expected returns.

    Uses the drift form  int (phi mu_i - gamma/2 phi^2 - lam/2 rate^2) dt
    with trapezoidal quadrature on the batch mesh.  The batch must be
    simulated under agent i's measure.  ``positions``/``rates`` override the
    stored strategy (for evaluating perturbations on the same paths).
    """
    if batch.agent_index != i:
        raise ValueError(
            f"measure mismatch: batch is under '{batch.measure}', objective needs agent {i}")
    spec = strategies.spec
    _require_supply(surface, spec)
    kern = spec.kernel
    phi = strategies.positions[i] if positions is None else positions
    rate = strategies.rates[i] if rates is None else rates
    mu = _agent_drift_rows(surface, i, batch.ts, batch.paths)
    integrand = phi * mu - 0.5 * kern.gamma * phi**2 - 0.5 * kern.lam * rate**2
    w = _trapz_weights(len(batch.ts), batch.dt)
    per_path = integrand @ w
    return ObjectiveEstimate(mean=float(per_path.mean()),
                             se=float(per_path.std(ddof=1) / np.sqrt(len(per_path))),
                             per_path=per_path)


def bump_directions(ts: np.ndarray, n_directions: int, seed: int) -> np.ndarray:
    """Smooth random rate perturbations, unit norm in the mesh L^2.

    Each direction sums BUMPS_PER_DIRECTION Gaussian bumps with frozen random
    centers and amplitudes; returned array has shape (n_directions, len(ts)).
    The associated position perturbation (cumulative integral) vanishes at t=0.
    """
    rng = np.random.default_rng(seed)
    T = ts[-1] - ts[0]
    dt = ts[1] - ts[0]
    width = T / 10.0
    out = np.empty((n_directions, len(ts)))
    for d in range(n_directions):
        centers = ts[0] + rng.uniform(0.0, T, BUMPS_PER_DIRECTION)
        amps = rng.standard_normal(BUMPS_PER_DIRECTION)
        vd = np.zeros_like(ts)
        for ck, ak in zip(centers, amps):
            vd += ak * np.exp(-((ts - ck) ** 2) / (2.0 * width**2))
        out[d] = vd / np.sqrt(np.sum(vd**2) * dt)
    return out


def cumulative_positions(ts: np.ndarray, rate_rows: np.ndarray) -> np.ndarray:
    """Euler cumulative integral of a rate perturbation, zero at t = 0."""
    dt = ts[1] - ts[0]
    theta = np.concatenate([np.zeros(rate_rows.shape[:-1] + (1,)),
                            np.cumsum(rate_rows[..., :-1], axis=-1) * dt], axis=-1)
    return theta


@dataclass
class GateauxResult:
    max_residual: float
    per_direction: np.ndarray


def _foc_rows(mu: np.ndarray, phi: np.ndarray, rate: np.ndarray, dt: float,
              kern: CostKernel) -> np.ndarray:
    """g_k = int_{t_k}^T (mu_i - gamma phi) ds - lam rate_k, row per path.

    The integral is the trapezoid rule on the mesh, as a reversed cumsum.
    ``mu`` is overwritten.
    """
    mu -= kern.gamma * phi
    g = np.cumsum((mu * _trapz_weights(mu.shape[1], dt))[:, ::-1], axis=1)[:, ::-1]
    mu *= 0.5 * dt
    g -= mu
    g[:, -1] = 0.0
    g -= kern.lam * rate
    return g


def gateaux_residual(i: int, batch: SimulationBatch, strategies: StrategyBatch,
                     surface, seed: int = 2024,
                     directions: Optional[np.ndarray] = None) -> GateauxResult:
    """First-order optimality residual in units of its Monte Carlo and mesh error.

    Estimates  E^i[ int_0^T ( int_t^T (mu_i - gamma phi) ds - lam rate_t )
    dtheta_t dt ]  for each test direction.  The estimate carries the O(dt)
    bias of the Euler strategy, which step doubling measures: agent i's
    Euler recursion is rerun on every other node of the same paths, with the
    forcing rate/rate_scale - (G'/G) phi read from the stored rows, and
    disc = max over directions of |mean(estimate_2dt - estimate_dt)|.
    Returns per direction |mean| / sqrt(SE^2 + disc^2) and their maximum;
    values at or below ~3 are consistent with optimality at this Monte Carlo
    and mesh resolution, also when the strategies are deterministic and the
    SE vanishes.  The batch needs an even number of time steps.
    ``directions`` overrides the default family of GATEAUX_DIRECTIONS random
    bump directions with explicit rate perturbations (rows over the mesh).
    """
    if batch.agent_index != i:
        raise ValueError(
            f"measure mismatch: batch is under '{batch.measure}', residual needs agent {i}")
    ts = batch.ts
    nt = len(ts) - 1
    if nt % 2:
        raise ValueError(f"the Gateaux residual estimates its mesh bias on every other node "
                         f"and needs an even number of time steps, got {nt}")
    if strategies.rate_scale == 0.0:
        raise ValueError("the Gateaux residual needs a nonzero rate_scale")
    spec = strategies.spec
    _require_supply(surface, spec)
    kern = spec.kernel
    dt = batch.dt
    phi = strategies.positions[i]
    rate = strategies.rates[i]
    dirs = bump_directions(ts, GATEAUX_DIRECTIONS, seed) if directions is None else directions
    mu = _agent_drift_rows(surface, i, ts, batch.paths)
    mu_half = mu[:, ::2].copy()
    est = _foc_rows(mu, phi, rate, dt, kern) @ (dirs * _trapz_weights(nt + 1, dt)).T
    del mu
    c = log_deriv(kern, ts[::2])
    forcing = rate[:, ::2] / strategies.rate_scale - c * phi[:, ::2]
    phi_half, rate_half = _euler(spec.allocations[i], forcing, c, 2 * dt,
                                 strategies.rate_scale)
    est_half = _foc_rows(mu_half, phi_half, rate_half, 2 * dt, kern) \
        @ (dirs[:, ::2] * _trapz_weights(nt // 2 + 1, 2 * dt)).T
    mean = est.mean(axis=0)
    se = est.std(axis=0, ddof=1) / np.sqrt(est.shape[0])
    disc = float(np.max(np.abs((est_half - est).mean(axis=0))))
    residuals = np.empty(dirs.shape[0])
    for d in range(dirs.shape[0]):
        err = np.hypot(se[d], disc)
        residuals[d] = abs(mean[d]) / err if err > 0.0 else (0.0 if mean[d] == 0.0 else np.inf)
    return GateauxResult(max_residual=float(residuals.max()), per_direction=residuals)
