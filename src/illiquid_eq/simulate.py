"""Path generation under any agent's measure and the Monte Carlo price oracle.

Randomness comes from the counter-based Philox generator keyed by
(seed, path index), so every path owns an independent stream: batches are
bit-reproducible for a fixed (seed, mesh, path count) regardless of
execution order or thread count.  Beliefs that carry an ``OuModel`` are
sampled with exact transition densities; anything else uses Euler-Maruyama.

Paths may leave the spatial domain of a grid price surface.  One rule,
``exit_fraction``, governs every consumer: up to ``MAX_EXIT_FRACTION`` of
the paths may exit, and more raise ``DomainExitError``.  Those that exit
are read by the one rule of ``pde._interp2``, which follows from the
surface's zero-curvature boundary condition: a state beyond an edge reads
the edge value plus its distance times the edge cell's slope per unit x.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .kernel import CostKernel, ratio
from .model import BeliefSet
from .pde import _step

__all__ = ["SimulationBatch", "DomainExitError", "MAX_EXIT_FRACTION", "exit_fraction",
           "simulate", "feynman_kac_vi"]

MAX_EXIT_FRACTION = 0.01


class DomainExitError(ValueError):
    """Too many simulated paths left the price surface's spatial domain."""


def exit_fraction(paths: np.ndarray, x_bounds) -> float:
    """Fraction of paths (rows) that leave [lo, hi] at some mesh time.

    Raises DomainExitError when it exceeds MAX_EXIT_FRACTION.
    """
    lo, hi = x_bounds
    n_exit = int(np.count_nonzero((paths.min(axis=1) < lo) | (paths.max(axis=1) > hi)))
    frac = n_exit / paths.shape[0]
    if frac > MAX_EXIT_FRACTION:
        raise DomainExitError(
            f"path exits spatial grid: {n_exit} of {paths.shape[0]} paths leave "
            f"[{lo:.6g}, {hi:.6g}], more than the {MAX_EXIT_FRACTION:g} fraction allowed")
    return frac


@dataclass
class SimulationBatch:
    """Simulated state paths under one measure."""

    measure: str                  # "agent-<i>" or "average"
    agent_index: Optional[int]
    ts: np.ndarray                # (nt+1,)
    paths: np.ndarray             # (npaths, nt+1)
    # always None; kept only because perfbench/child.py passes it to dataclasses.replace
    increments: Optional[np.ndarray] = None

    def __post_init__(self):
        self.ts.setflags(write=False)
        self.paths.setflags(write=False)

    @property
    def npaths(self) -> int:
        return self.paths.shape[0]

    @property
    def dt(self) -> float:
        return float(_step(self.ts))


def _path_normals(seed: int, npaths: int, nsteps: int) -> np.ndarray:
    """(npaths, nsteps) standard normals; row p comes from Philox key (seed, p)."""
    out = np.empty((npaths, nsteps))
    for p in range(npaths):
        bitgen = np.random.Philox(key=np.array([seed, p], dtype=np.uint64))
        out[p] = np.random.Generator(bitgen).standard_normal(nsteps)
    return out


def _measure_coeffs(beliefs: BeliefSet, measure: Union[int, str]):
    if measure == "average":
        return None, beliefs.drift_bar, lambda t, x: np.sqrt(beliefs.vol_sq_bar(t, x))
    i = int(measure)
    if not 0 <= i < beliefs.n_agents:
        raise ValueError(f"agent index {i} out of range")
    return i, beliefs.agents[i].drift, beliefs.agents[i].vol


def simulate(beliefs: BeliefSet, measure: Union[int, str], x0: float, t0: float,
             t_end: float, nt: int, npaths: int, seed: int) -> SimulationBatch:
    """Simulate ``npaths`` state paths on a uniform mesh from t0 to t_end.

    ``measure`` is an agent index or "average".  Exact Ornstein-Uhlenbeck
    transitions are used when the beliefs carry an ``OuModel``,
    Euler-Maruyama otherwise.
    """
    if nt < 2:
        raise ValueError("need at least 2 steps")
    if npaths < 1:
        raise ValueError("need at least 1 path")
    if not t_end > t0:
        raise ValueError("t_end must exceed t0")
    agent_index, drift, vol = _measure_coeffs(beliefs, measure)
    ts = np.linspace(t0, t_end, nt + 1)
    dt = _step(ts)
    Z = _path_normals(seed, npaths, nt)
    X = np.empty((npaths, nt + 1))
    X[:, 0] = x0

    m = beliefs.ou
    if m is not None:
        kap = m.kappa_bar if agent_index is None else float(m.kappas[agent_index])
        mean = float(m.mean_X)
        sig = float(m.sigma)
        e = np.exp(-kap * dt)
        sd = sig * np.sqrt((1.0 - e * e) / (2.0 * kap))
        for k in range(nt):
            X[:, k + 1] = mean + (X[:, k] - mean) * e + sd * Z[:, k]
    else:
        sq = np.sqrt(dt)
        for k in range(nt):
            t = ts[k]
            b = np.asarray(drift(t, X[:, k]), dtype=float)
            s = np.asarray(vol(t, X[:, k]), dtype=float)
            X[:, k + 1] = X[:, k] + b * dt + s * sq * Z[:, k]

    label = "average" if agent_index is None else f"agent-{agent_index}"
    return SimulationBatch(measure=label, agent_index=agent_index, ts=ts, paths=X)


def feynman_kac_vi(beliefs: BeliefSet, i: int, v_surface, kernel: CostKernel,
                   t: float, x: float, npaths: int, seed: int, nt: int = 400):
    """Monte Carlo estimate of agent i's value at (t, x) from the price surface.

    Estimates  E^i[f(X_T)]/G(t) - int_t^T (G'(u)/G(t)) E^i[v(u, X_u)] du
    by simulating under Q_i.  The u-quadrature is trapezoidal in the price
    with the kernel weight integrated exactly over each substep, so constant
    surfaces are reproduced exactly.  Paths leaving the surface domain
    follow ``exit_fraction``'s rule.

    Returns (estimate, standard_error).
    """
    T = kernel.horizon_T
    batch = simulate(beliefs, i, x, t, T, nt, npaths, seed)
    X = batch.paths
    ts = batch.ts

    exit_fraction(X, v_surface.x_bounds)
    vals = np.empty((npaths, len(ts)))
    for k in range(len(ts)):
        vals[:, k] = np.asarray(v_surface.value(ts[k], X[:, k]), dtype=float)

    # exact per-interval weight: int_{u_k}^{u_{k+1}} -G'(u)/G(t) du
    w = ratio(kernel, ts[:-1], t) - ratio(kernel, ts[1:], t)
    integral = 0.5 * ((vals[:, :-1] + vals[:, 1:]) * w[None, :]).sum(axis=1)

    terminal = np.asarray(v_surface.value(T, X[:, -1]), dtype=float)
    per_path = terminal / ratio(kernel, t, T) + integral
    est = float(per_path.mean())
    se = float(per_path.std(ddof=1) / np.sqrt(npaths)) if npaths > 1 else float("nan")
    return est, se
