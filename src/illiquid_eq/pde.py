"""Theta-scheme finite-difference solver for the weakly coupled price system.

One spatial dimension, uniform grids.  Time stepping is Crank-Nicolson with
a Rannacher startup (two implicit-Euler steps).  The agents interact only
through the zeroth-order cross-agent mean, so with the unknowns ordered
node-major, agent-minor, each time level of all N equations is a single
banded linear system of bandwidth N, solved directly.  A march sets up
BLOCK_LEVELS time levels at a time with whole-array numpy: the operator
bands and the implicit matrices; its source comes in as one array over the
step midpoints.  The level loop is then only the explicit half, a finite
check of the right-hand side and one LAPACK call, gtsv or gbsv, loaded on
the first solve straight from scipy's extension module
scipy/linalg/_flapack: importing scipy.linalg would cost every process,
solving or not, about 0.3 s.  The domain is truncated with zero second
spatial derivative (linear extrapolation) at both edges, which is exact for
affine solutions.  Beliefs are evaluated on a grid in one place,
``_coefficients``, one call of each belief per time level; the march, a
surface's agent drift grids (computed on first read) and the trading-cost
source all read them from there.  Every value, agent value and agent drift
is one bilinear read of a node grid.  A surface's CSV table is formatted on
two CPUs, half its time levels each, and so is held in memory as two strings
(``util.write_csv``).
"""

from __future__ import annotations

import importlib.util
import os
import sys
from dataclasses import dataclass
from functools import cache, cached_property
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
from itertools import chain, repeat

import numpy as np

from .kernel import log_deriv, supply_drag
from .model import BeliefSet, MarketSpec
from .util import FLOAT_FORMAT, write_csv

__all__ = [
    "Grid1D",
    "GridSurface",
    "EquilibriumSolution",
    "DegenerateVolatilityError",
    "solve_equilibrium",
    "default_grid",
]

# implicit-Euler steps before Crank-Nicolson, damping the payoff's kinks
RANNACHER_STEPS = 2
# time levels whose coefficients a march sets up at once (step midpoints in the trading-cost chain)
BLOCK_LEVELS = 64
# default grid: nodes, time levels and half-width in stationary standard deviations
GRID_NX, GRID_NT, GRID_WIDTHS = 241, 601, 6.0


class DegenerateVolatilityError(ValueError):
    """A squared volatility is nonpositive somewhere on the grid."""


@dataclass(frozen=True)
class Grid1D:
    """Uniform rectangular grid: nx spatial nodes, nt time levels on [0, T]."""

    x_min: float
    x_max: float
    nx: int
    nt: int

    def __post_init__(self):
        if not (np.isfinite(self.x_min) and np.isfinite(self.x_max)):
            raise ValueError(f"grid bounds must be finite, got x_min={self.x_min}, "
                             f"x_max={self.x_max}")
        if not self.x_min < self.x_max:
            raise ValueError("x_min must be below x_max")
        if self.nx < 3:
            raise ValueError("need at least 3 spatial nodes")
        if self.nt < 2:
            raise ValueError("need at least 2 time levels")

    @property
    def xs(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.nx)

    def ts(self, horizon_T: float) -> np.ndarray:
        return np.linspace(0.0, horizon_T, self.nt)

    def refined(self, factor: int) -> "Grid1D":
        return Grid1D(self.x_min, self.x_max,
                      factor * (self.nx - 1) + 1, factor * (self.nt - 1) + 1)


def default_grid(beliefs: BeliefSet) -> Grid1D:
    """Mean +- GRID_WIDTHS stationary standard deviations for OU beliefs."""
    m = beliefs.ou
    if m is None:
        raise ValueError("default grid sizing requires OU beliefs; size the domain explicitly")
    half = GRID_WIDTHS * (m.sigma / np.sqrt(2.0 * m.kappa_bar))
    return Grid1D(m.mean_X - half, m.mean_X + half, GRID_NX, GRID_NT)


def _step(a) -> float:
    """The step of the uniform grid ``a``, which every difference quotient and cell on it takes."""
    return (a[-1] - a[0]) / (len(a) - 1)


def _interp2(ts, xs, F, tq, xq):
    """Bilinear interpolation of F, indexed (..., t, x), at (tq, xq) on a uniform grid.

    One rule for every read beyond the grid, from the zero-curvature edge
    condition.  A time beyond [t0, T], finite or infinite, reads exactly the
    edge level.  A state beyond an x edge, finite or infinite, reads the edge
    value plus its distance times the edge cell's time-interpolated slope per
    unit x: +-inf only where that sum overflows, the edge value where the
    slope is 0.  A NaN t or x gives NaN.  Needs at least 2 time levels.
    """
    tq = np.asarray(tq, dtype=float)
    xq = np.asarray(xq, dtype=float)
    dt, h = _step(ts), _step(xs)
    beyond = (np.fmin.reduce(xq, axis=None, initial=np.inf) < xs[0]
              or np.fmax.reduce(xq, axis=None, initial=-np.inf) > xs[-1])
    xe = np.clip(xq, xs[0], xs[-1]) if beyond else xq  # the nearest state on the grid; NaN stays
    # clamped before the cast; fmax takes a NaN coordinate to cell 0, where its weight stays NaN
    with np.errstate(over="ignore"):  # a time whose index overflows has the weight 0 or 1
        it = np.fmin(np.fmax((tq - ts[0]) / dt, 0.0), len(ts) - 2).astype(int)
        wt = np.clip((tq - ts[it]) / dt, 0.0, 1.0)
    ix = np.fmin(np.fmax((xe - xs[0]) / h, 0.0), len(xs) - 2).astype(int)
    wx = (xe - xs[ix]) / h
    # (1 - wt) ((1 - wx) f00 + wx f01) + wt ((1 - wx) f10 + wx f11), in place
    # where it can be: four corner arrays are never held at once
    v = (1 - wx) * F[..., it, ix]
    v += wx * F[..., it, ix + 1]
    v *= 1 - wt
    upper = (1 - wx) * F[..., it + 1, ix]
    upper += wx * F[..., it + 1, ix + 1]
    upper *= wt
    v += upper
    if beyond:
        slope = (1 - wt) * (F[..., it, ix + 1] - F[..., it, ix])
        slope += wt * (F[..., it + 1, ix + 1] - F[..., it + 1, ix])
        with np.errstate(over="ignore", invalid="ignore"):  # inf * 0 is masked out
            v += np.where(slope != 0, (xq - xe) * (slope / h), 0.0)
    return v


def _midpoints(ts) -> np.ndarray:
    """The midpoint of each time step, where a march reads its source."""
    return 0.5 * (ts[:-1] + ts[1:])


def _coefficients(beliefs: BeliefSet, ts, xs):
    """(b, sigma^2) of every agent at each time of ``ts`` on the nodes ``xs``, (len(ts), N, nx).

    One call of each belief per time.  Raises on a nonpositive or non-finite
    sigma^2, naming the latest such time, the first a backward march reaches.
    """
    b = np.array([[a.drift(t, xs) for a in beliefs.agents] for t in ts], dtype=float)
    s2 = np.array([[a.vol(t, xs) for a in beliefs.agents] for t in ts], dtype=float) ** 2
    sound = np.all((s2 > 0.0) & np.isfinite(s2), axis=(1, 2))
    if not sound.all():
        t = ts[np.flatnonzero(~sound)[-1]]
        raise DegenerateVolatilityError(f"nonpositive or non-finite sigma^2 at t={t:.6g}")
    return b, s2


def _agent_mean(a: np.ndarray) -> np.ndarray:
    """Mean of (T, N, nx) over its agents, (T, 1, nx): summed in order, then divided by N."""
    return a.sum(axis=1, keepdims=True) / a.shape[1]


def _bands(b, s2, h) -> np.ndarray:
    """(lower, diag, upper) of L = 0.5 s2 d_xx + b d_x, coefficients (..., nx), shape (3, ..., nx).

    Edge rows use the linear-extrapolation ghost node: d_xx -> 0, d_x one-sided.
    """
    L = np.zeros((3,) + b.shape)
    lo, di, up = L
    lo[..., 1:-1] = 0.5 * s2[..., 1:-1] / h**2 - b[..., 1:-1] / (2 * h)
    di[..., 1:-1] = -s2[..., 1:-1] / h**2
    up[..., 1:-1] = 0.5 * s2[..., 1:-1] / h**2 + b[..., 1:-1] / (2 * h)
    di[..., 0] = -b[..., 0] / h
    up[..., 0] = b[..., 0] / h
    di[..., -1] = b[..., -1] / h
    lo[..., -1] = -b[..., -1] / h
    return L


@cache
def _lapack():
    """scipy's LAPACK wrappers, loaded without running scipy's or scipy.linalg's __init__."""
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    scipy = importlib.util.find_spec("scipy")
    where = scipy.submodule_search_locations[0] if scipy else "scipy"
    path = os.path.join(where, "linalg", "_flapack" + EXTENSION_SUFFIXES[0])
    if not os.path.isfile(path):
        raise ImportError(f"scipy's LAPACK extension not found: {path}")
    loader = ExtensionFileLoader(name, path)
    module = importlib.util.module_from_spec(importlib.util.spec_from_loader(name, loader))
    loader.exec_module(module)
    return module


def _level_solver(n: int, nx: int):
    """(matrices, solve) of the implicit levels v_i - k (L_i v_i + c (v_i - vbar)) = rhs_i.

    ``matrices(lo, di, up, c, k)`` takes a block of B levels, bands (B, N, nx)
    and c, k (B,), and returns their matrices, checked finite; ``solve(a,
    rhs)`` takes one level's matrix and rhs (N, nx) and returns the new
    values, (N, nx).  Unknown j*N + i is agent i at node j.  Within a node
    the mean coupling is an N x N block with diagonal 1 - k (di_i + c) + k c/N
    and off-diagonal k c/N; L_i links nodes at offsets +-N.  Every N has one
    layout, gbsv's band storage: N leading rows of pivoting fill-in above the
    (2N + 1) diagonals, each level in Fortran order so that gbsv factors it in
    place.  ``solve`` calls gbsv, or for one equation the tridiagonal gtsv,
    several times faster, on the three diagonal rows of that storage; both
    routines come from ``_lapack()``.
    """
    lapack = _lapack()
    width = n * nx

    def matrices(lo, di, up, c, k):
        nb = len(k)
        k, c = k[:, None, None], c[:, None, None]
        store = np.zeros((nb, width, 3 * n + 1))
        ab = store.transpose(0, 2, 1)
        ab[:, n, n:] = (-k * up[:, :, :-1]).transpose(0, 2, 1).reshape(nb, -1)
        ab[:, 2 * n] = (1.0 - k * (di + c) + k * c / n).transpose(0, 2, 1).reshape(nb, -1)
        ab[:, 3 * n, :-n] = (-k * lo[:, :, 1:]).transpose(0, 2, 1).reshape(nb, -1)
        # within-node coupling, A[q -+ d, q] for agents q % N >= d and < N - d
        node = store.reshape(nb, nx, n, 3 * n + 1)
        for d in range(1, n):
            node[:, :, d:, 2 * n - d] = k * c / n
            node[:, :, :n - d, 2 * n + d] = k * c / n
        _require_finite(store)
        return ab

    def solve(a, rhs):
        b = rhs.T.ravel()
        if n == 1:
            *_, x, info = lapack.dgtsv(a[3, :-1], a[2], a[1, 1:], b, True, True, True, True)
        else:
            _, _, x, info = lapack.dgbsv(n, n, a, b, overwrite_ab=True, overwrite_b=True)
        return _solved(x, info).reshape(-1, n).T
    return matrices, solve


def _require_finite(a: np.ndarray) -> None:
    if not np.isfinite(a).all():
        raise ValueError("array must not contain infs or NaNs")


def _solved(x, info: int) -> np.ndarray:
    if info != 0:
        raise np.linalg.LinAlgError(f"singular matrix (LAPACK info {info})")
    return x


def _march(ts, xs, beliefs: BeliefSet, terminal, coupling=None, source=None) -> np.ndarray:
    """March d_t v_i + L_i v_i + c(t)(v_i - vbar) + g_i(t, x) = 0 backward.

    One equation per row of ``terminal``: with a row per agent, row i is
    agent i's generator L^i; with one row, the averaged generator Lbar,
    whose b and sigma^2 are the agents' means.  ``coupling`` is c on the
    time levels (zero if None); ``source`` holds g at each step's midpoint,
    (nt - 1, ...) with each entry broadcastable to (rows, nx).  The bands
    and implicit matrices of BLOCK_LEVELS levels are built at a time; each
    level is then the explicit half, from the previous level's bands, and
    one banded solve of all the equations together.  Returns the values,
    shape (rows, nt, nx).
    """
    n, nt, h = len(terminal), len(ts), _step(xs)
    c = np.zeros(nt) if coupling is None else coupling
    out = np.empty((n, nt, len(xs)))
    out[:, -1] = terminal
    v = np.array(terminal, dtype=float)
    matrices, solve = _level_solver(n, len(xs))
    dts = ts[1:] - ts[:-1]
    theta = np.where(np.arange(nt - 1) < nt - 1 - RANNACHER_STEPS, 0.5, 1.0)
    explicit, k = dts * (1.0 - theta), dts * theta

    def bands(levels):
        b, s2 = _coefficients(beliefs, levels, xs)
        if n == 1:
            b, s2 = _agent_mean(b), _agent_mean(s2)
        return _bands(b, s2, h)
    # bands of the last level solved: the explicit half of the next step
    lo1, di1, up1 = bands(ts[-1:])[:, 0]
    for hi in range(nt - 1, 0, -BLOCK_LEVELS):
        start = max(0, hi - BLOCK_LEVELS)
        block = bands(ts[start:hi])
        mats = matrices(*block, c[start:hi], k[start:hi])
        for m in range(hi - 1, start - 1, -1):
            expl = di1 * v
            expl[:, :-1] += up1[:, :-1] * v[:, 1:]
            expl[:, 1:] += lo1[:, 1:] * v[:, :-1]
            if coupling is not None:
                expl += c[m + 1] * (v - v.mean(axis=0))
            rhs = v + explicit[m] * expl
            if source is not None:
                rhs += dts[m] * source[m]
            _require_finite(rhs)
            v = solve(mats[m - start], rhs)
            out[:, m] = v
            lo1, di1, up1 = block[:, m - start]
        # one block's set-up at a time: the next is built after this is freed
        del mats
    return out


@dataclass
class GridSurface:
    """A scalar price surface on a uniform grid with bilinear evaluation."""

    ts: np.ndarray
    xs: np.ndarray
    v: np.ndarray        # (nt, nx)

    @cached_property
    def dv_dx(self) -> np.ndarray:
        """Spatial slope grid, (nt, nx)."""
        return np.gradient(self.v, _step(self.xs), axis=-1, edge_order=2)

    @property
    def x_bounds(self):
        return (float(self.xs[0]), float(self.xs[-1]))

    def value(self, t, x):
        return _interp2(self.ts, self.xs, self.v, t, x)

    def _write_csv(self, path, header, fields) -> None:
        """One row per (t, x) node: t, x, then each (nt, nx) field at the node.

        Each grid time and each x node is formatted once, as a text cell.  The
        first half of the time levels, the larger for an odd count, is
        formatted in a forked child while this process formats the second.
        """
        x_text = [FLOAT_FORMAT % x for x in self.xs.tolist()]
        ts = self.ts.tolist()

        def rows(levels):
            return chain.from_iterable(
                zip(repeat(FLOAT_FORMAT % ts[m], len(x_text)), x_text,
                    *(f[m].tolist() for f in fields))
                for m in levels)

        half = (len(ts) + 1) // 2
        write_csv(path, header, rows(range(half)), rows(range(half, len(ts))))


@dataclass
class EquilibriumSolution(GridSurface):
    """Discrete solution of the coupled equilibrium system.

    ``vi`` holds the per-agent value surfaces; ``v`` the aggregate price,
    which satisfies v = mean(vi) + (lam G'/(N G)) a0 at every node up to roundoff.
    """

    vi: np.ndarray       # (N, nt, nx)
    spec: MarketSpec
    beliefs: BeliefSet

    @property
    def n_agents(self) -> int:
        return self.vi.shape[0]

    @property
    def supply_a0(self):
        """The supply the surface was solved for."""
        return self.spec.supply_a0

    def agent_value(self, i: int, t, x):
        return _interp2(self.ts, self.xs, self.vi[i], t, x)

    @cached_property
    def drift_grids(self) -> np.ndarray:
        """mu_i = L^i v = d_t v + b_i d_x v + 0.5 sigma_i^2 d_xx v on the nodes, (N, nt, nx).

        The coefficients come from ``_coefficients`` on the surface's grid, as
        the march reads them; the curvature's edge columns copy their neighbours.
        """
        ts, xs, v = self.ts, self.xs, self.v
        dv_dt = np.gradient(v, _step(ts), axis=0)
        dv_dxx = np.empty_like(v)
        dv_dxx[:, 1:-1] = (v[:, 2:] - 2 * v[:, 1:-1] + v[:, :-2]) / _step(xs) ** 2
        dv_dxx[:, 0] = dv_dxx[:, 1]
        dv_dxx[:, -1] = dv_dxx[:, -2]
        b, s2 = _coefficients(self.beliefs, ts, xs)
        mu = dv_dt + b.swapaxes(0, 1) * self.dv_dx
        mu += 0.5 * s2.swapaxes(0, 1) * dv_dxx
        return mu

    def agent_drift(self, i: int, t, x):
        return _interp2(self.ts, self.xs, self.drift_grids[i], t, x)

    def to_csv(self, path) -> None:
        """One row per (t, x) node: t, x, v, v1..vN, dv_dx."""
        self._write_csv(path, ["t", "x", "v"] + [f"v{i+1}" for i in range(self.n_agents)]
                        + ["dv_dx"], [self.v, *self.vi, self.dv_dx])


def _setup(spec: MarketSpec, beliefs: BeliefSet, grid: Grid1D, rows: int):
    """(ts, xs, terminal) of a solve: the grid's times and nodes, ``rows`` copies of the payoff."""
    if beliefs.n_agents != spec.n_agents:
        raise ValueError("belief set and allocations disagree on the number of agents")
    xs = grid.xs
    with np.errstate(all="ignore"):   # an overflow is reported by the error below alone
        payoff = np.asarray(spec.payoff(xs), float)
    if not np.isfinite(payoff).all():
        raise ValueError("payoff is not finite at every grid node")
    return grid.ts(spec.horizon_T), xs, np.tile(payoff, (rows, 1))


def solve_equilibrium(spec: MarketSpec, beliefs: BeliefSet, grid: Grid1D) -> EquilibriumSolution:
    """Solve the coupled backward system for all agents plus the aggregate.

    d_t v_i + 0.5 sigma_i^2 d_xx v_i + b_i d_x v_i + (G'/G)(v_i - v) = 0 with
    v = mean(v_i) + (lam G'/(N G)) a0 and terminal payoff f: the zero-supply
    system, marched, plus the supply's closed-form shift (``kernel.supply_drag``).
    """
    n = beliefs.n_agents
    ts, xs, terminal = _setup(spec, beliefs, grid, n)
    kern, share = spec.kernel, spec.supply_a0 / n
    c_ts = log_deriv(kern, ts)
    vi = _march(ts, xs, beliefs, terminal, coupling=c_ts)
    drag = supply_drag(kern, share, ts)[:, None]
    v = vi.mean(axis=0) + drag
    vi += drag - kern.lam * share * c_ts[:, None]
    return EquilibriumSolution(ts=ts, xs=xs, v=v, vi=vi, spec=spec, beliefs=beliefs)
