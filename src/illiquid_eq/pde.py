"""Theta-scheme finite-difference solver for the weakly coupled price system.

One spatial dimension, uniform grids.  Time stepping is Crank-Nicolson with
a Rannacher startup (two implicit-Euler steps).  The agents interact only
through the zeroth-order cross-agent mean, so with the unknowns ordered
node-major, agent-minor, each time level of all N equations is a single
banded linear system of bandwidth N, solved directly.  A march sets up
BLOCK_LEVELS time levels at a time with whole-array numpy: the operator
bands from one coefficient call per level, stacked, and the implicit
matrices; its source comes in as one array over the step midpoints.  The
level loop is then only the explicit half, a finite check of the right-hand
side and one LAPACK call.  The domain is truncated with zero second spatial
derivative (linear extrapolation) at both edges, which is exact for affine
solutions.  A surface stores what its solver computed; its derivative grids
are computed on first read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain, repeat

import numpy as np
from scipy.linalg import LinAlgError, get_lapack_funcs

from .kernel import log_deriv
from .model import BeliefSet, MarketSpec
from .util import FLOAT_FORMAT, write_csv

__all__ = [
    "Grid1D",
    "GridSurface",
    "EquilibriumSolution",
    "DegenerateVolatilityError",
    "solve_equilibrium",
    "solve_frictionless",
    "solve_risk_neutral",
    "default_grid",
]

# implicit-Euler steps before Crank-Nicolson, damping the payoff's kinks
RANNACHER_STEPS = 2
# time levels whose coefficients a march (and the trading-cost chain) sets up at once
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

    @property
    def h(self) -> float:
        return (self.x_max - self.x_min) / (self.nx - 1)

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


def _interp2(ts, xs, F, tq, xq):
    """Bilinear interpolation on a uniform grid, F indexed (..., t, x).

    Clamps in t; extrapolates linearly in x beyond the edges, consistent
    with the zero-curvature boundary condition.  Needs at least 2 time levels.
    """
    tq = np.asarray(tq, dtype=float)
    xq = np.asarray(xq, dtype=float)
    dt = ts[1] - ts[0]
    h = xs[1] - xs[0]
    it = np.clip(((tq - ts[0]) / dt).astype(int), 0, len(ts) - 2)
    wt = np.clip((tq - ts[it]) / dt, 0.0, 1.0)
    ix = np.clip(((xq - xs[0]) / h).astype(int), 0, len(xs) - 2)
    wx = (xq - xs[ix]) / h  # outside [0,1] beyond the edges -> linear extrapolation
    # (1 - wt) ((1 - wx) f00 + wx f01) + wt ((1 - wx) f10 + wx f11), in place
    # where it can be: four corner arrays are never held at once
    v = (1 - wx) * F[..., it, ix]
    v += wx * F[..., it, ix + 1]
    v *= 1 - wt
    upper = (1 - wx) * F[..., it + 1, ix]
    upper += wx * F[..., it + 1, ix + 1]
    upper *= wt
    v += upper
    return v


def _dv_dx(v: np.ndarray, h: float) -> np.ndarray:
    """Spatial slope: central interior, second-order one-sided at edges."""
    out = np.empty_like(v)
    # in place: no whole-surface temporary
    np.subtract(v[..., 2:], v[..., :-2], out=out[..., 1:-1])
    out[..., 1:-1] /= 2 * h
    out[..., 0] = (-3 * v[..., 0] + 4 * v[..., 1] - v[..., 2]) / (2 * h)
    out[..., -1] = (3 * v[..., -1] - 4 * v[..., -2] + v[..., -3]) / (2 * h)
    return out


def _coeff_grid(fn, ts, xs) -> np.ndarray:
    """fn(t, xs) at each time of ts, one call per time, shape (len(ts), nx)."""
    return np.stack([np.asarray(fn(t, xs), dtype=float) for t in ts])


def _midpoints(ts) -> np.ndarray:
    """The midpoint of each time step, where a march reads its source."""
    return 0.5 * (ts[:-1] + ts[1:])


def _bands(xs, coeffs, ts) -> np.ndarray:
    """(lower, diag, upper) of each L_i = 0.5 sigma_i^2 d_xx + b_i d_x, shape (3, len(ts), N, nx).

    One ``fn(t, xs)`` call per coefficient and time.  Boundary rows use the
    linear-extrapolation ghost node: d_xx -> 0 and d_x -> one-sided first
    difference.  Raises on degenerate vol, naming the latest such time, the
    first that the backward march reaches.
    """
    h = xs[1] - xs[0]
    L = np.zeros((3, len(ts), len(coeffs), len(xs)))
    lo, di, up = L
    sound = np.ones(len(ts), dtype=bool)
    for i, (drift_fn, vol_fn) in enumerate(coeffs):
        b = _coeff_grid(drift_fn, ts, xs)
        s2 = _coeff_grid(vol_fn, ts, xs) ** 2
        sound &= np.all((s2 > 0.0) & np.isfinite(s2), axis=1)
        lo[:, i, 1:-1] = 0.5 * s2[:, 1:-1] / h**2 - b[:, 1:-1] / (2 * h)
        di[:, i, 1:-1] = -s2[:, 1:-1] / h**2
        up[:, i, 1:-1] = 0.5 * s2[:, 1:-1] / h**2 + b[:, 1:-1] / (2 * h)
        di[:, i, 0] = -b[:, 0] / h
        up[:, i, 0] = b[:, 0] / h
        di[:, i, -1] = b[:, -1] / h
        lo[:, i, -1] = -b[:, -1] / h
    if not sound.all():
        t = ts[np.flatnonzero(~sound)[-1]]
        raise DegenerateVolatilityError(f"nonpositive or non-finite sigma^2 at t={t:.6g}")
    return L


def _level_solver(n: int, nx: int):
    """(matrices, solve) of the implicit levels v_i - k (L_i v_i + c (v_i - vbar)) = rhs_i.

    ``matrices(lo, di, up, c, k)`` takes a block of B levels, bands (B, N, nx)
    and c, k (B,), and returns their matrices, checked finite; ``solve(a,
    rhs)`` takes one level's matrix and rhs (N, nx) and returns the new
    values, (N, nx).  Unknown j*N + i is agent i at node j.  Within a node
    the mean coupling is an N x N block with diagonal 1 - k (di_i + c) + k c/N
    and off-diagonal k c/N; L_i links nodes at offsets +-N.  The matrices are
    stored for the LAPACK routine that ``solve_banded((N, N))`` picks, fetched
    once: gtsv for one equation (rows: sub-diagonal from index 1, diagonal,
    super-diagonal), otherwise gbsv, whose band storage has N leading rows of
    pivoting fill-in above the (2N + 1) diagonals, each level laid out in
    Fortran order so that gbsv factors it in place.
    """
    if n == 1:
        gtsv, = get_lapack_funcs(("gtsv",), (np.empty(0),))

        def matrices(lo, di, up, c, k):
            k, c = k[:, None], c[:, None]
            a = np.zeros((len(k), 3, nx))
            a[:, 0, 1:] = -k * lo[:, 0, 1:]
            a[:, 1] = 1.0 - k * (di[:, 0] + c) + k * c
            a[:, 2, :-1] = -k * up[:, 0, :-1]
            _require_finite(a)
            return a

        def solve(a, rhs):
            *_, x, info = gtsv(a[0, 1:], a[1], a[2, :-1], rhs[0], True, True, True, True)
            return _solved(x, info)[None, :]
        return matrices, solve

    gbsv, = get_lapack_funcs(("gbsv",), (np.empty(0),))
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
        _, _, x, info = gbsv(n, n, a, rhs.T.ravel(), overwrite_ab=True, overwrite_b=True)
        return _solved(x, info).reshape(-1, n).T
    return matrices, solve


def _require_finite(a: np.ndarray) -> None:
    if not np.isfinite(a).all():
        raise ValueError("array must not contain infs or NaNs")


def _solved(x, info: int) -> np.ndarray:
    if info != 0:
        raise LinAlgError(f"singular matrix (LAPACK info {info})")
    return x


def _march(ts, xs, coeffs, terminal, coupling=None, source=None) -> np.ndarray:
    """March d_t v_i + L_i v_i + c(t)(v_i - vbar) + g_i(t, x) = 0 backward.

    ``coeffs`` holds one (drift, vol) pair of callables per equation;
    ``coupling`` is c on the time levels (zero if None); ``source`` holds g
    at each step's midpoint, (nt - 1, ...) with each entry broadcastable to
    (N, nx).  The bands and implicit matrices of BLOCK_LEVELS levels are
    built at a time; each level is then the explicit half, from the previous
    level's bands, and one banded solve of all N equations together.
    Returns the values, shape (N, nt, nx).
    """
    n, nt = len(coeffs), len(ts)
    c = np.zeros(nt) if coupling is None else coupling
    out = np.empty((n, nt, len(xs)))
    out[:, -1] = terminal
    v = np.array(terminal, dtype=float)
    matrices, solve = _level_solver(n, len(xs))
    dts = ts[1:] - ts[:-1]
    theta = np.where(np.arange(nt - 1) < nt - 1 - RANNACHER_STEPS, 0.5, 1.0)
    explicit, k = dts * (1.0 - theta), dts * theta
    # bands of the last level solved: the explicit half of the next step
    lo1, di1, up1 = _bands(xs, coeffs, ts[-1:])[:, 0]
    for hi in range(nt - 1, 0, -BLOCK_LEVELS):
        start = max(0, hi - BLOCK_LEVELS)
        bands = _bands(xs, coeffs, ts[start:hi])
        mats = matrices(*bands, c[start:hi], k[start:hi])
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
            lo1, di1, up1 = bands[:, m - start]
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
        """Spatial slope grid, (nt, nx), with the grid's step (xs[-1] - xs[0]) / (nx - 1)."""
        return _dv_dx(self.v, (self.xs[-1] - self.xs[0]) / (len(self.xs) - 1))

    @property
    def x_bounds(self):
        return (float(self.xs[0]), float(self.xs[-1]))

    def value(self, t, x):
        return _interp2(self.ts, self.xs, self.v, t, x)

    def _write_csv(self, path, header, fields) -> None:
        """One row per (t, x) node: t, x, then each (nt, nx) field at the node.

        Each grid time and each x node is formatted once, as a text cell.
        """
        x_text = [FLOAT_FORMAT % x for x in self.xs.tolist()]
        write_csv(path, header, chain.from_iterable(
            zip(repeat(FLOAT_FORMAT % t, len(x_text)), x_text, *(f[m].tolist() for f in fields))
            for m, t in enumerate(self.ts.tolist())))


@dataclass
class EquilibriumSolution(GridSurface):
    """Discrete solution of the coupled equilibrium system.

    ``vi`` holds the per-agent value surfaces; ``v`` the aggregate price,
    which satisfies v = mean(vi) + (lam G'/(N G)) a0 exactly at every node.
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
    def dv_dt(self) -> np.ndarray:
        """Time slope grid of the price, (nt, nx)."""
        return np.gradient(self.v, self.ts, axis=0)

    @cached_property
    def dv_dxx(self) -> np.ndarray:
        """Curvature grid of the price, (nt, nx); edge columns copy their neighbours."""
        h = self.xs[1] - self.xs[0]
        g = np.empty_like(self.v)
        g[:, 1:-1] = (self.v[:, 2:] - 2 * self.v[:, 1:-1] + self.v[:, :-2]) / h**2
        g[:, 0] = g[:, 1]
        g[:, -1] = g[:, -2]
        return g

    def agent_drift(self, i: int, t, x):
        """mu_i = L^i v from the differenced grids."""
        dv_dt = _interp2(self.ts, self.xs, self.dv_dt, t, x)
        dv_dx = _interp2(self.ts, self.xs, self.dv_dx, t, x)
        dv_dxx = _interp2(self.ts, self.xs, self.dv_dxx, t, x)
        tb, xb = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(x, dtype=float))
        flat_t, flat_x = tb.ravel(), xb.ravel()
        bv = np.array([self.beliefs.drift(i, float(a), float(c)) for a, c in zip(flat_t, flat_x)])
        sv = np.array([self.beliefs.vol(i, float(a), float(c)) for a, c in zip(flat_t, flat_x)])
        b = bv.reshape(tb.shape)
        s = sv.reshape(tb.shape)
        return dv_dt + b * dv_dx + 0.5 * s * s * dv_dxx

    def to_csv(self, path) -> None:
        """One row per (t, x) node: t, x, v, v1..vN, dv_dx."""
        self._write_csv(path, ["t", "x", "v"] + [f"v{i+1}" for i in range(self.n_agents)]
                        + ["dv_dx"], [self.v, *self.vi, self.dv_dx])


def _require_match(spec: MarketSpec, beliefs: BeliefSet) -> None:
    if beliefs.n_agents != spec.n_agents:
        raise ValueError("belief set and allocations disagree on the number of agents")


def solve_equilibrium(spec: MarketSpec, beliefs: BeliefSet, grid: Grid1D) -> EquilibriumSolution:
    """Solve the coupled backward system for all agents plus the aggregate.

    d_t v_i + 0.5 sigma_i^2 d_xx v_i + b_i d_x v_i + (G'/G)(v_i - v) = 0 with
    v = mean(v_i) + (lam G'/(N G)) a0 and terminal payoff f.
    """
    _require_match(spec, beliefs)
    kern = spec.kernel
    n = beliefs.n_agents
    ts = grid.ts(spec.horizon_T)
    xs = grid.xs
    terminal = np.tile(np.asarray(spec.payoff(xs), dtype=float), (n, 1))
    a0 = spec.supply_a0
    c_ts = log_deriv(kern, ts)
    vi = _march(ts, xs, [(b.drift, b.vol) for b in beliefs.agents], terminal, coupling=c_ts,
                source=-(kern.lam * log_deriv(kern, _midpoints(ts)) ** 2 / n) * a0)
    v = vi.mean(axis=0) + (kern.lam / n) * c_ts[:, None] * a0
    return EquilibriumSolution(ts=ts, xs=xs, v=v, vi=vi, spec=spec, beliefs=beliefs)


def solve_frictionless(spec: MarketSpec, beliefs: BeliefSet, grid: Grid1D) -> GridSurface:
    """Representative-agent price: d_t v + 0.5 sbar^2 d_xx v + bbar d_x v = gamma a0 / N.

    Averaged coefficients, terminal payoff f; lambda plays no role here.
    """
    _require_match(spec, beliefs)
    ts = grid.ts(spec.horizon_T)
    xs = grid.xs
    terminal = np.asarray(spec.payoff(xs), dtype=float)[None, :]
    g = spec.kernel.gamma * spec.supply_a0 / beliefs.n_agents
    v = _march(ts, xs, [(beliefs.drift_bar, lambda t, x: np.sqrt(beliefs.vol_sq_bar(t, x)))],
               terminal, source=np.full(len(ts) - 1, -g))[0]
    return GridSurface(ts=ts, xs=xs, v=v)


def solve_risk_neutral(spec: MarketSpec, beliefs: BeliefSet, grid: Grid1D):
    """Zero-holding-cost system: each v_i solves L^i v_i = 0; price is the mean.

    Returns (aggregate GridSurface, list of per-agent GridSurfaces).
    """
    _require_match(spec, beliefs)
    n = beliefs.n_agents
    ts = grid.ts(spec.horizon_T)
    xs = grid.xs
    terminal = np.tile(np.asarray(spec.payoff(xs), dtype=float), (n, 1))
    vi = _march(ts, xs, [(b.drift, b.vol) for b in beliefs.agents], terminal)
    agg = GridSurface(ts=ts, xs=xs, v=vi.mean(axis=0))
    return agg, [GridSurface(ts=ts, xs=xs, v=v) for v in vi]
