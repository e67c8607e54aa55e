"""Mean-reversion example: linear ODE reduction and closed-form limits.

With payoff f(x) = x and per-agent dynamics dX = kappa_i*(mean - X) dt
+ sigma dW, the equilibrium system collapses to linear ODEs for the affine
coefficients A_i(t), B_i(t) of the per-agent prices v_i = A_i + B_i x.
The aggregate price is mean(v_i) = mean + (x - mean) * Bbar(t) for zero net
supply; a supply a0 shifts it by -gamma a0 (T - t)/N and each agent's price
by a further -lam a0 G'/(N G).  This module integrates those ODEs backward
with classical RK4, for a whole stack of cost kernels in one march
(``solve_ab_batch``; ``solve_ab`` is a stack of one), and evaluates the
closed-form frictionless / risk-neutral prices and both leading-order
small-cost corrections.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernel import CostKernel, log_deriv
from .model import AgentBelief, BeliefSet
from .util import write_csv

__all__ = [
    "OuModel",
    "AbSolution",
    "IntegrationBlowupError",
    "ou_beliefs",
    "solve_ab",
    "solve_ab_batch",
    "MAX_STEPS",
    "frictionless_price",
    "risk_neutral_price",
    "tc_correction_closed",
    "hc_correction_closed",
    "volatility_curve",
]


class IntegrationBlowupError(ValueError):
    """RK4 state became non-finite: gamma/lambda too extreme for n_steps."""


@dataclass(frozen=True)
class OuModel:
    """Mean-reversion speeds, common level, volatility and horizon."""

    kappas: tuple
    mean_X: float
    sigma: float
    horizon_T: float

    def __post_init__(self):
        if len(self.kappas) < 1:
            raise ValueError("need at least one agent")
        if any(k <= 0 for k in self.kappas):
            raise ValueError("all mean-reversion speeds must be positive")
        if not self.sigma > 0:
            raise ValueError("sigma must be positive")
        if not self.horizon_T > 0:
            raise ValueError("horizon_T must be positive")

    @property
    def n_agents(self) -> int:
        return len(self.kappas)

    @property
    def kappa_bar(self) -> float:
        return float(np.mean(self.kappas))

    @property
    def kappas_distinct(self) -> bool:
        k = sorted(self.kappas)
        return all(b > a for a, b in zip(k, k[1:]))


def ou_beliefs(model: OuModel) -> BeliefSet:
    """Belief set with drift kappa_i*(mean - x) and common constant sigma, carrying ``model``."""
    agents = tuple(
        AgentBelief(
            drift=lambda t, x, k=float(k), m=model.mean_X: k * (m - np.asarray(x, dtype=float)),
            vol=lambda t, x, s=model.sigma: s * np.ones_like(np.asarray(x, dtype=float)),
        )
        for k in model.kappas
    )
    return BeliefSet(agents=agents, parabolicity_floor=model.sigma**2, ou=model)


@dataclass
class AbSolution:
    """Backward RK4 solution of the affine-coefficient ODE system.

    Stores node values and node derivatives of A and B, so off-mesh
    evaluation uses cubic Hermite interpolation.  Acts as a price surface:
    exposes value / agent_value / agent_drift with exact affine
    structure (no spatial truncation, x bounds are infinite).  A, B solve the
    zero-supply system; the supply ``supply_a0`` enters in closed form,
    v = mean(v_i) + (lam G'/(N G)) a0 with every v_i lowered by
    gamma a0 (T - t)/N + lam a0 G'/(N G), which raises each drift by gamma a0/N.
    """

    ts: np.ndarray          # (n+1,)
    A: np.ndarray           # (n+1, N)
    B: np.ndarray           # (n+1, N)
    dA: np.ndarray
    dB: np.ndarray
    model: OuModel
    kernel: CostKernel
    supply_a0: float = 0.0

    def __post_init__(self):
        for arr in (self.ts, self.A, self.B, self.dA, self.dB):
            arr.setflags(write=False)

    @property
    def n_agents(self) -> int:
        return self.A.shape[1]

    @property
    def x_bounds(self):
        return (-np.inf, np.inf)

    def _hermite(self, Y, dY, tq):
        ts = self.ts
        h = ts[1] - ts[0]
        tq = np.asarray(tq, dtype=float)
        k = np.clip(np.floor((tq - ts[0]) / h).astype(int), 0, len(ts) - 2)
        s = (tq - ts[k]) / h
        h00 = (1 + 2 * s) * (1 - s) ** 2
        h10 = s * (1 - s) ** 2
        h01 = s * s * (3 - 2 * s)
        h11 = s * s * (s - 1)
        sh = s.shape + (1,) * (Y.ndim - 1)
        return (h00.reshape(sh) * Y[k] + h10.reshape(sh) * h * dY[k]
                + h01.reshape(sh) * Y[k + 1] + h11.reshape(sh) * h * dY[k + 1])

    def a_at(self, t):
        """A(t), shape (..., N), cubic Hermite between RK4 nodes."""
        return self._hermite(self.A, self.dA, t)

    def b_at(self, t):
        """B(t), shape (..., N)."""
        return self._hermite(self.B, self.dB, t)

    def b_bar(self, t):
        return self.b_at(t).mean(axis=-1)

    def b_bar_deriv(self, t):
        # coupling averages out: Bbar' = mean(kappa_i * B_i)
        kap = np.asarray(self.model.kappas)
        return (kap * self.b_at(t)).mean(axis=-1)

    def _holding_shift(self, t):
        """Supply term of the aggregate price, -gamma a0 (T - t)/N."""
        tau = self.kernel.horizon_T - np.asarray(t, dtype=float)
        return -self.kernel.gamma * self.supply_a0 * tau / self.n_agents

    def value(self, t, x):
        """Aggregate price mean + (x - mean) * Bbar(t) - gamma a0 (T - t)/N."""
        out = self.model.mean_X + (np.asarray(x, dtype=float) - self.model.mean_X) * self.b_bar(t)
        if self.supply_a0:
            out = out + self._holding_shift(t)
        return out

    def agent_value(self, i: int, t, x):
        ab = self.a_at(t)[..., i] + self.b_at(t)[..., i] * np.asarray(x, dtype=float)
        if self.supply_a0:
            ab = ab + self._holding_shift(t) \
                - self.kernel.lam * self.supply_a0 * log_deriv(self.kernel, t) / self.n_agents
        return ab

    def agent_drift(self, i: int, t, x):
        """mu_i = L^i v: time slope of the price plus agent i's advection."""
        x = np.asarray(x, dtype=float)
        m = self.model.mean_X
        out = (x - m) * self.b_bar_deriv(t) + self.model.kappas[i] * (m - x) * self.b_bar(t)
        if self.supply_a0:
            out = out + self.kernel.gamma * self.supply_a0 / self.n_agents
        return out


# RK4 steps allowed per solve; a batch of S kernels holds 4 (n_steps + 1) S N doubles
MAX_STEPS = 200_000


def solve_ab_batch(model: OuModel, kernels, n_steps: int = 3000,
                   supply_a0: float = 0.0) -> list:
    """Backward classical RK4 from t = T with A(T) = 0, B(T) = 1, for a stack of kernels.

    The S kernels share the fixed step T/n_steps and march together as one
    (S, 2, N) state of (A, B); the default covers gamma/lambda up to ~1e3 at
    T = 3.  The tracking speed c = G'/G of every kernel is evaluated once, on
    the nodes t_m, the half-nodes t_m - h/2 and the stage times t_m - h.  A
    kernel's solution is bit for bit the same in any batch.  Raises
    ValueError above MAX_STEPS steps, before allocating anything, and
    IntegrationBlowupError, naming the kernel, if the state leaves float
    range.  The supply ``supply_a0`` is recorded on every solution, which
    adds its closed-form price shift.  Returns one AbSolution per kernel, in
    order, each holding its own contiguous (n_steps + 1, N) arrays.
    """
    kernels = list(kernels)
    if n_steps < 100:
        raise ValueError("n_steps must be at least 100")
    if supply_a0 < 0.0:
        raise ValueError("supply must be nonnegative")
    for kernel in kernels:
        if abs(kernel.horizon_T - model.horizon_T) > 1e-12:
            raise ValueError("kernel and model horizons differ")
    if n_steps > MAX_STEPS:
        stiff = max(kernels, key=lambda k: k.rate_a)
        raise ValueError(
            f"n_steps={n_steps} exceeds {MAX_STEPS} RK4 steps (stiffest kernel gamma="
            f"{stiff.gamma:g}, lambda={stiff.lam:g}); costs this extreme need another solver")
    n = model.n_agents
    h = model.horizon_T / n_steps
    ts = np.linspace(0.0, model.horizon_T, n_steps + 1)
    # c at the nodes t_m, the half-nodes t_m - h/2 and t_m - h, as (steps, S, 1, 1)
    c_node, c_half, c_end = (np.stack([log_deriv(k, t) for k in kernels], axis=1)[:, :, None, None]
                             for t in (ts, ts[1:] - h / 2, ts[1:] - h))
    kap = np.asarray(model.kappas)
    drift = model.mean_X * kap

    def deriv(c, Y):
        """dA = c (mean A - A) - mean_X kap B and dB = kap B + c (mean B - B)."""
        d = c * (Y.sum(axis=2, keepdims=True) / n - Y)
        d[:, 0] -= drift * Y[:, 1]
        d[:, 1] += kap * Y[:, 1]
        return d

    # state Y[m, s] = (A, B) of kernel s at t_m, shape (2, N)
    Y = np.zeros((n_steps + 1, len(kernels), 2, n))
    dY = np.zeros_like(Y)
    Y[-1, :, 1] = 1.0
    dY[-1] = deriv(c_node[-1], Y[-1])
    with np.errstate(over="ignore", invalid="ignore"):
        for m in range(n_steps, 0, -1):
            y0, k1 = Y[m], dY[m]
            k2 = deriv(c_half[m - 1], y0 - h / 2 * k1)
            k3 = deriv(c_half[m - 1], y0 - h / 2 * k2)
            k4 = deriv(c_end[m - 1], y0 - h * k3)
            y1 = Y[m - 1] = y0 - h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
            if not np.isfinite(y1).all():
                bad = kernels[int(np.argmin(np.isfinite(y1).all(axis=(1, 2))))]
                raise IntegrationBlowupError(
                    f"non-finite state at t={ts[m-1]:.6g}; gamma={bad.gamma:g}, "
                    f"lambda={bad.lam:g} too extreme for n_steps={n_steps}")
            dY[m - 1] = deriv(c_node[m - 1], y1)
    return [AbSolution(ts=ts, A=Y[:, s, 0].copy(), B=Y[:, s, 1].copy(), dA=dY[:, s, 0].copy(),
                       dB=dY[:, s, 1].copy(), model=model, kernel=kernel,
                       supply_a0=float(supply_a0))
            for s, kernel in enumerate(kernels)]


def solve_ab(model: OuModel, kernel: CostKernel, n_steps: int = 3000,
             supply_a0: float = 0.0) -> AbSolution:
    """Backward RK4 solution for one kernel: ``solve_ab_batch`` with a stack of one."""
    return solve_ab_batch(model, [kernel], n_steps, supply_a0)[0]


def frictionless_price(model: OuModel, t, x):
    """No-trading-cost limit: mean + (x - mean) * exp(-kappa_bar*(T - t))."""
    t = np.asarray(t, dtype=float)
    return model.mean_X + (np.asarray(x, dtype=float) - model.mean_X) \
        * np.exp(-model.kappa_bar * (model.horizon_T - t))


def risk_neutral_price(model: OuModel, t, x):
    """No-holding-cost limit: average of per-agent expectations.

    Returns (aggregate, per-agent array with trailing axis N).
    """
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)
    tau = model.horizon_T - t
    kap = np.asarray(model.kappas)
    per = model.mean_X + (x[..., None] - model.mean_X) * np.exp(-np.multiply.outer(tau, kap))
    return per.mean(axis=-1), per


def tc_correction_closed(model: OuModel, gamma: float, t, x):
    """Leading-order price correction per sqrt(trading cost), closed form.

    sqrt(1/gamma) * mean((kappa_bar - kappa_i)^2) * (T-t) e^{-kappa_bar (T-t)} (x - mean).
    Same sign as x - mean; increases the price loading on x.
    """
    if not gamma > 0:
        raise ValueError("gamma must be positive")
    t = np.asarray(t, dtype=float)
    tau = model.horizon_T - t
    kap = np.asarray(model.kappas)
    coef = float(np.mean((model.kappa_bar - kap) ** 2))
    return np.sqrt(1.0 / gamma) * coef * tau * np.exp(-model.kappa_bar * tau) \
        * (np.asarray(x, dtype=float) - model.mean_X)


def hc_correction_closed(model: OuModel, lam: float, t, x):
    """Leading-order price correction per unit holding cost, closed form.

    Requires pairwise distinct speeds (the formula divides by kappa_i -
    kappa_j); with repeated speeds use the integral-representation solver in
    the asymptotics module instead.  The bracket is nonpositive, so the
    correction has the opposite sign of x - mean.
    """
    if not lam > 0:
        raise ValueError("lambda must be positive")
    if not model.kappas_distinct:
        raise ValueError(
            "repeated mean-reversion speeds: closed form is singular; use the "
            "integral-representation correction in the asymptotics module")
    t = np.asarray(t, dtype=float)
    tau = model.horizon_T - t
    kap = np.asarray(model.kappas)
    n = model.n_agents
    s1 = np.zeros_like(tau)
    for i in range(n):
        for j in range(n):
            if i != j:
                s1 = s1 + np.exp(-kap[j] * tau) / (kap[i] - kap[j])
    s2 = tau * (n - 1) / 2.0 * np.exp(-np.multiply.outer(tau, kap)).sum(axis=-1)
    return (np.asarray(x, dtype=float) - model.mean_X) * tau / (lam * n * n) * (s1 - s2)


def volatility_curve(model: OuModel, ab: AbSolution, t):
    """Price loading Bbar(t) with its two limiting envelopes.

    Returns (b_bar, lower, upper) where lower = e^{-kappa_bar (T-t)} is the
    no-trading-cost loading and upper = mean_i e^{-kappa_i (T-t)} the
    no-holding-cost one; Bbar interpolates between them.
    """
    t = np.asarray(t, dtype=float)
    tau = model.horizon_T - t
    kap = np.asarray(model.kappas)
    lower = np.exp(-model.kappa_bar * tau)
    upper = np.exp(-np.multiply.outer(tau, kap)).mean(axis=-1)
    return ab.b_bar(t), lower, upper


def curves_csv(model: OuModel, ab: AbSolution, path, x_eval: float = 1.0) -> None:
    """Write t, per-agent A/B, Bbar, envelopes and price at x_eval."""
    ts = ab.ts
    bbar, lower, upper = volatility_curve(model, ab, ts)
    v = ab.value(ts, np.full_like(ts, x_eval))
    n = ab.n_agents
    header = (["t"] + [f"A{i+1}" for i in range(n)] + [f"B{i+1}" for i in range(n)]
              + ["B_bar", "env_no_tc", "env_no_hc", f"price_x{x_eval:g}"])
    write_csv(path, header, np.column_stack([ts, ab.A, ab.B, bbar, lower, upper, v]).tolist())
