"""Mean-reversion example: linear ODE reduction and closed-form limits.

With payoff f(x) = x and per-agent dynamics dX = kappa_i*(mean - X) dt
+ sigma dW, the equilibrium system collapses to linear ODEs for the affine
coefficients A_i(t), B_i(t) of the per-agent prices v_i = A_i + B_i x.
The aggregate price is mean(v_i) = mean + (x - mean) * Bbar(t) for zero net
supply; a supply a0 shifts it by -gamma a0 (T - t)/N and each agent's price
by a further -lam a0 G'/(N G).  This module integrates those ODEs backward
with classical RK4 and evaluates the closed-form frictionless / risk-neutral
prices and both leading-order small-cost corrections.
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
    "frictionless_price",
    "risk_neutral_price",
    "perceived_drift_frictionless",
    "tc_correction_closed",
    "hc_correction_closed",
    "volatility_curve",
]


class IntegrationBlowupError(RuntimeError):
    """RK4 state became non-finite: gamma/lambda too extreme for n_steps."""


@dataclass(frozen=True)
class OuModel:
    """Mean-reversion speeds, common level, volatility and horizon."""

    kappas: tuple
    mean_X: float
    sigma: float
    horizon_T: float

    def __post_init__(self):
        if len(self.kappas) < 1 or any(k <= 0 for k in self.kappas):
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
    """Belief set with drift kappa_i*(mean - x) and common constant sigma."""
    agents = tuple(
        AgentBelief(
            drift=lambda t, x, k=float(k), m=model.mean_X: k * (m - np.asarray(x, dtype=float)),
            vol=lambda t, x, s=model.sigma: s * np.ones_like(np.asarray(x, dtype=float)),
        )
        for k in model.kappas
    )
    return BeliefSet(
        agents=agents,
        parabolicity_floor=model.sigma**2,
        tag="ou",
        tag_params={"kappas": tuple(map(float, model.kappas)),
                    "mean_X": float(model.mean_X),
                    "sigma": float(model.sigma)},
    )


@dataclass
class AbSolution:
    """Backward RK4 solution of the affine-coefficient ODE system.

    Stores node values and node derivatives of A and B, so off-mesh
    evaluation uses cubic Hermite interpolation.  Acts as a price surface:
    exposes value / slope / agent_value / agent_drift with exact affine
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
        return float(out) if (np.isscalar(t) and np.isscalar(x)) else out

    def slope(self, t, x):
        out = self.b_bar(t) * np.ones_like(np.asarray(x, dtype=float))
        return float(out) if (np.isscalar(t) and np.isscalar(x)) else out

    def agent_value(self, i: int, t, x):
        ab = self.a_at(t)[..., i] + self.b_at(t)[..., i] * np.asarray(x, dtype=float)
        if self.supply_a0:
            ab = ab + self._holding_shift(t) \
                - self.kernel.lam * self.supply_a0 * log_deriv(self.kernel, t) / self.n_agents
        return float(ab) if (np.isscalar(t) and np.isscalar(x)) else ab

    def agent_drift(self, i: int, t, x):
        """mu_i = L^i v: time slope of the price plus agent i's advection."""
        x = np.asarray(x, dtype=float)
        m = self.model.mean_X
        out = (x - m) * self.b_bar_deriv(t) + self.model.kappas[i] * (m - x) * self.b_bar(t)
        if self.supply_a0:
            out = out + self.kernel.gamma * self.supply_a0 / self.n_agents
        return float(out) if (np.isscalar(t) and np.ndim(x) == 0) else out


def _rhs(model: OuModel, kernel: CostKernel, t: float, A: np.ndarray, B: np.ndarray):
    kap = np.asarray(model.kappas)
    c = log_deriv(kernel, t)
    dB = kap * B + c * (B.mean() - B)
    dA = c * (A.mean() - A) - model.mean_X * kap * B
    return dA, dB


def solve_ab(model: OuModel, kernel: CostKernel, n_steps: int = 3000,
             supply_a0: float = 0.0) -> AbSolution:
    """Backward classical RK4 from t = T with A(T) = 0, B(T) = 1.

    Fixed step T/n_steps; the default covers gamma/lambda up to ~1e3 at
    T = 3.  Raises IntegrationBlowupError if the state leaves float range.
    The supply ``supply_a0`` is recorded on the solution, which adds its
    closed-form price shift.
    """
    if n_steps < 100:
        raise ValueError("n_steps must be at least 100")
    if supply_a0 < 0.0:
        raise ValueError("supply must be nonnegative")
    if kernel.gamma <= 0 or kernel.lam <= 0:
        raise ValueError("both costs must be positive for the coupled system")
    if abs(kernel.horizon_T - model.horizon_T) > 1e-12:
        raise ValueError("kernel and model horizons differ")
    n = model.n_agents
    h = model.horizon_T / n_steps
    ts = np.linspace(0.0, model.horizon_T, n_steps + 1)
    A = np.zeros((n_steps + 1, n))
    B = np.zeros((n_steps + 1, n))
    dA = np.zeros_like(A)
    dB = np.zeros_like(B)
    B[-1] = 1.0
    dA[-1], dB[-1] = _rhs(model, kernel, ts[-1], A[-1], B[-1])
    with np.errstate(over="ignore", invalid="ignore"):
        for m in range(n_steps, 0, -1):
            t = ts[m]
            a0, b0 = A[m], B[m]
            k1a, k1b = dA[m], dB[m]
            k2a, k2b = _rhs(model, kernel, t - h / 2, a0 - h / 2 * k1a, b0 - h / 2 * k1b)
            k3a, k3b = _rhs(model, kernel, t - h / 2, a0 - h / 2 * k2a, b0 - h / 2 * k2b)
            k4a, k4b = _rhs(model, kernel, t - h, a0 - h * k3a, b0 - h * k3b)
            A[m - 1] = a0 - h / 6 * (k1a + 2 * k2a + 2 * k3a + k4a)
            B[m - 1] = b0 - h / 6 * (k1b + 2 * k2b + 2 * k3b + k4b)
            if not (np.all(np.isfinite(A[m - 1])) and np.all(np.isfinite(B[m - 1]))):
                raise IntegrationBlowupError(
                    f"non-finite state at t={ts[m-1]:.6g}; gamma/lambda too extreme for "
                    f"n_steps={n_steps}")
            dA[m - 1], dB[m - 1] = _rhs(model, kernel, ts[m - 1], A[m - 1], B[m - 1])
    return AbSolution(ts=ts, A=A, B=B, dA=dA, dB=dB, model=model, kernel=kernel,
                      supply_a0=float(supply_a0))


def frictionless_price(model: OuModel, t, x):
    """No-trading-cost limit: mean + (x - mean) * exp(-kappa_bar*(T - t))."""
    t = np.asarray(t, dtype=float)
    out = model.mean_X + (np.asarray(x, dtype=float) - model.mean_X) \
        * np.exp(-model.kappa_bar * (model.horizon_T - t))
    return float(out) if out.ndim == 0 else out


def risk_neutral_price(model: OuModel, t, x):
    """No-holding-cost limit: average of per-agent expectations.

    Returns (aggregate, per-agent array with trailing axis N).
    """
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)
    tau = model.horizon_T - t
    kap = np.asarray(model.kappas)
    per = model.mean_X + (x[..., None] - model.mean_X) * np.exp(-np.multiply.outer(tau, kap))
    agg = per.mean(axis=-1)
    if agg.ndim == 0:
        return float(agg), per.reshape(-1)
    return agg, per


def perceived_drift_frictionless(model: OuModel, i: int, t, price_level):
    """Drift of the frictionless price under agent i: (kappa_i - kappa_bar)*(mean - v0).

    Positive kappa_i - kappa_bar means the agent sees mean reversion in the
    price; negative means momentum.
    """
    out = (model.kappas[i] - model.kappa_bar) * (model.mean_X - np.asarray(price_level, dtype=float))
    return float(out) if np.ndim(out) == 0 else out


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
    out = np.sqrt(1.0 / gamma) * coef * tau * np.exp(-model.kappa_bar * tau) \
        * (np.asarray(x, dtype=float) - model.mean_X)
    return float(out) if out.ndim == 0 else out


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
    out = (np.asarray(x, dtype=float) - model.mean_X) * tau / (lam * n * n) * (s1 - s2)
    return float(out) if out.ndim == 0 else out


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
