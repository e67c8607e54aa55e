"""Overflow-safe evaluation of the hyperbolic trading-cost kernel.

The kernel cosh(a*(T - t)) with a = sqrt(gamma/lambda) sets the speed at
which optimal portfolios track their targets.  Because gamma/lambda spans
many orders of magnitude, every quantity here is computed in
exponent-shifted form; a raw cosh value is never materialized.  The
degenerate limits gamma = 0 (kernel identically one) and lambda = 0
(infinitely fast trading) are represented exactly, not by tiny epsilons.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["CostKernel", "log_deriv", "ratio", "discount_integral"]


@dataclass(frozen=True)
class CostKernel:
    """Holding cost ``gamma``, trading cost ``lam`` and horizon of one market.

    ``gamma = 0`` (risk-neutral) and ``lam = 0`` (frictionless) are valid
    special kernels; ``gamma = lam = 0`` is rejected.
    """

    gamma: float
    lam: float
    horizon_T: float

    def __post_init__(self):
        if self.gamma < 0.0 or self.lam < 0.0:
            raise ValueError("cost coefficients must be nonnegative")
        if self.gamma == 0.0 and self.lam == 0.0:
            raise ValueError("gamma and lambda cannot both be zero")
        if not self.horizon_T > 0.0:
            raise ValueError("horizon_T must be positive")

    @property
    def rate_a(self) -> float:
        """sqrt(gamma/lam); +inf sentinel for the frictionless kernel."""
        if self.lam == 0.0:
            return math.inf
        return math.sqrt(self.gamma / self.lam)

    @property
    def frictionless(self) -> bool:
        return self.lam == 0.0

    @property
    def risk_neutral(self) -> bool:
        return self.gamma == 0.0

    def scaled(self, c: float) -> "CostKernel":
        """Kernel with both costs multiplied by c (same gamma/lambda ratio)."""
        return CostKernel(c * self.gamma, c * self.lam, self.horizon_T)


def _check_times(kernel: CostKernel, *times) -> None:
    slack = 1e-9 * kernel.horizon_T
    for t in times:
        arr = np.asarray(t, dtype=float)
        if np.any(arr < -slack) or np.any(arr > kernel.horizon_T + slack):
            raise ValueError(f"time outside [0, T={kernel.horizon_T}]")


def _as_input(t, out):
    return float(out) if np.isscalar(t) else out


def log_deriv(kernel: CostKernel, t):
    """G'(t)/G(t) = -a * tanh(a*(T - t)), the optimal tracking speed.

    Nonpositive, zero at t = T, and bounded below by -a; never evaluates
    cosh directly.  Vectorized over ``t``.
    """
    if kernel.frictionless:
        raise ValueError("frictionless kernel has no log-derivative")
    _check_times(kernel, t)
    a = kernel.rate_a
    out = -a * np.tanh(a * (kernel.horizon_T - np.asarray(t, dtype=float)))
    return _as_input(t, out)


def ratio(kernel: CostKernel, u, s):
    """G(u)/G(s) in exponent-shifted form, stable for large a*T.

    Uses exp(a*(T-u) - a*(T-s)) * (1 + e^{-2a(T-u)}) / (1 + e^{-2a(T-s)}),
    which stays finite whenever the true ratio is representable.  For
    u >= s the ratio is at most 1 and never overflows; for u < s the true
    value itself exceeds float range once a*(s - u) > ~709.
    """
    if kernel.frictionless:
        raise ValueError("frictionless kernel has no cosh ratio; use the lambda=0 branches")
    _check_times(kernel, u, s)
    a = kernel.rate_a
    p = a * (kernel.horizon_T - np.asarray(u, dtype=float))
    q = a * (kernel.horizon_T - np.asarray(s, dtype=float))
    out = np.exp(p - q) * (1.0 + np.exp(-2.0 * p)) / (1.0 + np.exp(-2.0 * q))
    return float(out) if (np.isscalar(u) and np.isscalar(s)) else out


def discount_integral(kernel: CostKernel, t):
    """int_t^T G(u)/G(t) du = sqrt(lam/gamma) * tanh(a*(T - t)).

    Value lies in [0, sqrt(lam/gamma)].  For gamma = 0 the kernel is
    identically one and the exact limit T - t is returned.
    """
    if kernel.frictionless:
        raise ValueError("discount integral of the frictionless kernel is undefined")
    _check_times(kernel, t)
    tau = kernel.horizon_T - np.asarray(t, dtype=float)
    if kernel.risk_neutral:
        return _as_input(t, tau + 0.0)
    a = kernel.rate_a
    out = math.sqrt(kernel.lam / kernel.gamma) * np.tanh(a * tau)
    return _as_input(t, out)


def ratio_increment(kernel: CostKernel, u0, u1, t):
    """Exact integral of -G'(u)/G(t) over [u0, u1]: ratio(u0,t) - ratio(u1,t)."""
    return ratio(kernel, u0, t) - ratio(kernel, u1, t)
