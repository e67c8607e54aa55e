"""Overflow-safe evaluation of the hyperbolic trading-cost kernel.

The kernel cosh(a*(T - t)) with a = sqrt(gamma/lambda) sets the speed at
which optimal portfolios track their targets.  Both costs are positive,
checked once when a kernel is built; the frictionless and risk-neutral
limits have their own solvers and closed forms.  Because gamma/lambda
spans many orders of magnitude, every quantity here is computed in
exponent-shifted form; a raw cosh value is never materialized.  Scalar
times give numpy float scalars (``float`` instances), arrays give arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["CostKernel", "log_deriv", "ratio"]


@dataclass(frozen=True)
class CostKernel:
    """Holding cost ``gamma`` > 0, trading cost ``lam`` > 0 and horizon of one market."""

    gamma: float
    lam: float
    horizon_T: float

    def __post_init__(self):
        if not (self.gamma > 0.0 and self.lam > 0.0):
            raise ValueError(f"both costs must be positive, got gamma={self.gamma:g}, "
                             f"lambda={self.lam:g}")
        if not self.horizon_T > 0.0:
            raise ValueError("horizon_T must be positive")

    @property
    def rate_a(self) -> float:
        """sqrt(gamma/lam)."""
        return math.sqrt(self.gamma / self.lam)


def _check_times(kernel: CostKernel, *times) -> None:
    slack = 1e-9 * kernel.horizon_T
    for t in times:
        arr = np.asarray(t, dtype=float)
        if np.any(arr < -slack) or np.any(arr > kernel.horizon_T + slack):
            raise ValueError(f"time outside [0, T={kernel.horizon_T}]")


def log_deriv(kernel: CostKernel, t):
    """G'(t)/G(t) = -a * tanh(a*(T - t)), the optimal tracking speed.

    Nonpositive, zero at t = T, and bounded below by -a; never evaluates
    cosh directly.  Vectorized over ``t``.
    """
    _check_times(kernel, t)
    a = kernel.rate_a
    return -a * np.tanh(a * (kernel.horizon_T - np.asarray(t, dtype=float)))


def ratio(kernel: CostKernel, u, s):
    """G(u)/G(s) in exponent-shifted form, stable for large a*T.

    Uses exp(a*(T-u) - a*(T-s)) * (1 + e^{-2a(T-u)}) / (1 + e^{-2a(T-s)}),
    which stays finite whenever the true ratio is representable.  For
    u >= s the ratio is at most 1 and never overflows; for u < s the true
    value itself exceeds float range once a*(s - u) > ~709.
    """
    _check_times(kernel, u, s)
    a = kernel.rate_a
    p = a * (kernel.horizon_T - np.asarray(u, dtype=float))
    q = a * (kernel.horizon_T - np.asarray(s, dtype=float))
    return np.exp(p - q) * (1.0 + np.exp(-2.0 * p)) / (1.0 + np.exp(-2.0 * q))


def ratio_increment(kernel: CostKernel, u0, u1, t):
    """Exact integral of -G'(u)/G(t) over [u0, u1]: ratio(u0,t) - ratio(u1,t)."""
    return ratio(kernel, u0, t) - ratio(kernel, u1, t)
