"""Cost-kernel evaluation: frozen oracle values, limits and properties."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from illiquid_eq.kernel import CostKernel, log_deriv, ratio

# frozen direct evaluations for gamma=1e-8, lambda=1e-7, T=3 at t=0
LOG_DERIV_0 = -0.2337512550044443       # -sqrt(0.1)*tanh(3*sqrt(0.1))
RATIO_0_T = 1.4847789361596264          # cosh(3*sqrt(0.1))


@pytest.fixture
def fx_kernel():
    return CostKernel(gamma=1e-8, lam=1e-7, horizon_T=3.0)


class TestCostKernel:
    def test_rejects_double_zero(self):
        with pytest.raises(ValueError):
            CostKernel(0.0, 0.0, 1.0)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            CostKernel(-1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            CostKernel(1.0, -1.0, 1.0)

    def test_rejects_bad_horizon(self):
        with pytest.raises(ValueError):
            CostKernel(1.0, 1.0, 0.0)

    def test_requires_both_costs(self):
        # the frictionless and risk-neutral limits have their own solvers and
        # closed forms; a kernel always has gamma > 0 and lambda > 0
        for gamma, lam in ((0.0, 1e-7), (1e-8, 0.0), (math.nan, 1e-7)):
            with pytest.raises(ValueError, match="both costs must be positive"):
                CostKernel(gamma, lam, 3.0)

    def test_rate_a(self, fx_kernel):
        assert fx_kernel.rate_a == pytest.approx(math.sqrt(0.1), rel=1e-15)


class TestLogDeriv:
    def test_zero_at_horizon(self, fx_kernel):
        assert log_deriv(fx_kernel, 3.0) == 0.0

    def test_zero_for_risk_neutral(self):
        # gamma -> 0: the tracking speed -a^2 (T - t) vanishes
        k = CostKernel(1e-30, 1e-7, 3.0)
        assert log_deriv(k, 1.2345) == pytest.approx(0.0, abs=1e-22)

    def test_frozen_value(self, fx_kernel):
        got = log_deriv(fx_kernel, 0.0)
        assert got == pytest.approx(LOG_DERIV_0, rel=1e-12)
        # quoted five-digit reference is only loosely rounded
        assert got == pytest.approx(-0.23384, rel=1e-3)

    def test_frictionless_raises(self):
        # lambda = 0 is rejected where the kernel is built
        with pytest.raises(ValueError, match="both costs must be positive"):
            log_deriv(CostKernel(1.0, 0.0, 3.0), 0.0)

    def test_time_range_checked(self, fx_kernel):
        with pytest.raises(ValueError):
            log_deriv(fx_kernel, -0.5)
        with pytest.raises(ValueError):
            log_deriv(fx_kernel, 3.5)


class TestRatio:
    def test_identity(self, fx_kernel):
        assert ratio(fx_kernel, 1.3, 1.3) == pytest.approx(1.0, rel=1e-15)

    def test_one_for_risk_neutral(self):
        # gamma -> 0: the kernel is flat
        k = CostKernel(1e-30, 1e-7, 3.0)
        assert ratio(k, 0.3, 2.7) == pytest.approx(1.0, rel=1e-15)

    def test_frozen_value(self, fx_kernel):
        got = ratio(fx_kernel, 0.0, 3.0)
        assert got == pytest.approx(RATIO_0_T, rel=1e-12)
        assert got == pytest.approx(1.48478, abs=1e-4)

    def test_frictionless_raises(self):
        with pytest.raises(ValueError, match="both costs must be positive"):
            ratio(CostKernel(1.0, 0.0, 3.0), 0.0, 1.0)


costs = st.floats(min_value=1e-10, max_value=1e4)
unit = st.floats(min_value=0.0, max_value=1.0)


@given(gamma=costs, lam=costs, u=unit, s=unit, w=unit)
@settings(max_examples=120, deadline=None)
def test_ratio_cocycle(gamma, lam, u, s, w):
    # keep a*T within float range so the true values are representable
    T = 3.0
    k = CostKernel(gamma, lam, T)
    if k.rate_a * T > 600.0:
        lam = gamma / (600.0 / T) ** 2
        k = CostKernel(gamma, lam, T)
    tu, ts_, tw = u * T, s * T, w * T
    lhs = ratio(k, tu, ts_) * ratio(k, ts_, tw)
    rhs = ratio(k, tu, tw)
    if rhs > 0 and np.isfinite(rhs):
        assert lhs == pytest.approx(rhs, rel=1e-12)


@given(gamma=costs, lam=costs, t=unit)
@settings(max_examples=80, deadline=None)
def test_log_deriv_bounds_and_monotonicity(gamma, lam, t):
    T = 3.0
    k = CostKernel(gamma, lam, T)
    ts = np.linspace(t * T, T, 8)
    vals = log_deriv(k, ts)
    assert np.all(vals <= 0.0)
    assert np.all(vals >= -k.rate_a - 1e-12)
    assert np.all(np.diff(vals) >= -1e-12)     # increasing toward 0
    assert vals[-1] == 0.0


@given(gamma=st.floats(min_value=1e-6, max_value=1e2),
       lam=st.floats(min_value=1e-6, max_value=1e2),
       t=st.floats(min_value=0.0, max_value=0.95))
@settings(max_examples=25, deadline=None)
def test_discount_matches_quadrature(gamma, lam, t):
    # int_t^T G(u)/G(t) du = sqrt(lam/gamma) tanh(a (T - t)) pins the ratio's form
    T = 3.0
    k = CostKernel(gamma, lam, T)
    if k.rate_a * T > 80.0:       # keep quad well-conditioned
        return
    t0 = t * T
    val, err = quad(lambda u: ratio(k, u, t0), t0, T, limit=200)
    closed = math.sqrt(lam / gamma) * math.tanh(k.rate_a * (T - t0))
    assert closed == pytest.approx(val, rel=1e-8, abs=1e-12)


def test_no_overflow_for_extreme_ratio():
    # a*T = 1e4: raw cosh would overflow; shifted forms must stay finite
    T = 1.0
    k = CostKernel(1e8, 1.0, T)
    assert k.rate_a * T == pytest.approx(1e4)
    assert np.isfinite(log_deriv(k, 0.0))
    assert log_deriv(k, 0.0) == pytest.approx(-1e4, rel=1e-12)
    # decaying direction of the ratio stays finite (underflows to 0 eventually)
    vals = ratio(k, np.array([0.5, 0.9, 1.0]), np.array([0.4, 0.4, 0.4]))
    assert np.all(np.isfinite(vals))
    assert ratio(k, 0.5, 0.5) == pytest.approx(1.0)


def test_ratio_increment_telescopes():
    k = CostKernel(1e-8, 1e-7, 3.0)
    us = np.linspace(0.5, 3.0, 17)
    total = np.sum(ratio(k, us[:-1], 0.5) - ratio(k, us[1:], 0.5))
    assert total == pytest.approx(1.0 - 1.0 / ratio(k, 0.5, 3.0), rel=1e-12)


def test_array_times_match_scalar_calls():
    # feynman_kac_vi takes its per-interval weights from two array calls, not a
    # loop of scalar calls; both evaluate the same expression
    k = CostKernel(1e-8, 1e-7, 3.0)
    us = np.linspace(0.5, 3.0, 401)
    np.testing.assert_allclose(ratio(k, us, 0.5), [ratio(k, u, 0.5) for u in us],
                               rtol=4 * np.finfo(float).eps, atol=0)
