"""Mean-reversion example: ODE solution, closed forms, expansion checks."""

import dataclasses

import numpy as np
import pytest
from scipy.integrate import quad

from illiquid_eq.kernel import CostKernel, log_deriv, ratio
from illiquid_eq.model import MarketSpec, constant_beliefs
from illiquid_eq.ou import (MAX_STEPS, AbSolution, IntegrationBlowupError, OuModel,
                            frictionless_price, hc_correction_closed, ou_beliefs,
                            risk_neutral_price, solve_ab, solve_ab_batch,
                            tc_correction_closed, volatility_curve)
from illiquid_eq.pde import Grid1D, solve_equilibrium

# frozen direct evaluations at the calibrated parameters, (t, x) = (0, 1)
V0_FRICTIONLESS = 1.2054567370567755     # 1.25 - 0.25*exp(-1.725)
V0_RISK_NEUTRAL = 1.1878358345986477     # 1.25 - 0.125*(exp(-2.5875)+exp(-0.8625))
TC_STAR = -110.4533723295273             # sqrt(1e8)*0.08265625*3*exp(-1.725)*(-0.25)
HC_STAR = 267505.6555298391              # bracket -0.14267068 / (4e-7) * (-0.75)
ENV_LO = 0.1781730517728984              # exp(-1.725)
ENV_HI = 0.24865666160540895             # (exp(-2.5875)+exp(-0.8625))/2
PRICE_BOTH = 1.1900041954674             # converged RK4 value at (0, 1)


class TestModelType:
    def test_kappa_bar(self, fx_model):
        assert fx_model.kappa_bar == pytest.approx(0.575, rel=1e-12)

    def test_requires_positive_speeds(self):
        with pytest.raises(ValueError):
            OuModel(kappas=(0.5, -0.1), mean_X=1.0, sigma=0.1, horizon_T=1.0)

    def test_requires_an_agent(self):
        with pytest.raises(ValueError, match="need at least one agent"):
            OuModel(kappas=(), mean_X=1.0, sigma=0.1, horizon_T=1.0)

    def test_distinct_flag(self, fx_model):
        assert fx_model.kappas_distinct
        twin = OuModel(kappas=(0.5, 0.5), mean_X=1.0, sigma=0.1, horizon_T=1.0)
        assert not twin.kappas_distinct

    def test_beliefs_carry_their_model(self, fx_model):
        beliefs = ou_beliefs(fx_model)
        assert beliefs.ou is fx_model
        assert constant_beliefs([0.0], [1.0]).ou is None
        rebuilt = dataclasses.replace(beliefs, agents=beliefs.agents[::-1])
        assert rebuilt.ou is fx_model and rebuilt.agents == beliefs.agents[::-1]


class TestSolveAb:
    def test_terminal_values(self, fx_ab):
        assert np.allclose(fx_ab.B[-1], 1.0)
        assert np.allclose(fx_ab.A[-1], 0.0)

    def test_b_positive(self, fx_ab):
        assert np.all(fx_ab.B > 0.0)

    def test_homogeneous_speeds_decouple(self):
        m = OuModel(kappas=(0.575, 0.575), mean_X=1.25, sigma=0.128, horizon_T=3.0)
        k = CostKernel(1e-8, 1e-7, 3.0)
        ab = solve_ab(m, k, n_steps=1000)
        expect = np.exp(-0.575 * (3.0 - ab.ts))
        assert np.allclose(ab.B[:, 0], expect, atol=1e-8)
        assert np.allclose(ab.B[:, 1], expect, atol=1e-8)

    def test_bbar0_inside_envelope(self, fx_ab):
        b0 = fx_ab.b_bar(0.0)
        assert ENV_LO < b0 < ENV_HI

    def test_min_steps_enforced(self, fx_model, fx_kernel):
        with pytest.raises(ValueError):
            solve_ab(fx_model, fx_kernel, n_steps=50)

    def test_blowup_detected(self, fx_model):
        harsh = CostKernel(1e-2, 1e-12, 3.0)   # a*T ~ 3e5, far beyond 100 steps
        with pytest.raises(IntegrationBlowupError):
            solve_ab(fx_model, harsh, n_steps=100)

    def test_rk4_fourth_order(self, fx_model, fx_kernel):
        vals = [solve_ab(fx_model, fx_kernel, n).b_bar(0.0) for n in (200, 400, 800)]
        e1 = abs(vals[0] - vals[1])
        e2 = abs(vals[1] - vals[2])
        assert e1 / e2 > 8.0      # fourth order would give ~16

    def test_zero_supply_ratio_dependence(self, fx_model, fx_kernel):
        for c in (10.0, 0.1):
            ab1 = solve_ab(fx_model, fx_kernel, 500)
            ab2 = solve_ab(fx_model, CostKernel(c * fx_kernel.gamma, c * fx_kernel.lam,
                                                fx_kernel.horizon_T), 500)
            assert np.max(np.abs(ab1.B - ab2.B)) <= 1e-10
            assert np.max(np.abs(ab1.A - ab2.A)) <= 1e-10


def _sweep_kernels(gamma=1e-8, lam=1e-7, horizon=3.0):
    """The ten kernels of the asymptotics sweeps on ou_fx.yaml."""
    return ([CostKernel(gamma, lam * 4.0 ** (-k), horizon) for k in range(5)]
            + [CostKernel(gamma * 2.0 ** (-k), lam, horizon) for k in range(5)])


def _rk4_reference(model, kernel, n_steps):
    """One kernel, one step at a time, c(t) from a scalar log_deriv per stage."""
    kap = np.asarray(model.kappas)

    def rhs(t, A, B):
        c = log_deriv(kernel, t)
        return c * (A.mean() - A) - model.mean_X * kap * B, kap * B + c * (B.mean() - B)

    h = model.horizon_T / n_steps
    ts = np.linspace(0.0, model.horizon_T, n_steps + 1)
    A, B = np.zeros((n_steps + 1, model.n_agents)), np.zeros((n_steps + 1, model.n_agents))
    dA, dB = np.zeros_like(A), np.zeros_like(B)
    B[-1] = 1.0
    dA[-1], dB[-1] = rhs(ts[-1], A[-1], B[-1])
    for m in range(n_steps, 0, -1):
        t, a0, b0 = ts[m], A[m], B[m]
        k2a, k2b = rhs(t - h / 2, a0 - h / 2 * dA[m], b0 - h / 2 * dB[m])
        k3a, k3b = rhs(t - h / 2, a0 - h / 2 * k2a, b0 - h / 2 * k2b)
        k4a, k4b = rhs(t - h, a0 - h * k3a, b0 - h * k3b)
        A[m - 1] = a0 - h / 6 * (dA[m] + 2 * k2a + 2 * k3a + k4a)
        B[m - 1] = b0 - h / 6 * (dB[m] + 2 * k2b + 2 * k3b + k4b)
        dA[m - 1], dB[m - 1] = rhs(ts[m - 1], A[m - 1], B[m - 1])
    return A, B, dA, dB


class TestSolveAbBatch:
    @pytest.mark.parametrize("kappas", [(0.8625, 0.2875), (0.8625, 0.2875, 0.5)])
    def test_batch_equals_one_by_one(self, kappas):
        # the ten sweep kernels in one march give, bit for bit, the one-kernel solves
        m = OuModel(kappas=kappas, mean_X=1.25, sigma=0.128, horizon_T=3.0)
        kernels = _sweep_kernels()
        batch = solve_ab_batch(m, kernels, 1000, supply_a0=0.5)
        for ab, kern in zip(batch, kernels):
            one = solve_ab(m, kern, 1000, supply_a0=0.5)
            assert ab.kernel is kern and ab.supply_a0 == 0.5
            for name in ("ts", "A", "B", "dA", "dB"):
                assert np.array_equal(getattr(ab, name), getattr(one, name))
            for arr in (ab.A, ab.B, ab.dA, ab.dB):
                assert arr.shape == (1001, len(kappas)) and arr.flags.c_contiguous

    @pytest.mark.parametrize("kappas", [(0.8625, 0.2875), (0.8625, 0.2875, 0.5)])
    def test_matches_stepwise_reference(self, kappas):
        # the same arithmetic as a scalar march with one log_deriv call per stage
        m = OuModel(kappas=kappas, mean_X=1.25, sigma=0.128, horizon_T=3.0)
        kernels = _sweep_kernels()[::4]
        for ab, kern in zip(solve_ab_batch(m, kernels, 400), kernels):
            ref = _rk4_reference(m, kern, 400)
            for got, want in zip((ab.A, ab.B, ab.dA, ab.dB), ref):
                assert np.array_equal(got, want)

    def test_blowup_names_the_kernel(self, fx_model, fx_kernel):
        harsh = CostKernel(1e-2, 1e-12, 3.0)
        with pytest.raises(IntegrationBlowupError, match=r"gamma=0\.01, lambda=1e-12"):
            solve_ab_batch(fx_model, [fx_kernel, harsh, CostKernel(2e-8, 2e-7, 3.0)], 100)

    def test_step_bound(self, fx_model, fx_kernel):
        with pytest.raises(ValueError, match=f"n_steps={MAX_STEPS + 1} exceeds"):
            solve_ab_batch(fx_model, [fx_kernel], MAX_STEPS + 1)

    def test_every_kernel_validated(self, fx_model, fx_kernel):
        with pytest.raises(ValueError, match="horizons differ"):
            solve_ab_batch(fx_model, [fx_kernel, CostKernel(1e-8, 1e-7, 2.0)], 200)
        with pytest.raises(ValueError, match="both costs"):
            solve_ab_batch(fx_model, [fx_kernel, CostKernel(0.0, 1e-7, 3.0)], 200)


class TestPrice:
    def test_mean_is_fixed_point(self, fx_model, fx_ab):
        for t in (0.0, 1.1, 3.0):
            assert fx_ab.value(t, 1.25) == pytest.approx(1.25, rel=1e-12)

    def test_terminal_is_state(self, fx_model, fx_ab):
        for x in (0.7, 1.0, 1.6):
            assert fx_ab.value(3.0, x) == pytest.approx(x, rel=1e-12)

    def test_calibrated_point(self, fx_model, fx_ab):
        v = fx_ab.value(0.0, 1.0)
        assert V0_RISK_NEUTRAL < v < V0_FRICTIONLESS
        assert v == pytest.approx(1.19052, abs=0.003)
        assert v == pytest.approx(PRICE_BOTH, abs=1e-10)

    def test_per_agent_values(self, fx_ab):
        v1 = fx_ab.agent_value(0, 0.0, 1.0)
        v2 = fx_ab.agent_value(1, 0.0, 1.0)
        assert (v1 + v2) / 2 == pytest.approx(fx_ab.value(0.0, 1.0), rel=1e-12)


class TestSupply:
    @pytest.mark.parametrize("kappas", [(0.575,), (0.8625, 0.2875)])
    def test_shift_matches_pde_difference(self, kappas):
        # a supply a0 lowers the aggregate price by gamma a0 (T-t)/N and each
        # agent's price by a further lam a0 G'/(N G); the coupled PDE solved
        # at a0 = 1 and a0 = 0 differs by the same amounts up to its time error
        m = OuModel(kappas=kappas, mean_X=1.25, sigma=0.128, horizon_T=3.0)
        kern = CostKernel(0.05, 0.2, 3.0)
        n = len(kappas)
        payoff = lambda x: np.asarray(x, dtype=float) + 0.0
        grid = Grid1D(0.8, 1.7, 61, 301)
        sols = [solve_equilibrium(MarketSpec(kern, a0, (a0 / n,) * n, payoff),
                                  ou_beliefs(m), grid) for a0 in (0.0, 1.0)]
        abs_ = [solve_ab(m, kern, 600, supply_a0=a0) for a0 in (0.0, 1.0)]
        T, X = np.meshgrid(sols[0].ts, sols[0].xs, indexing="ij")
        shift = -kern.gamma * (3.0 - T) / n
        assert np.max(np.abs(abs_[1].value(T, X) - abs_[0].value(T, X) - shift)) <= 1e-14
        assert np.max(np.abs(sols[1].v - sols[0].v - shift)) <= 1e-6
        shift_i = shift - kern.lam * log_deriv(kern, T) / n
        for i in range(n):
            d_ab = abs_[1].agent_value(i, T, X) - abs_[0].agent_value(i, T, X)
            assert np.max(np.abs(d_ab - shift_i)) <= 1e-14
            assert np.max(np.abs(sols[1].vi[i] - sols[0].vi[i] - shift_i)) <= 1e-6
            d_mu = abs_[1].agent_drift(i, T, X) - abs_[0].agent_drift(i, T, X)
            assert np.max(np.abs(d_mu - kern.gamma / n)) <= 1e-14

    def test_recorded_on_solution(self, fx_model, fx_kernel):
        assert solve_ab(fx_model, fx_kernel, 200).supply_a0 == 0.0
        assert solve_ab(fx_model, fx_kernel, 200, supply_a0=2.0).supply_a0 == 2.0
        with pytest.raises(ValueError, match="supply"):
            solve_ab(fx_model, fx_kernel, 200, supply_a0=-1.0)


class TestClosedForms:
    def test_frictionless_trivials(self, fx_model):
        assert frictionless_price(fx_model, 3.0, 0.9) == pytest.approx(0.9, rel=1e-14)
        assert frictionless_price(fx_model, 1.0, 1.25) == pytest.approx(1.25, rel=1e-14)

    def test_frictionless_point(self, fx_model):
        got = frictionless_price(fx_model, 0.0, 1.0)
        assert got == pytest.approx(V0_FRICTIONLESS, rel=1e-14)
        assert got == pytest.approx(1.20547, abs=2e-5)

    def test_risk_neutral_trivials(self, fx_model):
        agg, per = risk_neutral_price(fx_model, 3.0, 0.9)
        assert agg == pytest.approx(0.9, rel=1e-14)
        single = OuModel(kappas=(0.575,), mean_X=1.25, sigma=0.128, horizon_T=3.0)
        agg1, _ = risk_neutral_price(single, 0.4, 1.1)
        assert agg1 == pytest.approx(frictionless_price(single, 0.4, 1.1), rel=1e-14)

    def test_risk_neutral_point(self, fx_model):
        agg, per = risk_neutral_price(fx_model, 0.0, 1.0)
        assert agg == pytest.approx(V0_RISK_NEUTRAL, rel=1e-14)
        assert agg == pytest.approx(1.18784, abs=2e-5)
        assert per[0] == pytest.approx(1.25 - 0.25 * np.exp(-2.5875), rel=1e-14)

    def test_tc_correction_trivials(self, fx_model):
        assert tc_correction_closed(fx_model, 1e-8, 3.0, 1.0) == 0.0
        assert tc_correction_closed(fx_model, 1e-8, 0.5, 1.25) == 0.0

    def test_tc_correction_point(self, fx_model):
        got = tc_correction_closed(fx_model, 1e-8, 0.0, 1.0)
        assert got == pytest.approx(TC_STAR, rel=1e-12)
        assert np.sqrt(1e-7) * got == pytest.approx(-0.0349, abs=1e-4)

    def test_tc_correction_sign_and_slope(self, fx_model):
        # sign follows x - mean; loading on x is nonnegative
        assert tc_correction_closed(fx_model, 1e-8, 1.0, 1.5) > 0
        assert tc_correction_closed(fx_model, 1e-8, 1.0, 1.0) < 0
        lo = tc_correction_closed(fx_model, 1e-8, 1.0, 1.2)
        hi = tc_correction_closed(fx_model, 1e-8, 1.0, 1.3)
        assert hi >= lo

    def test_hc_correction_trivials(self, fx_model):
        assert hc_correction_closed(fx_model, 1e-7, 3.0, 1.0) == 0.0
        assert hc_correction_closed(fx_model, 1e-7, 0.5, 1.25) == 0.0

    def test_hc_correction_point(self, fx_model):
        got = hc_correction_closed(fx_model, 1e-7, 0.0, 1.0)
        assert got == pytest.approx(HC_STAR, rel=1e-12)
        assert 1e-8 * got == pytest.approx(0.002675, abs=1e-6)

    def test_hc_correction_bracket_sign(self, fx_model):
        # bracket <= 0, so the correction opposes x - mean
        assert hc_correction_closed(fx_model, 1e-7, 1.0, 1.5) < 0
        assert hc_correction_closed(fx_model, 1e-7, 1.0, 1.0) > 0

    def test_hc_correction_matches_quadrature(self, fx_model):
        # independent oracle: numeric quadrature of the integral representation
        kap = np.array(fx_model.kappas)
        T = 3.0
        for t, x in ((0.0, 1.0), (0.8, 1.4), (2.2, 1.1)):
            total = 0.0
            for i in range(2):
                f = lambda s: (T - s) / 1e-7 * (
                    np.mean(np.exp(-kap * (T - s))) - np.exp(-kap[i] * (T - s))
                ) * np.exp(-kap[i] * (s - t)) * (x - 1.25)
                val, _ = quad(f, t, T, limit=200)
                total += val
            total /= 2
            assert hc_correction_closed(fx_model, 1e-7, t, x) == pytest.approx(
                total, rel=1e-9, abs=1e-6)

    def test_hc_correction_rejects_repeated_speeds(self):
        twin = OuModel(kappas=(0.5, 0.5), mean_X=1.25, sigma=0.1, horizon_T=3.0)
        with pytest.raises(ValueError, match="integral-representation"):
            hc_correction_closed(twin, 1e-7, 0.0, 1.0)


class TestVolatilityCurve:
    def test_all_one_at_horizon(self, fx_model, fx_ab):
        b, lo, hi = volatility_curve(fx_model, fx_ab, 3.0)
        assert float(b) == pytest.approx(1.0, rel=1e-12)
        assert float(lo) == 1.0 and float(hi) == 1.0

    def test_homogeneous_curves_coincide(self):
        m = OuModel(kappas=(0.575, 0.575), mean_X=1.25, sigma=0.128, horizon_T=3.0)
        ab = solve_ab(m, CostKernel(1e-8, 1e-7, 3.0), 500)
        ts = np.linspace(0.0, 3.0, 11)
        b, lo, hi = volatility_curve(m, ab, ts)
        assert np.allclose(lo, hi, rtol=1e-14)
        assert np.allclose(b, lo, atol=1e-8)

    def test_jensen_ordering(self, fx_model, fx_ab):
        ts = np.linspace(0.0, 3.0, 301)
        _, lo, hi = volatility_curve(fx_model, fx_ab, ts)
        assert np.all(hi >= lo - 1e-15)

    def test_interpolation_envelope(self, fx_model, fx_ab):
        b, lo, hi = volatility_curve(fx_model, fx_ab, fx_ab.ts)
        assert np.all(b >= lo - 1e-6)
        assert np.all(b <= hi + 1e-6)

    def test_monotone_in_cost_ratio(self, fx_model):
        # larger gamma/lambda pulls the loading toward the frictionless envelope
        vals = []
        for r in (0.01, 0.1, 1.0, 10.0, 100.0):
            k = CostKernel(r * 1e-7, 1e-7, 3.0)
            ab = solve_ab(fx_model, k, 1000)
            vals.append(float(ab.b_bar(0.0)))
        assert all(b > a for a, b in zip(vals, vals[1:])) is False
        assert all(a > b for a, b in zip(vals, vals[1:]))


class TestExpansionChecks:
    def test_singular_rate(self, fx_model):
        # (price(lam) - frictionless)/sqrt(lam) -> closed-form correction
        v0 = frictionless_price(fx_model, 0.0, 1.0)
        target = tc_correction_closed(fx_model, 1e-8, 0.0, 1.0)
        gaps = []
        lams = [1e-9 * 4.0 ** (-k) for k in range(4)]
        for lam in lams:
            k = CostKernel(1e-8, lam, 3.0)
            n = max(3000, int(50 * k.rate_a * 3.0))
            ab = solve_ab(fx_model, k, n)
            ratio_k = (ab.value(0.0, 1.0) - v0) / np.sqrt(lam)
            gaps.append(abs(ratio_k - target))
        # empirical slope of log-error against log-lambda at least 0.4
        slope = np.polyfit(np.log(lams), np.log(gaps), 1)[0]
        assert slope >= 0.4
        assert gaps[-1] / abs(target) < 0.05

    def test_regular_rate(self, fx_model):
        v0, _ = risk_neutral_price(fx_model, 0.0, 1.0)
        target = hc_correction_closed(fx_model, 1e-7, 0.0, 1.0)
        gaps = []
        for k_i in range(3):
            g = 1e-9 * 2.0 ** (-k_i)
            ab = solve_ab(fx_model, CostKernel(g, 1e-7, 3.0), 2000)
            gaps.append(abs((ab.value(0.0, 1.0) - v0) / g - target))
        # first-order remainder: halving gamma roughly halves the gap
        assert gaps[1] < 0.65 * gaps[0]
        assert gaps[2] < 0.65 * gaps[1]


class TestDenseOutput:
    def test_hermite_matches_nodes(self, fx_ab):
        k = 137
        t = fx_ab.ts[k]
        assert np.allclose(fx_ab.b_at(t), fx_ab.B[k], rtol=1e-13)
        assert np.allclose(fx_ab.a_at(t), fx_ab.A[k], rtol=1e-13)

    def test_hermite_between_nodes(self, fx_model, fx_kernel, fx_ab):
        # off-mesh values agree with a twice-finer solve
        fine = solve_ab(fx_model, fx_kernel, 6000)
        tq = np.array([0.12345, 1.98765, 2.71828])
        assert np.allclose(fx_ab.b_at(tq), fine.b_at(tq), atol=1e-10)

    def test_surface_protocol(self, fx_ab):
        assert fx_ab.x_bounds == (-np.inf, np.inf)

    def test_agent_drift_matches_affine_form(self, fx_ab, fx_model):
        # mu_i = (x - mean) Bbar'(t) + kappa_i (mean - x) Bbar(t)
        ts = np.linspace(0.0, 3.0, 5)
        xs = np.linspace(1.0, 1.5, 5)
        for i, kap in enumerate(fx_model.kappas):
            for t in ts:
                for x in xs:
                    expect = (x - 1.25) * fx_ab.b_bar_deriv(t) + kap * (1.25 - x) * fx_ab.b_bar(t)
                    assert fx_ab.agent_drift(i, t, x) == pytest.approx(float(expect), abs=1e-12)
