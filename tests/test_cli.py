"""Command line: exit codes on degenerate markets and the files each command writes."""

import json
import os
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from illiquid_eq import asymptotics as asy
from illiquid_eq import cli, pde
from illiquid_eq.cli import COMMANDS, main
from illiquid_eq.kernel import CostKernel
from illiquid_eq.model import MarketSpec
from illiquid_eq.ou import OuModel, ou_beliefs, solve_ab
from illiquid_eq.pde import Grid1D, solve_equilibrium

OU_FX = """\
model:
  beliefs: {type: ou, kappas: [0.8625, 0.2875], mean: 1.25, sigma: 0.128}
  payoff: {type: identity}
  costs: {gamma: 1.0e-8, lambda: 1.0e-7}
  horizon: 3.0
  supply: 0.0
  allocations: [1.0, -1.0]
numerics:
  ode_steps: 3000
  x_eval: 1.0
  grid: {x_min: 0.53, x_max: 1.97, nx: 241, nt: 601}
  mc: {paths: 400, steps: 100}
  seed: 3
"""

# constant beliefs: the strategies are deterministic, so the Monte Carlo
# standard error of the Gateaux estimate is at roundoff
CONSTANT = ["--set", "model.beliefs={type: constant, drifts: [0.02, -0.01], vols: [0.1, 0.1]}",
            "--set", "numerics.grid={x_min: -1, x_max: 3, nx: 201, nt: 601}"]


@pytest.fixture
def config(tmp_path):
    path = tmp_path / "ou_fx.yaml"
    path.write_text(OU_FX)
    return path


def _verify(config, tmp_path, *args):
    out = tmp_path / "out"
    code = main(["verify", "--config", str(config), "--out", str(out), *args])
    report = out / "verify_report.json"
    return code, json.loads(report.read_text()) if report.exists() else None


def _oks(node):
    if "ok" in node:
        yield node["ok"]
    else:
        for child in node.values():
            yield from _oks(child)


def test_constant_beliefs_pass(config, tmp_path):
    code, report = _verify(config, tmp_path, *CONSTANT)
    assert code == 0
    assert all(g["value"] <= 3.0 for g in report["checks"]["gateaux"].values())
    assert all(g["exit_frac"] == 0.0 for g in report["checks"]["gateaux"].values())
    oks = list(_oks(report["checks"]))
    assert len(oks) == 7 and all(type(ok) is bool for ok in oks)


def test_constant_beliefs_sabotage_detected(config, tmp_path):
    code, report = _verify(config, tmp_path, *CONSTANT, "--sabotage")
    assert code == 1
    assert all(g["value"] > 5.0 for g in report["checks"]["gateaux"].values())


def test_positive_supply_clears(config, tmp_path):
    # the surface carries the supply: positions sum to a0 and the
    # Feynman-Kac and optimality gates hold
    code, report = _verify(config, tmp_path, "--set", "model.supply=1.0",
                           "--set", "model.allocations=[1.0, 0.0]")
    assert code == 0
    assert report["checks"]["clearing_residual"]["value"] <= 1e-6


def test_perturbation_gate_bites_when_nobody_trades(config, tmp_path):
    # identical beliefs and zero allocations: every position stays zero, so
    # the bumps need a scale of their own to move the strategy at all
    code, report = _verify(config, tmp_path, "--set", "model.beliefs.kappas=[0.5, 0.5]",
                           "--set", "model.allocations=[0.0, 0.0]",
                           "--set", "numerics.mc={paths: 500, steps: 100}")
    gaps = [node["worst_gap_plus_3se"]
            for node in report["checks"]["objective_perturbation"].values()]
    assert code == 0 and len(gaps) == 2 and all(gap > 0.0 for gap in gaps)


def test_odd_step_count_is_input_error(config, tmp_path, capsys):
    code, _ = _verify(config, tmp_path, *CONSTANT, "--set", "numerics.mc={paths: 50, steps: 101}")
    assert code == 2
    assert "even number of time steps" in capsys.readouterr().err


def test_paths_leaving_narrow_grid_are_input_error(config, tmp_path, capsys):
    code, report = _verify(config, tmp_path, *CONSTANT,
                           "--set", "numerics.grid={x_min: 0.9, x_max: 1.1, nx: 41, nt: 61}",
                           "--set", "numerics.mc={paths: 50, steps: 20}")
    assert code == 2 and report is None
    assert "path exits spatial grid" in capsys.readouterr().err


def test_verify_holds_few_path_arrays():
    # at its peak verify holds the batch paths, agent i's positions and rates,
    # one perturbed pair, and objective's drift rows with one temporary: 7 arrays
    # of paths x (steps + 1); it held about 12.6 when every agent's rows and the
    # clearing batch stayed alive
    config = Path(__file__).resolve().parents[1] / "configs" / "ou_fx.yaml"
    cfg = cli._config(config, ["numerics.mc={paths: 4000, steps: 100}"], None)
    tracemalloc.start()
    try:
        cli._verify_report(cfg, False)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 4000 * 101 * 8


def test_pde_solve_writes_only_the_csv(config, tmp_path):
    out = tmp_path / "out"
    code = main(["pde-solve", "--config", str(config), "--out", str(out),
                 "--set", "numerics.grid={x_min: 0.53, x_max: 1.97, nx: 21, nt: 11}"])
    assert code == 0
    assert sorted(p.name for p in out.iterdir()) == ["equilibrium.csv"]


def test_asymptotics_sweeps_honour_supply(config, tmp_path):
    # the supply lowers every gamma-sweep price, and the rescaled gap and its
    # closed form by the same a0 T / N, so their difference does not move
    small = ["--set", "numerics.grid={x_min: 0.53, x_max: 1.97, nx: 41, nt: 61}",
             "--set", "numerics.ode_steps=300", "--set", "numerics.refine=2"]
    tables = []
    for a0, allocations in ((0.0, "[1.0, -1.0]"), (1.0, "[1.0, 0.0]")):
        out = tmp_path / f"supply_{a0:g}"
        code = main(["asymptotics", "--config", str(config), "--out", str(out), *small,
                     "--set", f"model.supply={a0}", "--set", f"model.allocations={allocations}"])
        assert code == 0
        tables.append(np.loadtxt(out / "gamma_sweep.csv", delimiter=",", skiprows=1))
    base, supplied = tables
    gammas = base[:, 0]
    # prices are written to 12 significant digits
    np.testing.assert_allclose(base[:, 1] - supplied[:, 1], gammas * 3.0 / 2, rtol=0, atol=1e-11)
    np.testing.assert_allclose(supplied[:, 2] - supplied[:, 3], base[:, 2] - base[:, 3],
                               rtol=1e-6)


EXTREME_COSTS = ["--set", "model.costs={gamma: 1.0, lambda: 1.0e-9}"]
SMALL = ["--set", "numerics.grid={x_min: 0.53, x_max: 1.97, nx: 41, nt: 61}",
         "--set", "numerics.ode_steps=300", "--set", "numerics.refine=2"]


def test_ode_blowup_is_input_error(config, tmp_path, capsys):
    code = main(["ou-solve", "--config", str(config), "--out", str(tmp_path / "out"),
                 *EXTREME_COSTS, "--set", "numerics.ode_steps=100"])
    err = capsys.readouterr().err
    assert code == 2
    assert "non-finite state" in err and "gamma=1, lambda=1e-09" in err
    assert "Traceback" not in err


def test_asymptotics_step_bound_is_input_error(config, tmp_path, capsys):
    # the lambda sweep would ask for 50 a T = 75.9M RK4 steps at lambda = 1e-9/256;
    # the bound rejects that before any sweep is solved, and the trading-cost
    # chain, which a forked child has begun, is killed and writes nothing
    out = tmp_path / "out"
    t0 = time.perf_counter()
    code = main(["asymptotics", "--config", str(config), "--out", str(out),
                 *SMALL, *EXTREME_COSTS])
    assert time.perf_counter() - t0 < 10.0
    err = capsys.readouterr().err
    assert code == 2
    assert "n_steps=75894663 exceeds 200000" in err and "lambda=3.90625e-12" in err
    assert list(out.iterdir()) == []


# a degree-20 payoff on 7 nodes: the trading-cost chain refuses it as rough
ROUGH = ["--set", f"model.payoff={{type: polynomial, coeffs: {[0.0] * 20 + [1.0]}}}",
         "--set", "numerics.grid={x_min: 0.53, x_max: 1.97, nx: 7, nt: 11}",
         "--set", "numerics.refine=1"]


def _failing(message):
    def fail(*args, **kwargs):
        raise ValueError(message)
    return fail


@pytest.mark.parametrize("case", ["sweeps", "tc", "hc"])
def test_asymptotics_errors_keep_the_sequential_order(config, tmp_path, capsys, monkeypatch,
                                                      case):
    # the trading-cost chain runs in a forked child, the sweeps and then
    # hc_correction here; the first error in the order sweeps, tc, hc is the
    # one reported, and no child is left unreaped
    monkeypatch.setattr(asy, "hc_correction", _failing("hc failed"))
    args, message, files = {
        "sweeps": ([*SMALL, *EXTREME_COSTS], "n_steps=75894663 exceeds 200000", []),
        "tc": (ROUGH, "grid-scale oscillation dominates", []),
        "hc": (SMALL, "hc failed", ["gamma_sweep.csv", "lambda_sweep.csv"]),
    }[case]
    if case == "sweeps":
        monkeypatch.setattr(asy, "tc_correction", _failing("tc failed"))
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["asymptotics", "--config", str(config), "--out", str(out), *args])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and message in err and "Traceback" not in err
    assert sorted(p.name for p in out.iterdir()) == files
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("command, table", [("asymptotics", "lambda_sweep.csv"),
                                            ("figures", "fig_error_corrected.csv"),
                                            ("verify", "verify_report.json")])
def test_overflowing_x_eval_is_input_error(config, tmp_path, capsys, command, table):
    # from x_eval = 1e306 on the closed-form corrections overflow: asymptotics
    # wrote inf into its sweeps, figures -inf before its plot raised; verify's
    # gates overflow at 1e150 already, and it wrote an Infinity gap and exited 1
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([command, "--config", str(config), "--out", str(out), *SMALL,
                     "--set", "numerics.x_eval=1e306"])
    err = capsys.readouterr().err
    assert code == 2 and err.count("\n") == 1
    assert err.startswith("error: numerics.x_eval = 1e+306") and table in err
    assert list(out.iterdir()) == []


def _cells(path):
    lines = path.read_text().splitlines()
    return [line.split(",") for line in lines[1:]]


def test_asymptotics_sweep_rows_equal_single_solves(config, tmp_path):
    out = tmp_path / "out"
    assert main(["asymptotics", "--config", str(config), "--out", str(out), *SMALL]) == 0
    m = OuModel(kappas=(0.8625, 0.2875), mean_X=1.25, sigma=0.128, horizon_T=3.0)
    lams = [1e-7 * 4.0 ** (-k) for k in range(5)]
    gammas = [1e-8 * 2.0 ** (-k) for k in range(5)]
    # the whole batch takes the lambda sweep's finest mesh, 50 a T steps
    steps = max(300, int(50 * CostKernel(1e-8, lams[-1], 3.0).rate_a * 3.0))
    assert steps == 758
    for name, kernels in (("lambda_sweep.csv", [CostKernel(1e-8, lam, 3.0) for lam in lams]),
                          ("gamma_sweep.csv", [CostKernel(g, 1e-7, 3.0) for g in gammas])):
        rows = _cells(out / name)
        assert len(rows) == 5
        for row, kern in zip(rows, kernels):
            assert row[1] == f"{solve_ab(m, kern, steps).value(0.0, 1.0):.12g}"


def test_figures_honour_supply(config, tmp_path):
    tables = {}
    for a0, allocations in ((0.0, "[1.0, -1.0]"), (1.0, "[1.0, 0.0]")):
        out = tmp_path / f"supply_{a0:g}"
        code = main(["figures", "--config", str(config), "--out", str(out),
                     "--set", "numerics.ode_steps=600", "--set", f"model.supply={a0}",
                     "--set", f"model.allocations={allocations}"])
        assert code == 0
        tables[a0] = {name: np.loadtxt(out / f"{name}.csv", delimiter=",", skiprows=1)
                      for name in ("fig_prices", "fig_error_corrected")}
    base, supplied = tables[0.0]["fig_prices"], tables[1.0]["fig_prices"]
    drop = 1e-8 * (3.0 - base[:, 0]) / 2
    assert drop.max() > 1e-9
    # prices are written to 12 significant digits
    for col in (1, 2):   # price_both_costs, price_no_tc
        np.testing.assert_allclose(base[:, col] - supplied[:, col], drop, rtol=0, atol=1e-11)
    np.testing.assert_array_equal(base[:, 3], supplied[:, 3])   # price_no_hc
    np.testing.assert_allclose(tables[1.0]["fig_error_corrected"],
                               tables[0.0]["fig_error_corrected"], rtol=0, atol=1e-12)



@pytest.mark.parametrize("steps, rows", [(3001, 601), (1199, 601), (3000, 601), (300, 301)])
def test_figures_end_at_the_horizon(config, tmp_path, steps, rows):
    # a step count that the 600-row subsample does not divide kept the horizon off the figures
    code = main(["figures", "--config", str(config), "--out", str(tmp_path),
                 "--set", f"numerics.ode_steps={steps}"])
    assert code == 0
    t = np.loadtxt(tmp_path / "fig_prices.csv", delimiter=",", skiprows=1, usecols=0)
    assert (len(t), t[0], t[-1]) == (rows, 0.0, 3.0)
    assert np.all(np.diff(t) > 0)


REPEATED = ["--set", "model.beliefs.kappas=[0.5, 0.5, 0.2]",
            "--set", "model.allocations=[1.0, -0.5, -0.5]"]


def test_repeated_speeds_have_the_holding_cost_closed_form(config, tmp_path):
    # the closed form holds at repeated speeds: figures writes the corrected
    # error, and the gamma sweep's rescaled gap closes on a finite target at
    # first order, halving with gamma
    out = tmp_path / "out"
    for command in ("figures", "asymptotics"):
        assert main([command, "--config", str(config), "--out", str(out), *SMALL, *REPEATED]) == 0
    assert {"fig_error_corrected.csv", "fig_error_corrected.svg"} <= {p.name for p in out.iterdir()}
    sweep = np.loadtxt(out / "gamma_sweep.csv", delimiter=",", skiprows=1)
    assert np.all(np.isfinite(sweep))
    gaps = np.abs(sweep[:, 2] - sweep[:, 3])
    assert np.all(gaps[1:] < 0.6 * gaps[:-1])


# a constant payoff: the Feynman-Kac estimate and the surface agree to
# roundoff, and the estimate's SE is roundoff (OU beliefs) or exactly 0
CONSTANT_PAYOFF = ["--set", "model.payoff={type: constant, value: 2.0}",
                   "--set", "numerics.mc={paths: 200, steps: 50}"]


@pytest.mark.parametrize("beliefs", ["ou", "constant"])
def test_constant_payoff_passes_feynman_kac(config, tmp_path, beliefs):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, report = _verify(config, tmp_path, *CONSTANT_PAYOFF,
                               *(CONSTANT if beliefs == "constant" else []))
    assert code == 0
    assert all(report["checks"][f"feynman_kac_agent_{i}"]["z"] <= 1.0 for i in range(2))


@pytest.mark.parametrize("beliefs", ["ou", "constant"])
def test_feynman_kac_floor_still_sees_a_surface_off_by_1e_10(config, tmp_path, monkeypatch,
                                                             beliefs):
    def shifted(*args):
        sol = solve_equilibrium(*args)
        sol.vi += 1e-10
        return sol
    monkeypatch.setattr(pde, "solve_equilibrium", shifted)
    code, report = _verify(config, tmp_path, *CONSTANT_PAYOFF,
                           *(CONSTANT if beliefs == "constant" else []))
    assert code == 1
    assert not any(report["checks"][f"feynman_kac_agent_{i}"]["ok"] for i in range(2))


# payoffs other than f(x) = x, which the OU ODE reduction assumes
PAYOFFS = {"constant": "{type: constant, value: 7.0}",
           "polynomial": "{type: polynomial, coeffs: [0, 0, 1]}"}


@pytest.mark.parametrize("command", ["ou-solve", "figures"])
@pytest.mark.parametrize("kind", list(PAYOFFS))
def test_ode_commands_refuse_other_payoffs(config, tmp_path, capsys, command, kind):
    out = tmp_path / "out"
    code = main([command, "--config", str(config), "--out", str(out),
                 "--set", f"model.payoff={PAYOFFS[kind]}"])
    assert code == 2
    assert f"payoff type {kind!r}" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_verify_checks_the_pde_surface_for_other_payoffs(config, tmp_path):
    grid = Grid1D(x_min=0.53, x_max=1.97, nx=41, nt=61)
    code, report = _verify(config, tmp_path, "--set", f"model.payoff={PAYOFFS['polynomial']}",
                           "--set", "numerics.grid={x_min: 0.53, x_max: 1.97, nx: 41, nt: 61}")
    assert code == 0
    m = OuModel(kappas=(0.8625, 0.2875), mean_X=1.25, sigma=0.128, horizon_T=3.0)
    kernel = CostKernel(1e-8, 1e-7, 3.0)
    square = MarketSpec(kernel, 0.0, (1.0, -1.0),
                        lambda x: np.polynomial.polynomial.polyval(x, [0.0, 0.0, 1.0]))
    pde_surface = solve_equilibrium(square, ou_beliefs(m), grid)
    ode_surface = solve_ab(m, kernel, 3000)
    for i in range(2):
        value = report["checks"][f"feynman_kac_agent_{i}"]["surface"]
        assert value == pde_surface.agent_value(i, 0.0, 1.0)
        assert abs(value - ode_surface.agent_value(i, 0.0, 1.0)) > 0.1


def test_asymptotics_writes_no_sweeps_for_other_payoffs(config, tmp_path):
    out = tmp_path / "out"
    assert main(["asymptotics", "--config", str(config), "--out", str(out), *SMALL,
                 "--set", f"model.payoff={PAYOFFS['polynomial']}"]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["hc_correction.csv", "tc_correction.csv"]


def test_constant_payoff_has_zero_corrections(config, tmp_path):
    # the prices of a constant payoff vary along x by roundoff alone, which is
    # neither roughness nor disagreement: both corrections are exactly zero
    out = tmp_path / "out"
    assert main(["asymptotics", "--config", str(config), "--out", str(out), *SMALL,
                 "--set", f"model.payoff={PAYOFFS['constant']}"]) == 0
    for name in ("tc_correction.csv", "hc_correction.csv"):
        table = np.loadtxt(out / name, delimiter=",", skiprows=1)
        assert len(table) == 41 * 61 and not table[:, 2:].any()


@pytest.mark.parametrize("override", [
    "numerics.grid={x_min: 0.5}",              # KeyError
    "model.beliefs={type: ou}",
    "model.beliefs.kappas=0.5",                # TypeError
    "model.costs=3",
    "numerics.grid=[1, 2]",
    "numerics.mc=5",                           # AttributeError
    "model.payoff=3",
    "model.beliefs=null",
    "model.costs.gamma.value=1",               # --set through a non-mapping
    "model.costs={gamma: 1",                   # unparsable value
    "numerics.seed=-1",                        # OverflowError in the path generator
    "numerics.x_eval=.nan",                    # non-finite numbers
    "model.allocations=[.nan, .nan]",
    "model.costs.lambda=.inf",
    "model.supply=.nan",
    "model.horizon=.inf",
    "numerics.grid.x_max=.inf",
    "model.beliefs={type: ou, kappas: [], mean: 1, sigma: 0.1}",
    "model.beliefs={type: [1]}",               # an unhashable type
    "model=5",                                 # a section that is not a mapping
    "foo.bar=1",                               # an unknown section
    "output=null",
])
def test_malformed_config_is_input_error(config, tmp_path, capsys, override):
    code = main(["verify", "--config", str(config), "--out", str(tmp_path / "out"),
                 "--set", override])
    err = capsys.readouterr().err
    assert code == 2
    assert "error:" in err and "Traceback" not in err
    assert not (tmp_path / "out" / "verify_report.json").exists()


@pytest.mark.parametrize("override, name", [
    ("model.payoff={type: polynomial, coeffs: []}", "model.payoff.coeffs"),
    ("model.payoff={type: polynomial, coeffs: [0, 1e308, 1e308]}", "payoff is not finite"),
    ("model.payoff={type: constant, value: .inf}", "model.payoff.value"),
    ("model.beliefs.mean=.inf", "mean must be finite"),
    ("model.beliefs.kappas=[.inf, 0.2875]", "kappas must be finite"),
    ("model.beliefs={type: constant, drifts: [.inf, 0], vols: [0.1, 0.1]}", "drifts must be finite"),
    ("model.beliefs={type: constant, drifts: [0, 0], vols: [0, 0.1]}", "vols must be finite and positive"),
    ("model.beliefs={type: constant, drifts: [0, 0], vols: [-0.5, 0.1]}",
     "vols must be finite and positive"),
    ("model.allocations=[1.0, 1.0]", "allocations [1.0, 1.0] must sum to the supply"),
    ("model.allocations=[.inf, -.inf]", "allocations [inf, -inf] must sum to the supply and be finite"),
    ("model.allocations=[.nan, 0.0]", "allocations [nan, 0.0] must sum to the supply and be finite"),
])
def test_each_input_is_checked_where_it_enters(config, tmp_path, capsys, override, name):
    # no numpy warning may come before the message: an overflowing payoff is reported once
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["pde-solve", "--config", str(config), "--out", str(out), "--set", override])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and name in err and "Traceback" not in err
    assert not any(out.glob("*"))


@pytest.mark.parametrize("n", [7, 11])
@pytest.mark.parametrize("supply", ["1.0e4", "1.0e6"])
def test_default_allocations_meet_the_supply(config, tmp_path, n, supply):
    # [a0/N] * N misses a0 by roundoff of a0's size: 1.8e-12 for 7 agents at 1e4
    kappas = np.linspace(0.2, 0.9, n).tolist()
    out = tmp_path / "out"
    assert main(["pde-solve", "--config", str(config), "--out", str(out), *SMALL,
                 "--set", f"model.beliefs.kappas={kappas}", "--set", f"model.supply={supply}",
                 "--set", "model.allocations=null"]) == 0


@pytest.mark.parametrize("command, override, message", [
    ("simulate", "numerics.mc={paths: 50, step: 10}", "unknown key(s) ['step'] in numerics.mc"),
    ("pde-solve", "numerics.grid={x_min: 0.5, x_max: 2.0, NX: 11, nt: 5}",
     "unknown key(s) ['NX'] in numerics.grid"),
    ("ou-solve", "model.costs={gamma: 1e-8, lambda: 1e-7, lamda: 5}",
     "unknown key(s) ['lamda'] in model.costs"),
    ("ou-solve", "model.beliefs.sigmaa=0.1", "unknown key(s) ['sigmaa'] in model.beliefs"),
    ("pde-solve", "model.beliefs.vols=[0.1, 0.1]",
     "unknown key(s) ['vols'] in model.beliefs of type 'ou'"),
    ("pde-solve", "model.payoff.valeu=3", "unknown key(s) ['valeu'] in model.payoff"),
    ("pde-solve", "model.payoff={type: constant, value: 7.0, coeffs: [1]}",
     "unknown key(s) ['coeffs'] in model.payoff of type 'constant'"),
    ("simulate", "numerics.mc=[50, 10]", "numerics.mc must be a mapping"),
    ("pde-solve", "numerics.grid=0", "numerics.grid must be a mapping"),
    ("ou-solve", "model.payoff=identity", "model.payoff must be a mapping"),
])
def test_nested_key_typos_are_input_errors(config, tmp_path, capsys, command, override, message):
    out = tmp_path / "out"
    code = main([command, "--config", str(config), "--out", str(out), "--set", override])
    assert code == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not any(out.glob("*"))


def test_infinite_grid_bound_blames_the_grid(config, tmp_path, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["pde-solve", "--config", str(config), "--out", str(tmp_path / "out"),
                     "--set", "numerics.grid.x_max=.inf"])
    assert code == 2
    assert "grid bounds must be finite" in capsys.readouterr().err
    assert not any((tmp_path / "out").glob("*"))


@pytest.mark.parametrize("override, message", [
    ("numerics.refine=0", "numerics.refine must be at least 1, got 0"),
    ("numerics.refine=-2", "numerics.refine must be at least 1, got -2"),
    ("numerics.refine=1.5", "numerics.refine must be an integer, got 1.5"),
    ("numerics.refine=true", "numerics.refine must be an integer, got True"),
    ("numerics.grid.nx=240.5", "numerics.grid.nx must be an integer, got 240.5"),
    ("numerics.grid.nt=false", "numerics.grid.nt must be an integer, got False"),
    ("numerics.ode_steps=2999.9", "numerics.ode_steps must be an integer, got 2999.9"),
    ("numerics.seed=3.5", "numerics.seed must be an integer, got 3.5"),
    ("numerics.mc.paths=true", "numerics.mc.paths must be an integer, got True"),
    ("numerics.mc.steps=.inf", "numerics.mc.steps must be an integer, got inf"),
    ("numerics.mc.steps='100'", "numerics.mc.steps must be an integer, got '100'"),
])
def test_integer_keys_are_not_truncated(config, tmp_path, capsys, override, message):
    # asymptotics writes its sweeps before it refines the grid: nothing may be written
    out = tmp_path / "out"
    code = main(["asymptotics", "--config", str(config), "--out", str(out), "--set", override])
    assert code == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not any(out.glob("*"))


def test_integral_float_is_an_integer(config, tmp_path):
    out = tmp_path / "out"
    assert main(["pde-solve", "--config", str(config), "--out", str(out),
                 "--set", "numerics.grid={x_min: 0.53, x_max: 1.97, nx: 41.0, nt: 61.0}"]) == 0
    assert len(np.loadtxt(out / "equilibrium.csv", delimiter=",", skiprows=1)) == 41 * 61


def test_output_directory_must_be_a_path(config, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = main(["simulate", "--config", str(config), "--set", "output.directory=5"])
    assert code == 2
    assert "output.directory must be a path" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [config]


def test_output_formats_is_unknown_key(config, tmp_path, capsys):
    # no command reads an output format, so a config that sets one is refused
    config.write_text(OU_FX + "output: {formats: [csv]}\n")
    out = tmp_path / "out"
    assert main(["pde-solve", "--config", str(config), "--out", str(out)]) == 2
    assert "unknown key(s) ['formats'] in section 'output'" in capsys.readouterr().err
    config.write_text(OU_FX)
    assert main(["pde-solve", "--config", str(config), "--out", str(out),
                 "--set", "output.formats=[csv]"]) == 2
    assert "unknown key(s) ['formats'] in section 'output'" in capsys.readouterr().err
    assert not out.exists()


def test_unknown_keys_of_mixed_types_are_input_error(config, tmp_path, capsys):
    # YAML reads `1: 2` as an int key, which does not sort with a str key
    config.write_text(OU_FX + "foo: 1\n1: 2\n")
    out = tmp_path / "out"
    assert main(["pde-solve", "--config", str(config), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "error: unknown key(s) ['foo', 1] in the config" in err and "Traceback" not in err
    assert not out.exists()


def test_zero_cost_is_input_error(config, tmp_path, capsys):
    code = main(["pde-solve", "--config", str(config), "--out", str(tmp_path / "out"),
                 "--set", "model.costs={gamma: 0.0, lambda: 1.0e-7}"])
    assert code == 2
    assert "both costs must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["verify", "simulate"])
def test_single_path_is_input_error(config, tmp_path, capsys, command):
    # one path has no standard error: verify wrote NaN and Infinity tokens
    # and simulate a nan standard deviation
    out = tmp_path / "out"
    code = main([command, "--config", str(config), "--out", str(out),
                 "--set", "numerics.mc={paths: 1, steps: 10}"])
    assert code == 2
    assert "numerics.mc.paths must be at least 2" in capsys.readouterr().err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("command", list(COMMANDS))
def test_every_command_writes_the_files_it_prints(config, tmp_path, capsys, command):
    out = tmp_path / "out"
    args = [command, "--out", str(out)]
    if command != "calibrate":
        args += ["--config", str(config), *SMALL]
    if command == "simulate":
        args.append("--dump-paths")
    assert main(args) == 0
    with pytest.raises(ChildProcessError):   # no forked child is left unreaped
        os.waitpid(-1, os.WNOHANG)
    printed = capsys.readouterr().out.splitlines()
    if command == "verify":
        assert printed.pop() == "verification passed"
    assert printed and sorted(printed) == sorted(str(p) for p in out.iterdir())


def test_calibrate_rejects_unusable_series(tmp_path, capsys):
    one_column = tmp_path / "one_column.csv"
    one_column.write_text("DATE\n2019-01-02\n")
    for csv_path, message in ((tmp_path / "missing.csv", "No such file"),
                              (one_column, "at least two columns")):
        code = main(["calibrate", "--csv", str(csv_path), "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err


def _series(values, dates=None) -> str:
    """A daily-quote CSV of ``values``, on consecutive days unless ``dates`` are given."""
    dates = dates or [str(np.datetime64("2010-01-01") + k) for k in range(len(values))]
    return "DATE,DEXUSEU\n" + "".join(f"{d},{v}\n" for d, v in zip(dates, values))


def _with_line_11(value) -> str:
    """A smooth series, which calibrates, with ``value`` on line 11 (the header, then rows 0..9)."""
    values = [f"{1.2 + 0.05 * np.sin(k / 30):.6f}" for k in range(150)]
    return _series(values[:9] + [value] + values[10:])


def _calibrate(tmp_path, text):
    """Exit code of ``calibrate`` on a CSV holding ``text``, with numpy warnings as errors."""
    path = tmp_path / "series.csv"
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return main(["calibrate", "--csv", str(path), "--out", str(tmp_path / "out")]), path


@pytest.mark.parametrize("text, message", [
    ("", "{path}: empty file"),
    ("DATE,DEXUSEU\n2010-01-01,1.0\n2010-01-02\n", "{path}:3: malformed row"),
    (_series([1.0, "abc"]), "{path}:3: non-numeric value 'abc'"),
    (_series(["."] * 5), "{path}: no usable observations"),
    (_series([1.0, 1.1, 1.2], ["2010-01-01", "2010-01-03", "2010-01-02"]),
     "dates must be strictly increasing"),
    (_series(np.linspace(1.0, 1.5, 150),   # US dates from 12/01/2009, across the year end
             [(np.datetime64("2009-12-01") + k).item().strftime("%m/%d/%Y") for k in range(150)]),
     "{path}:2: date '12/01/2009' is not an ISO date (YYYY-MM-DD)"),
    (_series(np.linspace(1.0, 1.5, 99)), "need at least 100 observations"),
    (_series([1.25] * 120), "zero variance"),
    (_series([1.0, 2.0] * 60), "window too wide"),
    (_with_line_11("nan"), "{path}:11: non-finite value 'nan'"),
    (_with_line_11("inf"), "{path}:11: non-finite value 'inf'"),
    (_with_line_11("-inf"), "{path}:11: non-finite value '-inf'"),
    (_with_line_11("1e308"), "sample variance is not finite"),
], ids=["empty", "one-field", "non-numeric", "only-dots", "swapped-dates", "us-dates",
        "99-rows", "constant", "alternating", "nan", "inf", "-inf", "1e308"])
def test_calibrate_input_errors(tmp_path, capsys, text, message):
    # numpy warnings are errors here: a value is refused before it can warn
    code, path = _calibrate(tmp_path, text)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and message.format(path=path) in err
    assert not any((tmp_path / "out").glob("*"))


@pytest.mark.parametrize("args", [
    ["pde-solve", "--config", "{tmp}", "--out", "{tmp}/out"],
    ["calibrate", "--csv", "{tmp}", "--out", "{tmp}/out"],
    ["ou-solve", "--config", "{config}", "--out", "{config}"],
], ids=["config-is-a-directory", "csv-is-a-directory", "out-is-a-file"])
def test_unusable_path_is_input_error(config, tmp_path, capsys, args):
    assert main([a.format(tmp=tmp_path, config=config) for a in args]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert config.read_text() == OU_FX


def test_calibrate_pins_the_packaged_series(tmp_path):
    out = tmp_path / "out"
    assert main(["calibrate", "--out", str(out)]) == 0
    fit = json.loads((out / "calibration.json").read_text())
    assert fit["kappa_bar"] == pytest.approx(0.566683352303388, rel=1e-9)
    assert fit["mean_X"] == pytest.approx(1.261321563814867, rel=1e-9)
    assert fit["sigma"] == pytest.approx(0.1277471434840594, rel=1e-9)
    diagnostics = fit["diagnostics"]
    assert (diagnostics["lags_used"], diagnostics["n_dropped"], diagnostics["n_observations"]) \
        == (60, 16, 2852)
