"""Command line: exit codes on degenerate markets and the files each command writes."""

import json
import time
import warnings

import numpy as np
import pytest

from illiquid_eq.cli import COMMANDS, main
from illiquid_eq.kernel import CostKernel
from illiquid_eq.ou import OuModel, solve_ab

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
    # the bound rejects that before any sweep or PDE work is done
    out = tmp_path / "out"
    t0 = time.perf_counter()
    code = main(["asymptotics", "--config", str(config), "--out", str(out),
                 *SMALL, *EXTREME_COSTS])
    assert time.perf_counter() - t0 < 10.0
    err = capsys.readouterr().err
    assert code == 2
    assert "n_steps=75894663 exceeds 200000" in err and "lambda=3.90625e-12" in err
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
])
def test_malformed_config_is_input_error(config, tmp_path, capsys, override):
    code = main(["verify", "--config", str(config), "--out", str(tmp_path / "out"),
                 "--set", override])
    err = capsys.readouterr().err
    assert code == 2
    assert "error:" in err and "Traceback" not in err
    assert not (tmp_path / "out" / "verify_report.json").exists()


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
    assert "unknown key 'formats' in section 'output'" in capsys.readouterr().err
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


@pytest.mark.parametrize("max_lag", ["0", "-3"])
def test_calibrate_rejects_nonpositive_max_lag(tmp_path, capsys, max_lag):
    code = main(["calibrate", "--max-lag", max_lag, "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert "max_lag must be at least 1" in err and "Traceback" not in err
