"""Command-line orchestration: config-driven solves, verification, figures.

One declarative YAML (or JSON) config with three sections drives every
command; ``--set section.key=value`` overrides individual keys.  ``_config``
checks every key, at any level, against one table, ``_SCHEMA``, once the
overrides are applied; ``_build`` reads the values: a missing or unknown
key, a value of the wrong type or an invalid market is a ``ConfigError``.
Each command is one entry of ``COMMANDS``.  Exit codes: 0 success, 1
verification failure, 2 input error (every ``ValueError`` and ``OSError``,
with a message and no traceback).
"""

from __future__ import annotations

import argparse
import json
import sys
from importlib.resources import files as package_files
from pathlib import Path

import numpy as np
import yaml

from . import asymptotics as asy
from . import calibrate as cal
from . import ou as oumod
from . import pde, portfolio, simulate, svgplot
from .kernel import CostKernel, supply_drag
from .model import MarketSpec, constant_beliefs, validate
from .util import fork_call, write_csv

__all__ = ["ConfigError", "main"]

# Every config key: a set lists a mapping's keys, a dict of sets a typed mapping's
# keys by its `type`, any other dict each key's own entry (None: not a mapping).
_SCHEMA = {
    "model": {"beliefs": {"ou": {"kappas", "mean", "sigma"}, "constant": {"drifts", "vols"}},
              "payoff": {"identity": set(), "constant": {"value"}, "polynomial": {"coeffs"}},
              "costs": {"gamma", "lambda"}, "supply": None, "allocations": None,
              "horizon": None},
    "numerics": {"grid": {"x_min", "x_max", "nx", "nt"}, "mc": {"paths", "steps"},
                 "ode_steps": None, "seed": None, "x_eval": None, "refine": None},
    "output": {"directory"},
}


class ConfigError(ValueError):
    """Malformed or incomplete run configuration."""


def _config(path, overrides, seed) -> dict:
    """The config file at ``path`` with the ``--set`` pairs and ``--seed`` applied, keys checked."""
    try:
        with open(path) as fh:
            cfg = yaml.safe_load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse {path}: {exc}")
    if not isinstance(cfg, dict) or not cfg:
        raise ConfigError(f"{path}: config must be a mapping with model/numerics/output")
    for name in _SCHEMA:  # YAML reads a section left empty as null
        cfg[name] = cfg.get(name) or {}
    if seed is not None:
        overrides = [*overrides, f"numerics.seed={seed}"]
    for pair in overrides:
        if "=" not in pair:
            raise ConfigError(f"--set needs section.key=value, got {pair!r}")
        dotted, value = pair.split("=", 1)
        *parents, key = dotted.split(".")
        node = cfg
        for p in parents:
            node = node.setdefault(p, {})
            if not isinstance(node, dict):
                raise ConfigError(f"--set {dotted}: '{p}' is not a mapping")
        try:
            node[key] = yaml.safe_load(value)
        except yaml.YAMLError as exc:
            raise ConfigError(f"--set {dotted}: cannot parse {value!r}: {exc}")
    _check(cfg, _SCHEMA, "")
    return cfg


def _check(value, keys, path: str) -> None:
    """Refuse a key of the mapping ``value``, at any depth, that its _SCHEMA entry ``keys`` lacks."""
    where = f"section '{path}'" if path in _SCHEMA else path or "the config"
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be a mapping, got {value!r}")
    if isinstance(keys, dict) and all(isinstance(entry, set) for entry in keys.values()):
        # a typed mapping; only the payoff has a default type
        kind = value.get("type", "identity" if "identity" in keys else None)
        if not isinstance(kind, str) or kind not in keys:
            raise ConfigError(f"unknown {where} type {kind!r}")
        keys, where = keys[kind] | {"type"}, f"{where} of type {kind!r}"
    unknown = set(value) - set(keys)
    if unknown:
        # by repr: YAML keys may mix types, such as 'foo' and 1, which do not compare
        raise ConfigError(f"unknown key(s) {sorted(unknown, key=repr)} in {where}")
    if isinstance(keys, dict):
        for key, entry in keys.items():
            if entry is not None and key in value:
                _check(value[key], entry, f"{path}.{key}" if path else key)


def _payoff_from(cfg: dict):
    """(payoff callable, payoff type) of the model section; its numbers must be finite."""
    spec = cfg.get("payoff", {})
    kind = spec.get("type", "identity")
    if kind == "identity":
        return lambda x: np.asarray(x, dtype=float) + 0.0, kind
    if kind == "constant":
        c = float(spec.get("value", 0.0))
        if not np.isfinite(c):
            raise ConfigError(f"model.payoff.value must be finite, got {c}")
        return lambda x: np.full_like(np.asarray(x, dtype=float), c), kind
    coeffs = [float(c) for c in spec.get("coeffs", [0.0, 1.0])]
    if not coeffs or not np.all(np.isfinite(coeffs)):
        raise ConfigError(f"model.payoff.coeffs must be finite and not empty, got {coeffs}")
    return lambda x: np.polynomial.polynomial.polyval(np.asarray(x, dtype=float), coeffs), kind


def _build(cfg: dict):
    """(spec, beliefs, grid, numerics, payoff type) of a config whose keys _check passed.

    The one place that reads the model and numerics sections: a missing key
    or a value of the wrong type raises ConfigError, as does an input that
    its constructor rejects or a market that fails ``validate``.
    """
    try:
        return _read(cfg)
    except KeyError as exc:
        raise ConfigError(f"missing config key {exc}") from None
    except TypeError as exc:
        raise ConfigError(f"malformed config value: {exc}") from None


def _read(cfg: dict):
    m = cfg["model"]
    horizon = float(m["horizon"])
    kernel = CostKernel(gamma=float(m["costs"]["gamma"]), lam=float(m["costs"]["lambda"]),
                        horizon_T=horizon)

    bel = m["beliefs"]
    if bel["type"] == "ou":
        beliefs = oumod.ou_beliefs(oumod.OuModel(
            kappas=tuple(float(k) for k in bel["kappas"]), mean_X=float(bel["mean"]),
            sigma=float(bel["sigma"]), horizon_T=horizon))
    else:
        beliefs = constant_beliefs([float(b) for b in bel["drifts"]],
                                   [float(s) for s in bel["vols"]])

    payoff, payoff_type = _payoff_from(m)
    supply = float(m.get("supply", 0.0))
    allocations = m.get("allocations")
    if allocations is None:
        allocations = [supply / beliefs.n_agents] * beliefs.n_agents
    spec = MarketSpec(kernel=kernel, supply_a0=supply,
                      allocations=tuple(float(a) for a in allocations),
                      payoff=payoff)

    n = cfg["numerics"]
    gcfg = n.get("grid", {})
    if gcfg:
        grid = pde.Grid1D(x_min=float(gcfg["x_min"]), x_max=float(gcfg["x_max"]),
                          nx=_integer(gcfg, "nx", pde.GRID_NX, "numerics.grid"),
                          nt=_integer(gcfg, "nt", pde.GRID_NT, "numerics.grid"))
    elif beliefs.ou is not None:
        grid = pde.default_grid(beliefs)
    else:
        raise ConfigError("non-ou beliefs need an explicit numerics.grid")

    report = validate(spec, beliefs, (grid.x_min, grid.x_max))
    if not report.ok:
        raise ConfigError(f"invalid model: {report}")

    mc = n.get("mc", {})
    num = {
        "ode_steps": _integer(n, "ode_steps", 3000, "numerics"),
        "seed": _integer(n, "seed", 3, "numerics"),
        "x_eval": float(n.get("x_eval", 1.0)),
        "refine": _integer(n, "refine", 4, "numerics"),
        "paths": _integer(mc, "paths", 10000, "numerics.mc"),
        "steps": _integer(mc, "steps", 600, "numerics.mc"),
    }
    if num["refine"] < 1:
        raise ConfigError(f"numerics.refine must be at least 1, got {num['refine']}")
    if num["paths"] < 2:
        raise ConfigError(f"numerics.mc.paths must be at least 2 for a standard error, "
                          f"got {num['paths']}")
    if num["seed"] < 0:
        raise ConfigError(f"numerics.seed must be nonnegative, got {num['seed']}")
    if not np.isfinite(num["x_eval"]):
        raise ConfigError(f"numerics.x_eval must be finite, got {num['x_eval']}")
    return spec, beliefs, grid, num, payoff_type


def _integer(section, key: str, default: int, where: str) -> int:
    """An integer config value; a bool or a non-integral number, which int() would truncate, is refused."""
    value = section.get(key, default)
    if isinstance(value, bool) or not (isinstance(value, int)
                                       or isinstance(value, float) and value.is_integer()):
        raise ConfigError(f"{where}.{key} must be an integer, got {value!r}")
    return int(value)


def _ode_model(beliefs, payoff_type: str):
    """The OuModel of the ODE reduction, which needs OU beliefs and the identity payoff, or None."""
    return beliefs.ou if payoff_type == "identity" else None


def _require_ou(beliefs, payoff_type: str, what: str):
    if beliefs.ou is None:
        raise ConfigError(f"{what} requires beliefs of type 'ou'")
    if _ode_model(beliefs, payoff_type) is None:
        raise ConfigError(f"{what} solves the OU ODEs, which hold for the identity payoff only, "
                          f"not for payoff type {payoff_type!r}")
    return beliefs.ou


def _write_json(path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True, default=float)
        fh.write("\n")


# Each command takes (config, output directory, parsed arguments) and returns
# (files written, verdict): the verdict is None for commands without checks.

def cmd_ou_solve(cfg: dict, out: Path, args) -> tuple:
    spec, beliefs, _, num, payoff_type = _build(cfg)
    m = _require_ou(beliefs, payoff_type, "ou-solve")
    ab = oumod.solve_ab(m, spec.kernel, n_steps=num["ode_steps"], supply_a0=spec.supply_a0)
    path = out / "ab_curves.csv"
    oumod.curves_csv(ab, path, x_eval=num["x_eval"])
    return [path], None


def cmd_pde_solve(cfg: dict, out: Path, args) -> tuple:
    spec, beliefs, grid, _, _ = _build(cfg)
    sol = pde.solve_equilibrium(spec, beliefs, grid)
    path = out / "equilibrium.csv"
    sol.to_csv(path)
    return [path], None


def _write_sweeps(spec, m, num, out: Path) -> list:
    """Price at (0, x_eval) as lambda, then gamma, shrinks, against the closed forms."""
    x = num["x_eval"]
    g0, l0, T = spec.kernel.gamma, spec.kernel.lam, spec.horizon_T
    lams = [l0 * 4.0 ** (-k) for k in range(5)]
    gammas = [g0 * 2.0 ** (-k) for k in range(5)]
    kernels = [CostKernel(g0, lam, T) for lam in lams] + [CostKernel(g, l0, T) for g in gammas]
    # one batch on one mesh, fine enough for the stiffest lambda (50 steps per unit of a*T)
    steps = max([num["ode_steps"]] + [int(50 * k.rate_a * T) for k in kernels[:5]])
    a0 = spec.supply_a0
    prices = [ab.value(0.0, x)
              for ab in oumod.solve_ab_batch(m, kernels, n_steps=steps, supply_a0=a0)]

    drag = supply_drag(spec.kernel, a0 / m.n_agents, 0.0)
    v0f = oumod.frictionless_price(m, 0.0, x) + drag
    v0r, _ = oumod.risk_neutral_price(m, 0.0, x)
    tc_target = oumod.tc_correction_closed(m, g0, 0.0, x)
    hc_target = oumod.hc_correction_closed(m, l0, 0.0, x) + drag / g0
    p_lam, p_gam = out / "lambda_sweep.csv", out / "gamma_sweep.csv"
    write_csv(p_lam, ["lambda", "price", "rescaled_gap", "closed_form"],
              [(lam, v, (v - v0f) / np.sqrt(lam), tc_target)
               for lam, v in zip(lams, prices[:5])])
    write_csv(p_gam, ["gamma", "price", "rescaled_gap", "closed_form"],
              [(g, v, (v - v0r) / g, hc_target) for g, v in zip(gammas, prices[5:])])
    return [p_lam, p_gam]


def cmd_asymptotics(cfg: dict, out: Path, args) -> tuple:
    """The trading-cost chain in a forked child; the sweeps, then hc_correction, here.

    Errors keep the sequential order: a sweep's (costs too extreme for the
    ODE) first, then the trading-cost chain's, then hc_correction's.
    """
    spec, beliefs, grid, num, payoff_type = _build(cfg)
    m = _ode_model(beliefs, payoff_type)

    def sweeps_then_hc():
        sweeps = _write_sweeps(spec, m, num, out) if m is not None else []
        try:
            return sweeps, asy.hc_correction(spec, beliefs, grid), None
        except Exception as exc:  # raised below, after the child's error if it has one
            return sweeps, None, exc

    tc, (sweeps, hc, hc_error) = fork_call(
        lambda: asy.tc_correction(spec, beliefs, grid, refine=num["refine"]), sweeps_then_hc)
    if hc_error is not None:
        raise hc_error
    files = []
    for surf, name in ((tc, "tc_correction.csv"), (hc, "hc_correction.csv")):
        p = out / name
        surf.to_csv(p)
        files.append(p)
    return files + sweeps, None


def _verify_report(cfg: dict, sabotage: bool) -> dict:
    spec, beliefs, grid, num, payoff_type = _build(cfg)
    T = spec.horizon_T
    x0 = num["x_eval"]
    rate_scale = 1.5 if sabotage else 1.0
    m = _ode_model(beliefs, payoff_type)
    if m is not None:
        surface = oumod.solve_ab(m, spec.kernel, n_steps=num["ode_steps"],
                                 supply_a0=spec.supply_a0)
    else:
        surface = pde.solve_equilibrium(spec, beliefs, grid)

    batch = simulate.simulate(beliefs, 0, x0, 0.0, T, 2000, 100, seed=num["seed"])
    strat = portfolio.integrate_strategies(surface, spec, batch, rate_scale=rate_scale)
    resid = portfolio.clearing_residual(strat)
    clearing = {"value": resid, "bound": 1e-6, "ok": resid <= 1e-6}

    gate, obj, fk = {}, {}, {}
    for i in range(beliefs.n_agents):
        bi = simulate.simulate(beliefs, i, x0, 0.0, T, num["steps"], num["paths"],
                               seed=num["seed"] + i)
        si = portfolio.integrate_strategies(surface, spec, bi, rate_scale=rate_scale)
        res = portfolio.gateaux_residual(i, bi, si, surface, seed=num["seed"] + 100 + i)
        gate[f"agent_{i}"] = {"value": res.max_residual, "bound": 3.0,
                              "ok": res.max_residual <= 3.0, "exit_frac": si.exit_frac}
        # perturbation: optimal beats perturbed within Monte Carlo resolution
        dirs = portfolio.bump_directions(bi.ts, 5, seed=num["seed"] + 200 + i)
        # bumps on the scale of the positions; unit scale when the agent never
        # holds any, where a zero scale would compare the strategy with itself
        scale = float(np.sqrt(np.mean(si.positions[i] ** 2))) or 1.0
        base = portfolio.objective(i, bi, si, surface)
        worst = np.inf
        for d in range(dirs.shape[0]):
            theta = portfolio.cumulative_positions(bi.ts, dirs[d]) * scale
            pert = portfolio.objective(
                i, bi, si, surface,
                positions=si.positions[i] + 0.1 * theta[None, :],
                rates=si.rates[i] + 0.1 * scale * dirs[d][None, :])
            gap = base.per_path - pert.per_path
            worst = min(worst, gap.mean() + 3.0 * gap.std(ddof=1) / np.sqrt(len(gap)))
        obj[f"agent_{i}"] = {"worst_gap_plus_3se": float(worst), "ok": bool(worst >= 0.0)}
        est, se = simulate.feynman_kac_vi(beliefs, i, surface, spec.kernel, 0.0, x0,
                                          npaths=num["paths"], seed=num["seed"] + 300 + i,
                                          nt=num["steps"])
        exact = surface.agent_value(i, 0.0, x0)
        # the SE with a roundoff floor: a constant payoff's SE is roundoff or 0
        gap = abs(est - exact)
        z = gap / np.hypot(se, 64 * np.finfo(float).eps * max(abs(est), abs(exact))) if gap else 0.0
        fk[f"feynman_kac_agent_{i}"] = {"estimate": est, "surface": exact, "z": z,
                                        "ok": bool(z <= 3.0)}

    passed = all(node["ok"] for node in [clearing, *gate.values(), *obj.values(), *fk.values()])
    checks = {"clearing_residual": clearing, "gateaux": gate, "objective_perturbation": obj, **fk}
    return {"passed": passed, "sabotage": sabotage, "checks": checks}


def cmd_verify(cfg: dict, out: Path, args) -> tuple:
    report = _verify_report(cfg, args.sabotage)
    path = out / "verify_report.json"
    _write_json(path, report)
    return [path], report["passed"]


def cmd_simulate(cfg: dict, out: Path, args) -> tuple:
    spec, beliefs, _, num, _ = _build(cfg)
    rows = []
    files = []
    for measure in list(range(beliefs.n_agents)) + ["average"]:
        batch = simulate.simulate(beliefs, measure, num["x_eval"], 0.0, spec.horizon_T,
                                  num["steps"], num["paths"], seed=num["seed"])
        XT = batch.paths[:, -1]
        rows.append((batch.measure, batch.npaths, float(XT.mean()), float(XT.std(ddof=1)),
                     float(batch.paths.min()), float(batch.paths.max())))
        if args.dump_paths:
            k = min(batch.npaths, 20)
            p = out / f"paths_{batch.measure}.csv"
            write_csv(p, ["t"] + [f"path{j}" for j in range(k)],
                      np.column_stack([batch.ts, batch.paths[:k].T]).tolist())
            files.append(p)
    p = out / "simulation_summary.csv"
    write_csv(p, ["measure", "paths", "terminal_mean", "terminal_std", "min", "max"], rows)
    return [p] + files, None


def cmd_calibrate(cfg, out: Path, args) -> tuple:
    """Fit the OU parameters to ``--csv`` (default: the packaged USD/EUR series)."""
    csv_path = args.csv or str(package_files("illiquid_eq").joinpath("data/dexuseu_2009_2019.csv"))
    path = out / "calibration.json"
    _write_json(path, cal.calibrate(csv_path))
    return [path], None


def cmd_figures(cfg: dict, out: Path, args) -> tuple:
    spec, beliefs, _, num, payoff_type = _build(cfg)
    m = _require_ou(beliefs, payoff_type, "figures")
    x = num["x_eval"]
    a0 = spec.supply_a0
    ab = oumod.solve_ab(m, spec.kernel, n_steps=num["ode_steps"], supply_a0=a0)
    # at most 600 steps, on nodes of the ODE grid, its first and last included
    ts = ab.ts[np.unique(np.linspace(0, len(ab.ts) - 1, min(len(ab.ts), 601)).round().astype(int))]
    bbar, env_lo, env_hi = oumod.volatility_curve(ab, ts)
    drag = supply_drag(spec.kernel, a0 / m.n_agents, ts)
    gamma = spec.kernel.gamma
    price_both = ab.value(ts, x)
    price_no_hc, _ = oumod.risk_neutral_price(m, ts, x)
    vstar = oumod.hc_correction_closed(m, spec.kernel.lam, ts, x) + drag / gamma
    sig = m.sigma

    # (file stem, title, y label, curves of (CSV column, values, legend, line style))
    figures = [
        ("fig_prices", f"Equilibrium price at x={x:g}", "price",
         [("price_both_costs", price_both, "both costs", "solid"),
          ("price_no_tc", oumod.frictionless_price(m, ts, x) + drag,
           "no trading cost", "dotted"),
          ("price_no_hc", price_no_hc, "no holding cost", "dashed")]),
        ("fig_volatilities", "Equilibrium volatility", "volatility",
         [("vol_both_costs", sig * bbar, "both costs", "solid"),
          ("vol_no_tc", sig * env_lo, "no trading cost", "dotted"),
          ("vol_no_hc", sig * env_hi, "no holding cost", "dashed")]),
        ("fig_error_uncorrected", "Approximation error, zeroth order", "error",
         [("error", price_no_hc - price_both, "risk-neutral minus exact", "solid")]),
        ("fig_error_corrected", "Approximation error, first order", "error",
         [("error", price_no_hc + gamma * vstar - price_both, "corrected minus exact", "solid")]),
    ]
    files = []
    for stem, title, ylabel, curves in figures:
        csv_path, svg_path = out / f"{stem}.csv", out / f"{stem}.svg"
        write_csv(csv_path, ["t"] + [c[0] for c in curves],
                  np.column_stack([ts] + [c[1] for c in curves]).tolist())
        svgplot.line_plot(svg_path, [(ts, y, label, style) for _, y, label, style in curves],
                          title=title, xlabel="t", ylabel=ylabel)
        files += [csv_path, svg_path]
    return files, None


COMMANDS = {
    "ou-solve": cmd_ou_solve,
    "pde-solve": cmd_pde_solve,
    "asymptotics": cmd_asymptotics,
    "simulate": cmd_simulate,
    "verify": cmd_verify,
    "calibrate": cmd_calibrate,
    "figures": cmd_figures,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="illiquid-eq",
        description="Equilibrium prices under heterogeneous beliefs with quadratic "
                    "holding and trading costs")
    parser.add_argument("command", choices=list(COMMANDS))
    parser.add_argument("--config", help="YAML/JSON run configuration")
    parser.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="section.key=value", help="override a config key")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="override numerics.seed")
    parser.add_argument("--csv", default=None, help="input series for 'calibrate'")
    parser.add_argument("--sabotage", action="store_true",
                        help="misscale the trading rate by 1.5 (verify must then fail)")
    parser.add_argument("--dump-paths", action="store_true")
    args = parser.parse_args(argv)
    if args.command != "calibrate" and not args.config:
        parser.error(f"'{args.command}' requires --config")

    try:
        cfg = None if args.command == "calibrate" else _config(args.config, args.overrides,
                                                               args.seed)
        directory = args.out or (cfg["output"].get("directory", "out") if cfg else "out")
        if not isinstance(directory, str):
            raise ConfigError(f"output.directory must be a path, got {directory!r}")
        out = Path(directory)
        out.mkdir(parents=True, exist_ok=True)
        files, verdict = COMMANDS[args.command](cfg, out, args)
    except (ValueError, OSError) as exc:
        # ConfigError, CalibrationError and the solvers' errors are ValueErrors;
        # an OSError is an input path that cannot be read or written
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for f in files:
        print(f)
    if verdict is None:
        return 0
    if not verdict:
        print("verification FAILED", file=sys.stderr)
        return 1
    print("verification passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
