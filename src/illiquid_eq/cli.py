"""Command-line orchestration: config-driven solves, verification, figures.

One declarative YAML (or JSON) config with three sections drives every
command; ``--set section.key=value`` overrides individual keys.  Exit codes:
0 success, 1 verification failure, 2 input error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

from . import asymptotics as asy
from . import calibrate as cal
from . import ou as oumod
from . import pde, portfolio, simulate, svgplot
from .kernel import CostKernel
from .model import MarketSpec, constant_beliefs, validate
from .util import write_csv

__all__ = ["RunConfig", "ConfigError", "main"]

_SECTION_KEYS = {
    "model": {"beliefs", "payoff", "costs", "supply", "allocations", "horizon"},
    "numerics": {"grid", "ode_steps", "mc", "seed", "x_eval", "refine"},
    "output": {"directory", "formats"},
}


class ConfigError(ValueError):
    """Malformed or incomplete run configuration."""


@dataclass
class RunConfig:
    model: dict
    numerics: dict
    output: dict

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        try:
            with open(path) as fh:
                raw = yaml.safe_load(fh)
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}")
        except yaml.YAMLError as exc:
            raise ConfigError(f"cannot parse {path}: {exc}")
        if not isinstance(raw, dict) or not raw:
            raise ConfigError(f"{path}: config must be a mapping with model/numerics/output")
        return cls.from_mapping(raw, origin=str(path))

    @classmethod
    def from_mapping(cls, raw: dict, origin: str = "<config>") -> "RunConfig":
        unknown = set(raw) - set(_SECTION_KEYS)
        if unknown:
            raise ConfigError(f"{origin}: unknown section(s) {sorted(unknown)}")
        sections = {}
        for name, allowed in _SECTION_KEYS.items():
            sec = raw.get(name, {}) or {}
            if not isinstance(sec, dict):
                raise ConfigError(f"{origin}: section '{name}' must be a mapping")
            bad = set(sec) - allowed
            if bad:
                raise ConfigError(f"{origin}: unknown key(s) {sorted(bad)} in section '{name}'")
            sections[name] = dict(sec)
        return cls(model=sections["model"], numerics=sections["numerics"],
                   output=sections["output"])

    def apply_overrides(self, pairs) -> None:
        for pair in pairs:
            if "=" not in pair:
                raise ConfigError(f"--set needs section.key=value, got {pair!r}")
            dotted, value = pair.split("=", 1)
            parts = dotted.split(".")
            if len(parts) < 2 or parts[0] not in _SECTION_KEYS:
                raise ConfigError(f"--set key must start with a section name: {pair!r}")
            if parts[1] not in _SECTION_KEYS[parts[0]]:
                raise ConfigError(f"unknown key '{parts[1]}' in section '{parts[0]}'")
            node = getattr(self, parts[0])
            for p in parts[1:-1]:
                node = node.setdefault(p, {})
            node[parts[-1]] = yaml.safe_load(value)


def _payoff_from(cfg: dict):
    spec = cfg.get("payoff", {"type": "identity"})
    kind = spec.get("type", "identity")
    if kind == "identity":
        return lambda x: np.asarray(x, dtype=float) + 0.0
    if kind == "constant":
        c = float(spec.get("value", 0.0))
        return lambda x: np.full_like(np.asarray(x, dtype=float), c)
    if kind == "polynomial":
        coeffs = [float(c) for c in spec.get("coeffs", [0.0, 1.0])]
        return lambda x: np.polynomial.polynomial.polyval(np.asarray(x, dtype=float), coeffs)
    raise ConfigError(f"unknown payoff type {kind!r}")


def _build(cfg: RunConfig):
    m = cfg.model
    try:
        horizon = float(m["horizon"])
        costs = m["costs"]
        gamma = float(costs["gamma"])
        lam = float(costs["lambda"])
        bel = m["beliefs"]
    except KeyError as exc:
        raise ConfigError(f"missing model key: {exc}")
    kernel = CostKernel(gamma=gamma, lam=lam, horizon_T=horizon)

    ou_model = None
    btype = bel.get("type")
    if btype == "ou":
        ou_model = oumod.OuModel(kappas=tuple(float(k) for k in bel["kappas"]),
                                 mean_X=float(bel["mean"]), sigma=float(bel["sigma"]),
                                 horizon_T=horizon)
        beliefs = oumod.ou_beliefs(ou_model)
    elif btype == "constant":
        beliefs = constant_beliefs([float(b) for b in bel["drifts"]],
                                   [float(s) for s in bel["vols"]])
    else:
        raise ConfigError(f"unknown beliefs type {btype!r}")

    supply = float(m.get("supply", 0.0))
    allocations = m.get("allocations")
    if allocations is None:
        allocations = [supply / beliefs.n_agents] * beliefs.n_agents
    spec = MarketSpec(kernel=kernel, supply_a0=supply,
                      allocations=tuple(float(a) for a in allocations),
                      payoff=_payoff_from(m))

    gcfg = cfg.numerics.get("grid")
    if gcfg:
        grid = pde.Grid1D(x_min=float(gcfg["x_min"]), x_max=float(gcfg["x_max"]),
                          nx=int(gcfg.get("nx", 241)), nt=int(gcfg.get("nt", 601)))
    elif beliefs.tag == "ou":
        grid = pde.default_grid(beliefs)
    else:
        raise ConfigError("non-ou beliefs need an explicit numerics.grid")

    report = validate(spec, beliefs, (grid.x_min, grid.x_max))
    if not report.ok:
        raise ConfigError(f"invalid model: {report}")
    return spec, beliefs, ou_model, grid


def _numerics(cfg: RunConfig):
    n = cfg.numerics
    mc = n.get("mc", {}) or {}
    return {
        "ode_steps": int(n.get("ode_steps", 3000)),
        "seed": int(n.get("seed", 3)),
        "x_eval": float(n.get("x_eval", 1.0)),
        "refine": int(n.get("refine", 4)),
        "paths": int(mc.get("paths", 10000)),
        "steps": int(mc.get("steps", 600)),
    }


def _require_ou(ou_model, what: str):
    if ou_model is None:
        raise ConfigError(f"{what} requires beliefs of type 'ou'")
    return ou_model


def cmd_ou_solve(cfg: RunConfig, out: Path) -> list:
    spec, beliefs, m, _ = _build(cfg)
    num = _numerics(cfg)
    m = _require_ou(m, "ou-solve")
    ab = oumod.solve_ab(m, spec.kernel, n_steps=num["ode_steps"], supply_a0=spec.supply_a0)
    path = out / "ab_curves.csv"
    oumod.curves_csv(m, ab, path, x_eval=num["x_eval"])
    return [path]

def cmd_pde_solve(cfg: RunConfig, out: Path) -> list:
    spec, beliefs, _, grid = _build(cfg)
    sol = pde.solve_equilibrium(spec, beliefs, grid)
    path = out / "equilibrium.csv"
    sol.to_csv(path)
    return [path]


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

    # the supply lowers the price by gamma a0 T/N and the holding-cost
    # correction by a0 T/N; the risk-neutral price does not see it
    shift = a0 * T / m.n_agents
    v0f = oumod.frictionless_price(m, 0.0, x) - g0 * shift
    v0r, _ = oumod.risk_neutral_price(m, 0.0, x)
    tc_target = oumod.tc_correction_closed(m, g0, 0.0, x)
    hc_target = oumod.hc_correction_closed(m, l0, 0.0, x) - shift \
        if m.kappas_distinct else float("nan")
    p_lam, p_gam = out / "lambda_sweep.csv", out / "gamma_sweep.csv"
    write_csv(p_lam, ["lambda", "price", "rescaled_gap", "closed_form"],
              [(lam, v, (v - v0f) / np.sqrt(lam), tc_target)
               for lam, v in zip(lams, prices[:5])])
    write_csv(p_gam, ["gamma", "price", "rescaled_gap", "closed_form"],
              [(g, v, (v - v0r) / g, hc_target) for g, v in zip(gammas, prices[5:])])
    return [p_lam, p_gam]


def cmd_asymptotics(cfg: RunConfig, out: Path) -> list:
    spec, beliefs, m, grid = _build(cfg)
    num = _numerics(cfg)
    # the sweeps run first, so costs too extreme for the ODE fail before the PDE work
    sweeps = _write_sweeps(spec, m, num, out) if m is not None else []
    files = []
    tc = asy.tc_correction(spec, beliefs, grid, refine=num["refine"])
    hc = asy.hc_correction(spec, beliefs, grid)
    for surf, name in ((tc, "tc_correction.csv"), (hc, "hc_correction.csv")):
        p = out / name
        surf.to_csv(p)
        files.append(p)
    return files + sweeps


def _verify_report(cfg: RunConfig, sabotage: bool) -> dict:
    spec, beliefs, m, grid = _build(cfg)
    num = _numerics(cfg)
    T = spec.horizon_T
    x0 = num["x_eval"]
    rate_scale = 1.5 if sabotage else 1.0
    if m is not None:
        surface = oumod.solve_ab(m, spec.kernel, n_steps=num["ode_steps"],
                                 supply_a0=spec.supply_a0)
    else:
        surface = pde.solve_equilibrium(spec, beliefs, grid)

    checks = {}

    batch = simulate.simulate(beliefs, 0, x0, 0.0, T, 2000, 100, seed=num["seed"])
    strat = portfolio.integrate_strategies(surface, spec, batch, rate_scale=rate_scale)
    resid = portfolio.clearing_residual(strat)
    checks["clearing_residual"] = {"value": resid, "bound": 1e-6, "ok": resid <= 1e-6}

    gate = {}
    obj = {}
    for i in range(beliefs.n_agents):
        bi = simulate.simulate(beliefs, i, x0, 0.0, T, num["steps"], num["paths"],
                               seed=num["seed"] + i)
        si = portfolio.integrate_strategies(surface, spec, bi, rate_scale=rate_scale)
        res = portfolio.gateaux_residual(i, bi, si, surface, seed=num["seed"] + 100 + i)
        gate[f"agent_{i}"] = {"value": res.max_residual, "bound": 3.0,
                              "ok": res.max_residual <= 3.0, "exit_frac": si.exit_frac}
        # perturbation: optimal beats perturbed within Monte Carlo resolution
        dirs = portfolio.bump_directions(bi.ts, 5, seed=num["seed"] + 200 + i)
        scale = float(np.sqrt(np.mean(si.positions[i] ** 2)))
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
        z = abs(est - exact) / se
        checks[f"feynman_kac_agent_{i}"] = {"estimate": est, "surface": exact,
                                            "z": z, "ok": z <= 3.0}
    checks["gateaux"] = gate
    checks["objective_perturbation"] = obj

    def collect(node):
        if isinstance(node, dict):
            if "ok" in node:
                yield node["ok"]
            else:
                for v in node.values():
                    yield from collect(v)

    passed = all(collect(checks))
    return {"passed": passed, "sabotage": sabotage, "checks": checks}


def cmd_verify(cfg: RunConfig, out: Path, sabotage: bool = False) -> tuple:
    report = _verify_report(cfg, sabotage)
    path = out / "verify_report.json"
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True, default=float)
        fh.write("\n")
    return report, [path]


def cmd_simulate(cfg: RunConfig, out: Path, dump: bool = False) -> list:
    spec, beliefs, _, grid = _build(cfg)
    num = _numerics(cfg)
    rows = []
    files = []
    for measure in list(range(beliefs.n_agents)) + ["average"]:
        batch = simulate.simulate(beliefs, measure, num["x_eval"], 0.0, spec.horizon_T,
                                  num["steps"], num["paths"], seed=num["seed"])
        XT = batch.paths[:, -1]
        rows.append((batch.measure, batch.npaths, float(XT.mean()), float(XT.std(ddof=1)),
                     float(batch.paths.min()), float(batch.paths.max())))
        if dump:
            p = out / f"paths_{batch.measure}.csv"
            write_csv(p, ["t"] + [f"path{j}" for j in range(min(batch.npaths, 20))],
                      [(float(batch.ts[k]), *[float(batch.paths[j, k])
                                              for j in range(min(batch.npaths, 20))])
                       for k in range(len(batch.ts))])
            files.append(p)
    p = out / "simulation_summary.csv"
    write_csv(p, ["measure", "paths", "terminal_mean", "terminal_std", "min", "max"], rows)
    return [p] + files


def cmd_calibrate(csv_path, out: Path, max_lag: int = 60,
                  spacing_dt: float = 1.0 / 252.0) -> list:
    series = cal.ingest_csv(csv_path, spacing_dt=spacing_dt)
    est = cal.estimate_ou(series, max_lag=max_lag)
    report = {"kappa_bar": est.kappa_bar, "mean_X": est.mean_X, "sigma": est.sigma,
              "diagnostics": est.diagnostics, "source": str(csv_path)}
    path = out / "calibration.json"
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True, default=float)
        fh.write("\n")
    return [path]


def cmd_figures(cfg: RunConfig, out: Path) -> list:
    spec, beliefs, m, _ = _build(cfg)
    num = _numerics(cfg)
    m = _require_ou(m, "figures")
    x = num["x_eval"]
    a0 = spec.supply_a0
    ab = oumod.solve_ab(m, spec.kernel, n_steps=num["ode_steps"], supply_a0=a0)
    ts = ab.ts[:: max(1, len(ab.ts) // 600)]
    bbar, env_lo, env_hi = oumod.volatility_curve(m, ab, ts)
    # the supply lowers the price by gamma a0 (T - t)/N and the holding-cost
    # correction by a0 (T - t)/N; the risk-neutral price does not see it
    shift = a0 * (spec.horizon_T - ts) / m.n_agents
    gamma = spec.kernel.gamma
    price_both = ab.value(ts, x)
    price_no_tc = oumod.frictionless_price(m, ts, x) - gamma * shift
    price_no_hc, _ = oumod.risk_neutral_price(m, ts, x)
    vstar = oumod.hc_correction_closed(m, spec.kernel.lam, ts, x) - shift \
        if m.kappas_distinct else None
    err_un = price_no_hc - price_both
    files = []

    p = out / "fig_prices.csv"
    write_csv(p, ["t", "price_both_costs", "price_no_tc", "price_no_hc"],
              zip(ts.tolist(), price_both.tolist(), price_no_tc.tolist(),
                  price_no_hc.tolist()))
    files.append(p)
    svgplot.line_plot(out / "fig_prices.svg",
                      [(ts, price_both, "both costs", "solid"),
                       (ts, price_no_tc, "no trading cost", "dotted"),
                       (ts, price_no_hc, "no holding cost", "dashed")],
                      title=f"Equilibrium price at x={x:g}", xlabel="t", ylabel="price")
    files.append(out / "fig_prices.svg")

    sig = m.sigma
    p = out / "fig_volatilities.csv"
    write_csv(p, ["t", "vol_both_costs", "vol_no_tc", "vol_no_hc"],
              zip(ts.tolist(), (sig * bbar).tolist(), (sig * env_lo).tolist(),
                  (sig * env_hi).tolist()))
    files.append(p)
    svgplot.line_plot(out / "fig_volatilities.svg",
                      [(ts, sig * bbar, "both costs", "solid"),
                       (ts, sig * env_lo, "no trading cost", "dotted"),
                       (ts, sig * env_hi, "no holding cost", "dashed")],
                      title="Equilibrium volatility", xlabel="t", ylabel="volatility")
    files.append(out / "fig_volatilities.svg")

    p = out / "fig_error_uncorrected.csv"
    write_csv(p, ["t", "error"], zip(ts.tolist(), err_un.tolist()))
    files.append(p)
    svgplot.line_plot(out / "fig_error_uncorrected.svg",
                      [(ts, err_un, "risk-neutral minus exact", "solid")],
                      title="Approximation error, zeroth order", xlabel="t", ylabel="error")
    files.append(out / "fig_error_uncorrected.svg")

    if vstar is not None:
        err_co = price_no_hc + gamma * vstar - price_both
        p = out / "fig_error_corrected.csv"
        write_csv(p, ["t", "error"], zip(ts.tolist(), err_co.tolist()))
        files.append(p)
        svgplot.line_plot(out / "fig_error_corrected.svg",
                          [(ts, err_co, "corrected minus exact", "solid")],
                          title="Approximation error, first order", xlabel="t", ylabel="error")
        files.append(out / "fig_error_corrected.svg")
    return files


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="illiquid-eq",
        description="Equilibrium prices under heterogeneous beliefs with quadratic "
                    "holding and trading costs")
    parser.add_argument("command",
                        choices=["ou-solve", "pde-solve", "asymptotics", "simulate",
                                 "verify", "calibrate", "figures"])
    parser.add_argument("--config", help="YAML/JSON run configuration")
    parser.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="section.key=value", help="override a config key")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="override numerics.seed")
    parser.add_argument("--csv", default=None, help="input series for 'calibrate'")
    parser.add_argument("--max-lag", type=int, default=60)
    parser.add_argument("--sabotage", action="store_true",
                        help="misscale the trading rate by 1.5 (verify must then fail)")
    parser.add_argument("--dump-paths", action="store_true")
    args = parser.parse_args(argv)

    try:
        if args.command == "calibrate":
            out = Path(args.out or "out")
            out.mkdir(parents=True, exist_ok=True)
            csv_path = args.csv
            if csv_path is None:
                from importlib.resources import files as res_files
                csv_path = str(res_files("illiquid_eq").joinpath(
                    "data/dexuseu_2009_2019.csv"))
            files = cmd_calibrate(csv_path, out, max_lag=args.max_lag)
            for f in files:
                print(f)
            return 0

        if not args.config:
            parser.error(f"'{args.command}' requires --config")
        cfg = RunConfig.from_file(args.config)
        cfg.apply_overrides(args.overrides)
        if args.seed is not None:
            cfg.numerics["seed"] = args.seed
        out = Path(args.out or cfg.output.get("directory", "out"))
        out.mkdir(parents=True, exist_ok=True)

        if args.command == "ou-solve":
            files = cmd_ou_solve(cfg, out)
        elif args.command == "pde-solve":
            files = cmd_pde_solve(cfg, out)
        elif args.command == "asymptotics":
            files = cmd_asymptotics(cfg, out)
        elif args.command == "simulate":
            files = cmd_simulate(cfg, out, dump=args.dump_paths)
        elif args.command == "figures":
            files = cmd_figures(cfg, out)
        elif args.command == "verify":
            report, files = cmd_verify(cfg, out, sabotage=args.sabotage)
            for f in files:
                print(f)
            if not report["passed"]:
                print("verification FAILED", file=sys.stderr)
                return 1
            print("verification passed")
            return 0
        for f in files:
            print(f)
        return 0
    except (ValueError, FileNotFoundError) as exc:
        # ConfigError, CalibrationError and the solvers' errors are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
