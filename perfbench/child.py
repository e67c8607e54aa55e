"""One benchmark operation in a fresh process.

    python3 child.py [--trace FILE] setup CONFIG
    python3 child.py [--trace FILE] cli ARG...
    python3 child.py [--trace FILE] grid-verify CONFIG SEED PATHS STEPS OUTDIR

``setup`` imports the package and loads and validates CONFIG.  ``cli`` runs
``illiquid-eq ARG...`` exactly as the console script does.  ``grid-verify``
runs the checks and gates of ``illiquid-eq verify`` on the PDE surface from
``pde.solve_equilibrium``, calling the public functions in the order the
``verify`` command uses them, and writes ``report.json`` and the surface to
OUTDIR.  A path leaving the grid fails an ``in_grid`` gate, and the checks
then go on with the paths that stay, so that the operation does the same
work on every seed; a check failing on those paths is charged to the exit.
With ``--trace`` the span tracer is installed before the work and its
statistics are written to FILE as JSON.  The parent sets ``PYTHONPATH``
to the checkout's ``src``.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import yaml

import illiquid_eq.cli
from illiquid_eq import model, ou, pde, portfolio, simulate
from illiquid_eq.kernel import CostKernel

EXIT_MESSAGE = "path exits spatial grid"


def build(config: str):
    """Market, beliefs, OU model and grid of an OU config with identity payoff."""
    with open(config) as fh:
        raw = yaml.safe_load(fh)
    m, n = raw["model"], raw["numerics"]
    bel = m["beliefs"]
    if bel.get("type") != "ou" or m.get("payoff", {"type": "identity"})["type"] != "identity":
        raise ValueError("the benchmark drives OU beliefs with the identity payoff only")
    horizon = float(m["horizon"])
    kernel = CostKernel(gamma=float(m["costs"]["gamma"]), lam=float(m["costs"]["lambda"]),
                        horizon_T=horizon)
    om = ou.OuModel(kappas=tuple(float(k) for k in bel["kappas"]), mean_X=float(bel["mean"]),
                       sigma=float(bel["sigma"]), horizon_T=horizon)
    beliefs = ou.ou_beliefs(om)
    spec = model.MarketSpec(kernel=kernel, supply_a0=float(m.get("supply", 0.0)),
                      allocations=tuple(float(a) for a in m["allocations"]),
                      payoff=lambda x: np.asarray(x, dtype=float) + 0.0)
    g = n["grid"]
    grid = pde.Grid1D(x_min=float(g["x_min"]), x_max=float(g["x_max"]), nx=int(g["nx"]),
                      nt=int(g["nt"]))
    report = model.validate(spec, beliefs, (grid.x_min, grid.x_max))
    if not report.ok:
        raise ValueError(f"invalid model: {report}")
    return spec, beliefs, om, grid, n


def _exits(fn):
    """Run fn(); paths leaving the grid give (None, message) instead of raising."""
    try:
        return fn(), None
    except simulate.DomainExitError as exc:
        return None, str(exc)
    except ValueError as exc:
        if EXIT_MESSAGE not in str(exc):
            raise
        return None, str(exc)


def _strategies(checks: dict, name: str, surface, spec, batch):
    """integrate_strategies on batch, gated by the gate ``name``.

    A path leaving the grid makes the call raise (a known defect); that
    fails the gate, and the strategies are integrated on the other paths.
    Returns the batch used, its strategies and the exit message or None.
    """
    strat, err = _exits(lambda: portfolio.integrate_strategies(surface, spec, batch))
    if err is None:
        checks[name] = {"ok": True}
        return batch, strat, None
    checks[name] = {"ok": None, "exit": err}
    lo, hi = surface.x_bounds
    keep = ~np.any((batch.paths < lo) | (batch.paths > hi), axis=1)
    inside = dataclasses.replace(
        batch, paths=batch.paths[keep],
        increments=None if batch.increments is None else batch.increments[keep])
    return inside, portfolio.integrate_strategies(surface, spec, inside), err


def _judged(node: dict, err) -> dict:
    """A check on the paths that stayed in the grid: its failure is the exit's."""
    if err and not node["ok"]:
        node["exit"] = err
    return node


def grid_verify(config: str, seed: int, paths: int, steps: int, outdir: Path) -> None:
    spec, beliefs, _, grid, num = build(config)
    T = spec.horizon_T
    x0 = float(num["x_eval"])
    surface = pde.solve_equilibrium(spec, beliefs, grid)
    checks = {}

    batch = simulate.simulate(beliefs, 0, x0, 0.0, T, 2000, 100, seed=seed)
    _, strat, err = _strategies(checks, "in_grid_clearing", surface, spec, batch)
    resid = portfolio.clearing_residual(strat)
    checks["clearing_residual"] = _judged(
        {"value": resid, "bound": 1e-6, "ok": bool(resid <= 1e-6)}, err)

    for i in range(beliefs.n_agents):
        bi = simulate.simulate(beliefs, i, x0, 0.0, T, steps, paths, seed=seed + i)
        bi, si, err = _strategies(checks, f"in_grid_agent_{i}", surface, spec, bi)
        res = portfolio.gateaux_residual(i, bi, si, surface, seed=seed + 100 + i)
        checks[f"gateaux_agent_{i}"] = _judged(
            {"value": res.max_residual, "bound": 3.0, "ok": bool(res.max_residual <= 3.0)}, err)
        dirs = portfolio.bump_directions(bi.ts, 5, seed=seed + 200 + i)
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
        checks[f"objective_perturbation_agent_{i}"] = _judged(
            {"worst_gap_plus_3se": float(worst), "ok": bool(worst >= 0.0)}, err)
        fk, err = _exits(lambda: simulate.feynman_kac_vi(
            beliefs, i, surface, spec.kernel, 0.0, x0, npaths=paths, seed=seed + 300 + i,
            nt=steps))
        if err:
            checks[f"feynman_kac_agent_{i}"] = {"ok": None, "exit": err}
            continue
        est, se = fk
        exact = surface.agent_value(i, 0.0, x0)
        z = abs(est - exact) / se
        checks[f"feynman_kac_agent_{i}"] = {"estimate": est, "surface": exact, "se": se,
                                            "z": z, "ok": bool(z <= 3.0)}

    with open(outdir / "report.json", "w") as fh:
        json.dump({"checks": checks}, fh, indent=2, sort_keys=True, default=float)
    np.savez(outdir / "surface.npz", ts=surface.ts, xs=surface.xs, v=surface.v, vi=surface.vi)


def main(argv) -> int:
    tracer = None
    trace_file = None
    if argv[:1] == ["--trace"]:
        trace_file, argv = argv[1], argv[2:]
        from spans import Tracer
        tracer = Tracer().install()
    mode, args = argv[0], argv[1:]
    try:
        if mode == "setup":
            build(args[0])
            code = 0
        elif mode == "cli":
            code = illiquid_eq.cli.main(args)
        elif mode == "grid-verify":
            grid_verify(args[0], int(args[1]), int(args[2]), int(args[3]), Path(args[4]))
            code = 0
        else:
            raise SystemExit(f"unknown mode {mode!r}")
    finally:
        if tracer is not None:
            with open(trace_file, "w") as fh:
                json.dump(tracer.stats(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
