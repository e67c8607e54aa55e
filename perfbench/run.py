"""Benchmark of illiquid-eq on configs/ou_fx.yaml.

    python3 perfbench/run.py --workload fx-verify --seed 3 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 3 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a checkout.  The load is a closed loop: one client
runs one operation at a time, back to back, each in a fresh process and a
fresh output directory, until the operations have taken ``--seconds`` (at
least one operation).  Workloads:

  fx-verify    ``illiquid-eq verify`` on the affine ODE surface: the Monte
               Carlo path (simulate, portfolio), nothing of the PDE.
  fx-solve     ``illiquid-eq pde-solve`` then ``illiquid-eq asymptotics``:
               the price solvers (ou, pde, asymptotics) and the writers, no
               Monte Carlo.
  grid-verify  the gates of ``verify`` on the PDE surface, driven from
               perfbench/child.py: bilinear interpolation and per-point belief
               calls, so a vectorisation that helps only the affine surface
               reads as no change here.

With ``--trace 0`` every operation is untraced and the end-to-end metrics
are printed; with ``--trace 1`` untraced and traced operations alternate
and the per-layer metrics from perfbench/spans.py are printed.  Output
checks turn a wrong answer into a failed operation; a path that leaves the
PDE grid is a failed operation too (a known defect of
``portfolio.integrate_strategies``), counted but not a wrong answer, and so
is a Monte Carlo gate of the program failed within STAT_Z standard errors.
Every run reports every end-to-end figure; one that a workload does not produce
is computed in-process, outside the timed operations, and marked as a
probe.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
CONFIG = "configs/ou_fx.yaml"
WORKLOADS = ("fx-verify", "fx-solve", "grid-verify")

# grid-verify Monte Carlo per agent, sized so one operation takes about as
# long as one fx-verify operation (2 CPUs, Python 3.11, numpy 2.4).
GRID_PATHS, GRID_STEPS = 600, 200
SETUP_REPEATS = 5
# A figure above its ceiling is a wrong answer (measured on ou_fx.yaml:
# 7.4e-6, 2.2e-5, 1.1e-5, and Feynman-Kac standard errors of 1e-3 to 5e-3).
CEILINGS = {"price_err_max": 1e-4, "tc_rel_err": 1e-3, "hc_rel_err": 1e-3,
            "mc_se_max": 0.02}
# The program's Monte Carlo gates allow 3 standard errors per check (the
# Gateaux gate: the largest of 20 directions).  Unbiased estimates cross
# that by chance (verify failed so on 2 of 10 random seeds of ou_fx.yaml),
# so a failed gate is a failed operation, and a wrong answer only beyond
# STAT_Z standard errors (chance ~1e-5 per gate; verify --sabotage gives
# Gateaux values of 54 and 93).
STAT_Z = 5.0
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "price_err_max": "price",
              "tc_rel_err": "ratio", "hc_rel_err": "ratio", "mc_se_max": "price"}
PER_LAYER = {
    "ou.solve_ab.calls": "count", "ou.solve_ab.self_s": "s",
    "kernel.log_deriv.calls": "count", "kernel.log_deriv.self_s": "s",
    "pde.solve_equilibrium.self_s": "s", "pde.step_s": "s", "pde.solve_banded.calls": "count",
    "pde.solve_frictionless.self_s": "s", "pde.solve_risk_neutral.self_s": "s",
    "asymptotics.tc_correction.self_s": "s", "asymptotics.hc_correction.self_s": "s",
    "simulate.simulate.calls": "count", "simulate.simulate.self_s": "s",
    "simulate.normals": "count", "simulate.feynman_kac_vi.self_s": "s",
    "simulate.exit_frac": "frac",
    "portfolio.integrate_strategies.self_s": "s", "portfolio.objective.calls": "count",
    "portfolio.objective.self_s": "s", "portfolio.gateaux_residual.self_s": "s",
    "surface.evals": "count", "surface.points": "points/call",
    "model.belief_calls": "count", "model.belief_points": "count",
    "io.bytes": "bytes", "io.write_s": "s",
    "trace.overhead_frac": "frac", "trace.coverage_frac": "frac",
}
THREAD_VARS = ("ILLIQUID_EQ_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")


class Op:
    """Outcome of one operation: timings, gates and figures."""

    def __init__(self):
        self.wall = 0.0
        self.rss_mb = 0.0
        self.attempted = 0
        self.failed = 0
        self.exit_failures = 0
        self.chance_failures = []  # statistical gates failed within STAT_Z
        self.wrong = []            # descriptions of wrong answers
        self.figures = {}          # accuracy figures measured on this op's outputs
        self.stats = None          # merged tracer statistics, traced ops only
        self.io_bytes = {}
        self.digest = None
        self.children = 0

    def gate(self, name: str, ok, exit_error: bool = False, chance: bool = False) -> None:
        """Count one operation; ok=None is an operation that produced no output.

        A failure is a wrong answer unless a path left the grid (exit_error)
        or a statistical gate failed by chance (see STAT_Z).
        """
        self.attempted += 1
        if ok:
            return
        self.failed += 1
        if exit_error:
            self.exit_failures += 1
        elif chance:
            self.chance_failures.append(name)
        else:
            self.wrong.append(name)

    def check(self, name: str, node: dict) -> None:
        """Count one gate of a verify report, which holds ``ok`` and its statistic."""
        if "feynman_kac" in name:
            stat = node.get("z")
        elif "gateaux" in name:
            stat = node.get("value")
        else:
            stat = None
        self.gate(name, node["ok"] is True or node["ok"] == 1.0, exit_error="exit" in node,
                  chance=stat is not None and stat <= STAT_Z)

    def child(self, args, tmp: Path, trace: bool) -> int:
        """Run perfbench/child.py in a fresh process; wall time and max RSS add up."""
        cmd = [sys.executable, str(HERE / "child.py")]
        self.children += 1
        if trace:
            trace_file = tmp / f"trace{self.children}.json"
            cmd += ["--trace", str(trace_file)]
        env = dict(os.environ, TMPDIR=str(tmp),
                   PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                            os.environ.get("PYTHONPATH")])))
        with open(tmp / "child.log", "ab") as log:
            t0 = perf_counter()
            proc = subprocess.Popen(cmd + [str(a) for a in args], cwd=ROOT, env=env,
                                    stdout=log, stderr=log)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            self.wall += perf_counter() - t0
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        self.rss_mb = max(self.rss_mb, usage.ru_maxrss / 1024.0)
        if trace and trace_file.exists():
            self.stats = merge_stats(self.stats, json.loads(trace_file.read_text()))
        return code


def merge_stats(a, b):
    if a is None:
        return b
    for name, rec in b["spans"].items():
        dst = a["spans"].setdefault(name, dict.fromkeys(rec, 0))
        for k, v in rec.items():
            dst[k] += v
    for name, n in b["counters"].items():
        a["counters"][name] = a["counters"].get(name, 0) + n
    a["main_self_s"] += b["main_self_s"]
    return a


def file_digest(paths) -> str:
    h = hashlib.sha256()
    for p in sorted(paths):
        h.update(p.name.encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def bytes_by_type(out: Path) -> dict:
    sizes = {}
    for p in out.iterdir():
        ext = p.suffix.lstrip(".") or "none"
        sizes[ext] = sizes.get(ext, 0) + p.stat().st_size
    return sizes


# -- reference values and accuracy figures -----------------------------------

class Reference:
    """ODE price and closed-form corrections on the PDE nodes of a config."""

    def __init__(self, config: str, seed: int, grid_mc=(GRID_PATHS, GRID_STEPS)):
        import numpy as np
        from illiquid_eq import ou
        import child

        self.config, self.seed, self.grid_mc = config, seed, grid_mc
        self.spec, self.beliefs, self.om, self.grid, num = child.build(str(ROOT / config))
        self.num = num
        ts, xs = self.grid.ts(self.spec.horizon_T), self.grid.xs
        self.shape = (len(ts), len(xs))
        T, X = np.meshgrid(ts, xs, indexing="ij")
        ab = ou.solve_ab(self.om, self.spec.kernel, n_steps=int(num.get("ode_steps", 3000)))
        self.price = ab.value(T, X)
        self.tc = ou.tc_correction_closed(self.om, self.spec.kernel.gamma, T, X)
        self.hc = ou.hc_correction_closed(self.om, self.spec.kernel.lam, T, X)

    def price_err(self, v) -> float:
        import numpy as np
        return float(np.max(np.abs(v - self.price)))

    @staticmethod
    def rel_err(w, closed) -> float:
        """max |w - closed| / max |closed| over the middle half of the x nodes."""
        import numpy as np
        nx = closed.shape[1]
        mid = slice(nx // 4, nx - nx // 4)
        return float(np.max(np.abs(w[:, mid] - closed[:, mid])) / np.max(np.abs(closed[:, mid])))

    def feynman_kac(self, op: Op, surface) -> None:
        """Feynman-Kac check of each agent's value at (0, x_eval) on ``surface``."""
        from illiquid_eq import simulate
        mc = self.num.get("mc", {})
        x0 = float(self.num.get("x_eval", 1.0))
        ses = []
        for i in range(self.beliefs.n_agents):
            est, se = simulate.feynman_kac_vi(self.beliefs, i, surface, self.spec.kernel, 0.0, x0,
                                              npaths=int(mc.get("paths", 10000)),
                                              seed=self.seed + 300 + i,
                                              nt=int(mc.get("steps", 600)))
            z = abs(est - surface.agent_value(i, 0.0, x0)) / se
            op.check(f"feynman_kac_agent_{i}", {"z": z, "ok": z <= 3.0})
            ses.append(se)
        op.figures["mc_se_max"] = max(ses)

    def probe(self, names) -> dict:
        """Figures a workload does not produce itself, from in-process library calls."""
        from illiquid_eq import asymptotics, pde
        out = {}
        if "price_err_max" in names:
            out["price_err_max"] = self.price_err(
                pde.solve_equilibrium(self.spec, self.beliefs, self.grid).v)
        if "tc_rel_err" in names:
            refine = int(self.num.get("refine", 4))
            out["tc_rel_err"] = self.rel_err(
                asymptotics.tc_correction(self.spec, self.beliefs, self.grid, refine=refine).v,
                self.tc)
        if "hc_rel_err" in names:
            out["hc_rel_err"] = self.rel_err(
                asymptotics.hc_correction(self.spec, self.beliefs, self.grid).v, self.hc)
        return out


def check_ceilings(op: Op) -> None:
    for name, value in op.figures.items():
        op.gate(f"{name} <= {CEILINGS[name]:g}", value <= CEILINGS[name])


def load_csv(path: Path):
    import numpy as np
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


# -- workloads ---------------------------------------------------------------

def op_fx_verify(ref: Reference, tmp: Path, trace: bool, sabotage: bool = False) -> Op:
    op = Op()
    out = tmp / "out"
    args = ["cli", "verify", "--config", ref.config, "--seed", ref.seed, "--out", out]
    code = op.child(args + (["--sabotage"] if sabotage else []), tmp, trace)
    report_path = out / "verify_report.json"
    report = json.loads(report_path.read_text()) if report_path.exists() else {}
    ses = []

    def walk(name, node):
        if "ok" in node:
            op.check(name, node)
            if "z" in node and node["z"] > 0:
                ses.append(abs(node["estimate"] - node["surface"]) / node["z"])
        else:
            for k, v in node.items():
                walk(f"{name}.{k}", v)

    if report:
        walk("checks", report["checks"])
    # the exit status follows the gates: it is wrong only if one of them is
    op.gate("verify exits 0 with passed: true", code == 0 and report.get("passed") is True,
            chance=bool(report) and code == 1 and not op.wrong)
    if not report:
        return op
    if ses:
        op.figures["mc_se_max"] = max(ses)
    op.io_bytes = bytes_by_type(out)
    op.digest = file_digest([report_path])
    return op


class CsvSurface:
    """Price surface read back from equilibrium.csv: bilinear in (t, x),
    linear beyond the x edges, as ``simulate.feynman_kac_vi`` needs it."""

    def __init__(self, ts, xs, v, vi):
        from scipy.interpolate import RegularGridInterpolator

        def interp(f):
            return RegularGridInterpolator((ts, xs), f, bounds_error=False, fill_value=None)

        self.x_bounds = (float(xs[0]), float(xs[-1]))
        self._v = interp(v)
        self._vi = [interp(f) for f in vi]

    @staticmethod
    def _at(interp, t, x):
        import numpy as np
        t, x = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(x, dtype=float))
        return interp(np.stack([t, x], axis=-1))

    def value(self, t, x):
        return self._at(self._v, t, x)

    def agent_value(self, i, t, x):
        return self._at(self._vi[i], t, x)


SOLVE_FILES = ("equilibrium.csv", "tc_correction.csv", "hc_correction.csv",
               "lambda_sweep.csv", "gamma_sweep.csv")


def op_fx_solve(ref: Reference, tmp: Path, trace: bool, first: bool) -> Op:
    import numpy as np

    op = Op()
    out = tmp / "out"
    for command in ("pde-solve", "asymptotics"):
        code = op.child(["cli", command, "--config", ref.config, "--seed", ref.seed, "--out", out],
                        tmp, trace)
        op.gate(f"{command} exit code 0", code == 0)
    tables = {}
    for name in SOLVE_FILES:
        path = out / name
        table = load_csv(path) if path.exists() else None
        rows = ref.shape[0] * ref.shape[1] if name in SOLVE_FILES[:3] else 5
        op.gate(f"{name}: {rows} finite rows",
                table is not None and table.shape[0] == rows and bool(np.all(np.isfinite(table))))
        tables[name] = table
    if any(t is None for t in tables.values()):
        return op
    n = ref.beliefs.n_agents
    eq = tables["equilibrium.csv"].reshape(ref.shape + (-1,))
    op.figures["price_err_max"] = ref.price_err(eq[..., 2])
    op.figures["tc_rel_err"] = ref.rel_err(tables["tc_correction.csv"][:, 2].reshape(ref.shape),
                                           ref.tc)
    op.figures["hc_rel_err"] = ref.rel_err(tables["hc_correction.csv"][:, 2].reshape(ref.shape),
                                           ref.hc)
    if first:
        # later operations must reproduce these outputs byte for byte, so the
        # Monte Carlo check of the surface runs once per run
        ref.feynman_kac(op, CsvSurface(eq[:, 0, 0], eq[0, :, 1], eq[..., 2],
                                       [eq[..., 3 + i] for i in range(n)]))
    op.io_bytes = bytes_by_type(out)
    op.digest = file_digest([out / name for name in SOLVE_FILES])
    return op


def op_grid_verify(ref: Reference, tmp: Path, trace: bool) -> Op:
    import numpy as np

    op = Op()
    code = op.child(["grid-verify", ref.config, ref.seed, *ref.grid_mc, tmp], tmp, trace)
    op.gate("grid-verify exit code 0", code == 0)
    if code != 0:
        return op
    report = json.loads((tmp / "report.json").read_text())
    ses = []
    for name, node in report["checks"].items():
        op.check(name, node)
        if "se" in node:
            ses.append(node["se"])
    with np.load(tmp / "surface.npz") as z:
        op.figures["price_err_max"] = ref.price_err(z["v"])
        op.digest = hashlib.sha256((tmp / "report.json").read_bytes()
                                   + z["v"].tobytes() + z["vi"].tobytes()).hexdigest()
    if ses:
        op.figures["mc_se_max"] = max(ses)
    return op


@contextlib.contextmanager
def fresh_dir():
    """A new directory under .bench_tmp in the checkout, removed afterwards."""
    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=scratch))
    try:
        yield tmp
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass


def run_op(workload: str, ref: Reference, trace: bool, first: bool) -> Op:
    with fresh_dir() as tmp:
        if workload == "fx-verify":
            op = op_fx_verify(ref, tmp, trace)
        elif workload == "fx-solve":
            op = op_fx_solve(ref, tmp, trace, first)
        else:
            op = op_grid_verify(ref, tmp, trace)
    return op


# -- metrics -----------------------------------------------------------------

def layer_metrics(op: Op) -> dict:
    spans, ctr = op.stats["spans"], op.stats["counters"]

    def g(name, key):
        return spans.get(name, {}).get(key, 0)

    surface_calls = sum(r["calls"] for k, r in spans.items() if k.startswith("surface."))
    surface_points = sum(r["points"] for k, r in spans.items() if k.startswith("surface."))
    steps = ctr.get("pde.solve_equilibrium.steps", 0)
    checked = ctr.get("simulate.checked_paths", 0)
    m = {}
    for name in PER_LAYER:
        fn, _, key = name.rpartition(".")
        if key in ("calls", "self_s"):
            m[name] = g(fn, key)
    m.update({
        "pde.solve_banded.calls": ctr.get("pde.solve_banded.calls", 0),
        "pde.step_s": g("pde.solve_equilibrium", "self_s") / steps if steps else 0.0,
        "simulate.normals": ctr.get("simulate.normals", 0),
        "simulate.exit_frac": ctr.get("simulate.exit_paths", 0) / checked if checked else 0.0,
        "surface.evals": surface_calls,
        "surface.points": surface_points / surface_calls if surface_calls else 0.0,
        "model.belief_calls": ctr.get("model.belief.calls", 0),
        "model.belief_points": ctr.get("model.belief.points", 0),
        "io.bytes": sum(op.io_bytes.values()),
        "io.write_s": sum(r["self_s"] for k, r in spans.items() if k.startswith("io.")),
        "trace.coverage_frac": op.stats["main_self_s"] / op.wall,
    })
    return m


def environment(config: str, seed: int) -> dict:
    import numpy
    import scipy

    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "seed": seed,
        "config": config,
        "config_sha256": hashlib.sha256((ROOT / config).read_bytes()).hexdigest(),
        "commit": commit,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {k: os.environ.get(k) for k in THREAD_VARS},
    }


def setup_time(config: str) -> list:
    walls = []
    for _ in range(SETUP_REPEATS):
        op = Op()
        with fresh_dir() as tmp:
            if op.child(["setup", config], tmp, trace=False) != 0:
                raise RuntimeError("set-up failed:\n" + (tmp / "child.log").read_text())
        walls.append(op.wall)
    return walls


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 config: str = CONFIG) -> dict:
    setups = setup_time(config)
    ref = Reference(config, seed)
    ops = []
    # only the operations' own time counts; output checks run between them
    while len(ops) < (2 if trace else 1) or sum(op.wall for op in ops) < seconds:
        ops.append(run_op(workload, ref, trace=trace and len(ops) % 2 == 1, first=not ops))
        check_ceilings(ops[-1])
    plain = [op for op in ops if op.stats is None]
    traced = [op for op in ops if op.stats is not None]
    for op in ops[1:]:
        op.gate("outputs equal the first operation's", op.digest == ops[0].digest)

    figures = {}
    for op in ops:
        for k, v in op.figures.items():
            figures[k] = max(figures.get(k, v), v)
    probe = Op()
    probed = [k for k in CEILINGS if k not in figures]
    probe.figures = ref.probe(probed)
    check_ceilings(probe)
    figures.update(probe.figures)
    checked = ops + [probe]
    attempted = sum(op.attempted for op in checked)
    failed = sum(op.failed for op in checked)
    wrong = sorted({w for op in checked for w in op.wrong})

    result = {
        "workload": workload,
        "env": environment(config, seed),
        "operations": len(ops),
        "setup_samples": setups,
        "wall_samples": [op.wall for op in plain],
        "fail_frac": failed / attempted,
        "exit_failures": sum(op.exit_failures for op in checked),
        "chance_failures": sorted({c for op in checked for c in op.chance_failures}),
        "wrong": wrong,
        "probed": probed,
        "io_bytes": plain[-1].io_bytes,
        "contract": {"correct": not wrong, "attempted": attempted, "failed": failed},
    }
    if trace:
        per_op = [layer_metrics(op) for op in traced]
        metrics = {k: statistics.median(m[k] for m in per_op) for k in PER_LAYER if k in per_op[0]}
        metrics["trace.overhead_frac"] = (statistics.median(op.wall for op in traced)
                                          / statistics.median(op.wall for op in plain) - 1.0)
        units = PER_LAYER
        result["spans"] = traced[-1].stats["spans"]
    else:
        metrics = dict(figures)
        metrics["wall_s"] = statistics.median(op.wall for op in plain)
        metrics["setup_s"] = statistics.median(setups)
        metrics["peak_rss_mb"] = max(op.rss_mb for op in plain)
        units = END_TO_END
    result["contract"]["metrics"] = {k: {"value": metrics[k], "unit": units[k]} for k in units}
    return result


def print_report(result: dict) -> None:
    w = result["workload"]
    env = result["env"]
    print(f"== {w}  seed={env['seed']} operations={result['operations']} "
          f"commit={env['commit'][:12]} nproc={env['nproc']} python={env['python']} "
          f"numpy={env['numpy']} scipy={env['scipy']} threads={env['threads']}")
    print(f"   config {env['config']} sha256={env['config_sha256'][:16]}")
    for name, m in result["contract"]["metrics"].items():
        note = ""
        if name in ("wall_s", "setup_s"):
            samples = result[name.replace("_s", "_samples")]
            note = f"  (median of {len(samples)}: {', '.join(f'{v:.3f}' for v in samples)})"
        elif name in result["probed"]:
            note = "  (probe: not produced by this workload)"
        print(f"   {name:40s} {m['value']:<14.6g} {m['unit']}{note}")
    c = result["contract"]
    print(f"   {'fail_frac':40s} {result['fail_frac']:<14.6g} frac  ({c['failed']}/"
          f"{c['attempted']}, {result['exit_failures']} from paths leaving the grid)")
    if result["chance_failures"]:
        print(f"   failed within {STAT_Z:g} SE (not wrong): {result['chance_failures']}")
    print(f"   io bytes by type: {result['io_bytes']}")
    if result["wrong"]:
        print(f"   WRONG: {result['wrong']}")
    if "spans" in result:
        print("   self time by span (last traced operation):")
        for name, rec in sorted(result["spans"].items(), key=lambda kv: -kv[1]["self_s"]):
            print(f"     {name:44s} calls={rec['calls']:<10d} self={rec['self_s']:.4f}s "
                  f"total={rec['total_s']:.4f}s")


def self_test() -> int:
    """Smoke run: tiny grid and few paths, traced against untraced, sabotage counted."""
    import yaml

    problems = []
    with fresh_dir() as tmp:
        raw = yaml.safe_load((ROOT / CONFIG).read_text())
        raw["numerics"].update(ode_steps=300, refine=2, mc={"paths": 200, "steps": 50})
        raw["numerics"]["grid"].update(nx=41, nt=61)
        smoke = tmp / "smoke.yaml"
        smoke.write_text(yaml.safe_dump(raw))
        config = str(smoke.relative_to(ROOT))
        ref = Reference(config, 3, grid_mc=(100, 50))
        for workload in WORKLOADS:
            plain = run_op(workload, ref, trace=False, first=False)
            traced = run_op(workload, ref, trace=True, first=False)
            if plain.digest != traced.digest:
                problems.append(f"{workload}: traced outputs differ from untraced")
            if plain.wrong or traced.wrong:
                problems.append(f"{workload}: wrong answers {plain.wrong + traced.wrong}")
            missing = set(PER_LAYER) - set(layer_metrics(traced)) - {"trace.overhead_frac"}
            if missing:
                problems.append(f"{workload}: per-layer metrics missing {sorted(missing)}")
        # a grid narrower than the paths' range: exits are failures, not wrong answers
        raw["numerics"]["grid"].update(x_min=0.95, x_max=1.55)
        narrow = tmp / "narrow.yaml"
        narrow.write_text(yaml.safe_dump(raw))
        narrow_ref = Reference(str(narrow.relative_to(ROOT)), 3, grid_mc=(100, 50))
        exits = run_op("grid-verify", narrow_ref, trace=True, first=False)
        if not (exits.exit_failures and not exits.wrong
                and layer_metrics(exits)["simulate.exit_frac"] > 0):
            problems.append("paths leaving the grid were not counted as failed operations")
        gates = Op()
        gates.check("feynman_kac_agent_0", {"z": 3.1, "ok": False})
        gates.check("gateaux_agent_1", {"value": 5.1, "ok": False})
        if gates.chance_failures != ["feynman_kac_agent_0"] or gates.wrong != ["gateaux_agent_1"]:
            problems.append(f"STAT_Z misclassified gates: {gates.chance_failures} {gates.wrong}")
        sub = tmp / "sabotage"
        sub.mkdir()
        sabotaged = op_fx_verify(ref, sub, trace=False, sabotage=True)
        if not (sabotaged.failed >= 1 and sabotaged.wrong):
            problems.append("verify --sabotage was not counted as a failed operation")
        result = run_workload("fx-verify", 3, 0.0, trace=False, config=config)
        if set(result["contract"]["metrics"]) != set(END_TO_END):
            problems.append("end-to-end metrics incomplete")
    for p in problems:
        print(f"self-test: {p}", file=sys.stderr)
    print("self-test passed" if not problems else "self-test FAILED")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so that the running child process is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "illiquid_eq" / "__init__.py").exists() or not (ROOT / CONFIG).exists():
        print(f"error: {ROOT} holds no illiquid_eq source tree and {CONFIG}", file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    sys.path.insert(0, str(ROOT / "src"))
    if args.self_test:
        return self_test()
    if not args.workload:
        parser.error("--workload is required")
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = [run_workload(w, args.seed, args.seconds, bool(args.trace)) for w in names]
    for r in results:
        print_report(r)
    if len(results) == 1:
        line = results[0]["contract"]
    else:
        line = {r["workload"]: r["contract"] for r in results}
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
