"""Span tracer installed around the public functions of ``illiquid_eq``.

The package source is not touched: every traced function is replaced, in
each module namespace that binds it, by a wrapper that times the call and
subtracts the time of traced calls made inside it (self time).  Spans are
aggregated per name as they close: calls, total seconds, self seconds and,
for surfaces, the number of evaluation points.  A few hot callees are only
counted.  Each
thread keeps its own stack and table, so the worker threads of
``asymptotics.hc_correction`` need no lock; only main-thread self time is
used for coverage, because worker time overlaps its main-thread parent.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
import threading
from time import perf_counter

import numpy as np

# (record name, module, attribute path): the public functions the workloads
# reach.  The record name's first segment is the layer.  Missing targets are
# skipped, so a later refactor that removes one reads as zero calls instead
# of breaking the benchmark.
TIMED = [
    ("kernel.log_deriv", "kernel", "log_deriv"),
    ("kernel.ratio", "kernel", "ratio"),
    ("kernel.ratio_increment", "kernel", "ratio_increment"),
    ("ou.solve_ab", "ou", "solve_ab"),
    ("ou.frictionless_price", "ou", "frictionless_price"),
    ("ou.risk_neutral_price", "ou", "risk_neutral_price"),
    ("ou.tc_correction_closed", "ou", "tc_correction_closed"),
    ("ou.hc_correction_closed", "ou", "hc_correction_closed"),
    ("pde.solve_equilibrium", "pde", "solve_equilibrium"),
    ("pde.solve_frictionless", "pde", "solve_frictionless"),
    ("pde.solve_risk_neutral", "pde", "solve_risk_neutral"),
    ("pde.spec_fingerprint", "pde", "spec_fingerprint"),
    ("asymptotics.tc_correction", "asymptotics", "tc_correction"),
    ("asymptotics.hc_correction", "asymptotics", "hc_correction"),
    ("simulate.simulate", "simulate", "simulate"),
    ("simulate.feynman_kac_vi", "simulate", "feynman_kac_vi"),
    ("portfolio.integrate_strategies", "portfolio", "integrate_strategies"),
    ("portfolio.clearing_residual", "portfolio", "clearing_residual"),
    ("portfolio.objective", "portfolio", "objective"),
    ("portfolio.gateaux_residual", "portfolio", "gateaux_residual"),
    ("portfolio.bump_directions", "portfolio", "bump_directions"),
    ("portfolio.cumulative_positions", "portfolio", "cumulative_positions"),
    ("model.validate", "model", "validate"),
    ("io.write_csv", "util", "write_csv"),
    ("io.EquilibriumSolution.to_csv", "pde", "EquilibriumSolution.to_csv"),
    ("io.EquilibriumSolution.cache_save", "pde", "EquilibriumSolution.cache_save"),
    ("io.CorrectionSurface.to_csv", "asymptotics", "CorrectionSurface.to_csv"),
]

# Price-surface evaluations: every method takes (..., t, x) last.
SURFACE = [
    ("surface.AbSolution.value", "ou", "AbSolution.value"),
    ("surface.AbSolution.slope", "ou", "AbSolution.slope"),
    ("surface.AbSolution.agent_value", "ou", "AbSolution.agent_value"),
    ("surface.AbSolution.agent_drift", "ou", "AbSolution.agent_drift"),
    ("surface.GridSurface.value", "pde", "GridSurface.value"),
    ("surface.GridSurface.slope", "pde", "GridSurface.slope"),
    ("surface.EquilibriumSolution.agent_value", "pde", "EquilibriumSolution.agent_value"),
    ("surface.EquilibriumSolution.agent_drift", "pde", "EquilibriumSolution.agent_drift"),
]

# Counted, not timed: the time stays with the caller.  Both run inside the
# hc_correction worker threads, and belief callables are called once per
# point by EquilibriumSolution.agent_drift, where a timer would double the cost.
COUNTED = [("pde.solve_banded", "pde", "solve_banded")]
BELIEF = "model.belief"
PACKAGE = "illiquid_eq"


def _points(args) -> int:
    """Evaluation points of a call whose last two arguments are (t, x)."""
    return max(getattr(args[-2], "size", 1), getattr(args[-1], "size", 1))


def _exited(paths, bounds) -> int:
    lo, hi = bounds
    if not (np.isfinite(lo) or np.isfinite(hi)):
        return 0
    return int(np.count_nonzero(np.any((paths < lo) | (paths > hi), axis=1)))


class Tracer:
    """Aggregated span statistics for one process."""

    def __init__(self):
        self._local = threading.local()
        # per thread: (is_main_thread, {span: [calls, total_s, self_s, points]}, {counter: n})
        self._tables = []
        self._lock = threading.Lock()

    def _state(self):
        """This thread's (span stack, span table, counters), created on first use."""
        local = self._local
        if not hasattr(local, "counters"):
            local.stack, local.table, local.counters = [], {}, {}
            with self._lock:
                self._tables.append((threading.current_thread() is threading.main_thread(),
                                     local.table, local.counters))
        return local.stack, local.table, local.counters

    def add(self, name: str, n: float = 1) -> None:
        """Add ``n`` to the plain counter ``name``."""
        counters = self._state()[2]
        counters[name] = counters.get(name, 0) + n

    def span(self, name, fn, points=None, post=None):
        """Wrap ``fn`` in a timed span; ``post(args, kwargs, result)`` runs after it."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack, table, _ = self._state()
            rec = table.get(name)
            if rec is None:
                rec = table[name] = [0, 0.0, 0.0, 0]
            if points is not None:
                rec[3] += points(args)
            stack.append(0.0)
            out = None
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                dt = perf_counter() - t0
                child = stack.pop()
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - child
                if stack:
                    stack[-1] += dt
                if post is not None:
                    post(args, kwargs, out)

        return wrapper

    def counted(self, name, fn, points=False):
        """Wrap ``fn`` to count calls (and points of its last argument) untimed."""
        calls, pts = name + ".calls", name + ".points"
        local = self._local

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                counters = local.counters
            except AttributeError:
                counters = self._state()[2]
            counters[calls] = counters.get(calls, 0) + 1
            if points:
                counters[pts] = counters.get(pts, 0) + getattr(args[-1], "size", 1)
            return fn(*args, **kwargs)

        return wrapper

    # -- installation -----------------------------------------------------

    def _rebind(self, module: str, attr: str, make) -> None:
        mod = sys.modules.get(f"{PACKAGE}.{module}")
        if mod is None:
            return
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name, None)
            if cls is None or meth not in vars(cls):
                return
            setattr(cls, meth, make(vars(cls)[meth]))
            return
        orig = getattr(mod, attr, None)
        if orig is None:
            return
        wrapped = make(orig)
        # every namespace that imported the object by name gets the wrapper
        for name, m in list(sys.modules.items()):
            if m is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
                continue
            for key, val in list(vars(m).items()):
                if val is orig:
                    setattr(m, key, wrapped)

    def install(self) -> "Tracer":
        """Patch every target; the package must already be imported."""
        for name, module, attr in TIMED:
            post = _POST.get(name)
            hook = functools.partial(post, self) if post else None
            self._rebind(module, attr, lambda f, n=name, h=hook: self.span(n, f, post=h))
        for name, module, attr in SURFACE:
            self._rebind(module, attr, lambda f, n=name: self.span(n, f, points=_points))
        for name, module, attr in COUNTED:
            self._rebind(module, attr, lambda f, n=name: self.counted(n, f))
        self._rebind("ou", "ou_beliefs", self._tracing_beliefs)
        return self

    def _tracing_beliefs(self, factory):
        """The belief factory returns sets whose drift/vol callables are counted."""

        @functools.wraps(factory)
        def wrapper(*args, **kwargs):
            beliefs = factory(*args, **kwargs)
            agents = tuple(dataclasses.replace(
                a, drift=self.counted(BELIEF, a.drift, points=True),
                vol=self.counted(BELIEF, a.vol, points=True)) for a in beliefs.agents)
            return dataclasses.replace(beliefs, agents=agents)

        return wrapper

    # -- results ----------------------------------------------------------

    def stats(self) -> dict:
        """{"spans": {name: {...}}, "counters": {...}, "main_self_s": float}."""
        spans, counters, main_self = {}, {}, 0.0
        with self._lock:
            tables = list(self._tables)
        for is_main, table, ctr in tables:
            for name, (calls, total, self_s, points) in table.items():
                rec = spans.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                              "points": 0})
                rec["calls"] += calls
                rec["total_s"] += total
                rec["self_s"] += self_s
                rec["points"] += points
                if is_main:
                    main_self += self_s
            for name, n in ctr.items():
                counters[name] = counters.get(name, 0) + n
        return {"spans": spans, "counters": counters, "main_self_s": main_self}


# -- post hooks: counts measured where the work happens ---------------------

def _after_simulate(tracer, args, kwargs, batch):
    if batch is not None:
        npaths, ncols = batch.paths.shape
        tracer.add("simulate.normals", npaths * (ncols - 1))
        tracer._local.last_batch = batch


def _after_integrate(tracer, args, kwargs, out):
    surface = args[0] if args else kwargs["surface"]
    batch = args[2] if len(args) > 2 else kwargs["batch"]
    tracer.add("simulate.exit_paths", _exited(batch.paths, surface.x_bounds))
    tracer.add("simulate.checked_paths", batch.paths.shape[0])


def _after_feynman_kac(tracer, args, kwargs, out):
    batch = getattr(tracer._local, "last_batch", None)
    surface = args[2] if len(args) > 2 else kwargs["v_surface"]
    if batch is not None:
        tracer.add("simulate.exit_paths", _exited(batch.paths, surface.x_bounds))
        tracer.add("simulate.checked_paths", batch.paths.shape[0])


def _after_solve_equilibrium(tracer, args, kwargs, sol):
    if sol is not None:
        tracer.add("pde.solve_equilibrium.steps", len(sol.ts) - 1)


_POST = {
    "simulate.simulate": _after_simulate,
    "portfolio.integrate_strategies": _after_integrate,
    "simulate.feynman_kac_vi": _after_feynman_kac,
    "pde.solve_equilibrium": _after_solve_equilibrium,
}
