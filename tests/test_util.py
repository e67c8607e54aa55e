"""The CSV writer, byte for byte what csv.writer wrote with %.12g floats, and fork_call."""

import csv
import os
import signal
import subprocess
import sys
import time
import warnings
from itertools import chain, repeat
from pathlib import Path

import numpy as np
import pytest

from illiquid_eq.asymptotics import CorrectionSurface
from illiquid_eq.pde import EquilibriumSolution
from illiquid_eq import util
from illiquid_eq.util import CHUNK_ROWS, FLOAT_FORMAT, fork_call, write_csv

CELLS = [0.0, -0.0, 5e-324, 1e300, float("inf"), float("-inf"), float("nan"),
         np.float64(0.1) + np.float64(0.2), 2.0 / 3.0, -1.5e-7]


def _csv_writer(path, header, rows):
    """The writer this module replaced: csv.writer, floats as f"{v:.12g}"."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows([f"{v:.12g}" if isinstance(v, float) else v for v in row] for row in rows)


def _same_bytes(tmp_path, header, rows):
    write_csv(tmp_path / "new.csv", header, iter(rows))
    _csv_writer(tmp_path / "old.csv", header, rows)
    new = (tmp_path / "new.csv").read_bytes()
    assert new == (tmp_path / "old.csv").read_bytes()
    return new


def test_special_floats_match_csv_writer(tmp_path):
    data = _same_bytes(tmp_path, ["v"], [(v,) for v in CELLS])
    assert data.split(b"\r\n")[:8] == [b"v", b"0", b"-0", b"4.94065645841e-324", b"1e+300",
                                       b"inf", b"-inf", b"nan"]


def test_mixed_cells_match_csv_writer(tmp_path):
    # a text column may mix ints and strings, as simulation_summary.csv does
    rows = [(i, 10_000, np.float64(v), v, float(i)) for i, v in enumerate(CELLS)]
    rows.append(("average", 10_000, 1.25, np.float64(-0.0), 3.0))
    _same_bytes(tmp_path, ["measure", "paths", "a", "b", "c"], rows)


def test_lists_and_chunks_match_csv_writer(tmp_path):
    rng = np.random.default_rng(5)
    table = rng.normal(size=(2 * CHUNK_ROWS + 3, 3)) * 10.0 ** rng.integers(-12, 12, (1, 3))
    _same_bytes(tmp_path, ["t", "x", "v"], table.tolist())


def test_header_only(tmp_path):
    assert _same_bytes(tmp_path, ["t", "x"], []) == b"t,x\r\n"


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_fork_call_runs_the_child_in_another_process():
    theirs, mine = fork_call(os.getpid, lambda: np.arange(3.0))
    assert theirs != os.getpid() and mine.tolist() == [0.0, 1.0, 2.0]
    _no_child_left()


def _rough():
    raise ValueError("rough payoff")


def test_fork_call_raises_the_childs_exception_after_the_parents_part():
    done = []
    with pytest.raises(ValueError, match="^rough payoff$"):
        fork_call(_rough, lambda: done.append(True))
    assert done == [True]
    _no_child_left()


def test_fork_call_kills_the_child_when_the_parents_part_raises():
    t0 = time.perf_counter()
    with pytest.raises(KeyError):
        fork_call(lambda: time.sleep(60), lambda: {}["missing"])
    assert time.perf_counter() - t0 < 30.0
    _no_child_left()


def test_fork_call_reports_a_child_that_dies_without_a_result():
    with pytest.raises(RuntimeError, match="without a result"):
        fork_call(lambda: os.kill(os.getpid(), signal.SIGKILL), lambda: None)
    _no_child_left()


def test_fork_call_ignores_only_the_warning_about_forking_with_threads(monkeypatch):
    # Python 3.12 warns in the parent after os.fork when the process has
    # threads; fork_call ignores that warning, and only that one
    fork = os.fork

    def warning_fork(message):
        def wrapped():
            pid = fork()
            if pid:
                warnings.warn(message.format(pid=os.getpid()), DeprecationWarning, stacklevel=2)
            return pid
        return wrapped

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        monkeypatch.setattr(os, "fork", warning_fork(
            "This process (pid={pid}) is multi-threaded, use of fork() may lead to "
            "deadlocks in the child."))
        assert fork_call(lambda: 1, lambda: 2) == (1, 2)
        monkeypatch.setattr(os, "fork", warning_fork("some other deprecation"))
        with pytest.raises(DeprecationWarning, match="some other deprecation"):
            fork_call(lambda: 1, lambda: 2)
    os.waitpid(-1, 0)   # the child that the raising fork left running
    _no_child_left()


def test_fork_call_child_flushes_nothing_and_runs_no_atexit_handler():
    # stdout to a pipe is block-buffered: a child that flushed it, or ran the
    # handler, would print its line a second time
    code = ("import atexit, sys\n"
            "from illiquid_eq.util import fork_call\n"
            "atexit.register(print, 'atexit')\n"
            "sys.stdout.write('before\\n')\n"
            "print(fork_call(lambda: 1, lambda: 2))\n")
    src = str(Path(util.__file__).parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-W", "error", "-c", code], capture_output=True,
                          text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "before\n(1, 2)\natexit\n"


def _sequential(surface, header, fields, path):
    """The grid table as one write_csv over every row, which the grid writer split in two."""
    x_text = [FLOAT_FORMAT % x for x in surface.xs.tolist()]
    write_csv(path, header, chain.from_iterable(
        zip(repeat(FLOAT_FORMAT % t, len(x_text)), x_text, *(f[m].tolist() for f in fields))
        for m, t in enumerate(surface.ts.tolist())))
    return path.read_bytes()


@pytest.mark.parametrize("nt", [2, 3, 6, 7])
def test_grid_tables_equal_one_sequential_write(tmp_path, nt):
    rng = np.random.default_rng(nt)
    ts, xs = np.linspace(0.0, 3.0, nt), np.linspace(0.53, 1.97, 5)
    surf = CorrectionSurface(ts=ts, xs=xs, v=rng.normal(size=(nt, 5)) * 1e-3)
    surf.to_csv(tmp_path / "tc.csv")
    header = ["t", "x", "v_star", "dv_star_dx"]
    want = _sequential(surf, header, [surf.v, surf.dv_dx], tmp_path / "want.csv")
    assert (tmp_path / "tc.csv").read_bytes() == want
    assert want.count(b"\r\n") == 1 + 5 * nt

    vi = rng.normal(size=(3, nt, 5))
    sol = EquilibriumSolution(ts=ts, xs=xs, v=vi.mean(axis=0), vi=vi, spec=None, beliefs=None)
    sol.to_csv(tmp_path / "eq.csv")
    want = _sequential(sol, ["t", "x", "v", "v1", "v2", "v3", "dv_dx"],
                       [sol.v, *sol.vi, sol.dv_dx], tmp_path / "want.csv")
    assert (tmp_path / "eq.csv").read_bytes() == want
    _no_child_left()
