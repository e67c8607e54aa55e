"""The package's one CSV writer, and ``fork_call``, which runs two callables at once.

Every table is written by ``write_csv`` with one row template, built from the
cell types of its first row: ``%.12g`` for a float cell (``np.float64``
included) and ``%s`` for any other, so one ``%`` formats a whole row.  Rows
end in ``\\r\\n``, as RFC 4180 (and ``csv.writer``) has them.  A table given
as one iterable of rows is formatted and written CHUNK_ROWS at a time, so it
is never held in memory as one string.  A table given in two parts, as the
grid surfaces write theirs, is formatted on two CPUs: each part becomes one
string, the first in a forked child (``fork_call``), the second here.
"""

from __future__ import annotations

import os
import pickle
import warnings
from itertools import chain, islice

__all__ = ["write_csv", "fork_call", "CHUNK_ROWS", "FLOAT_FORMAT"]

CHUNK_ROWS = 4096
FLOAT_FORMAT = "%.12g"


def _fork() -> int:
    """os.fork(), without Python's warning that the process has threads."""
    with warnings.catch_warnings():
        # From Python 3.12 on, os.fork warns when the process has threads, as
        # it has once numpy's OpenBLAS has started its pool.  OpenBLAS stops the
        # pool around a fork by its own pthread_atfork handler, and the child
        # runs only numpy, LAPACK and pure Python, then os._exit()s: it waits
        # on no lock that another thread held.
        warnings.filterwarnings("ignore", r"This process \(pid=\d+\) is multi-threaded, "
                                r"use of fork\(\) may lead to deadlocks", DeprecationWarning)
        return os.fork()


def fork_call(child, parent):
    """(child(), parent()), with ``child`` run in a child process made by ``os.fork``.

    The child sends its result, or the exception it raised, back through a
    pipe, pickled; the exception is raised here once ``parent`` has returned.
    If ``parent`` raises, the child is killed and ``parent``'s exception
    propagates.  The child is always reaped.  It ends with ``os._exit``, so
    it flushes no buffer it inherited and runs no ``atexit`` handler.
    """
    import signal  # only the error path needs it; importing it here keeps it off setup

    read_end, write_end = os.pipe()
    try:
        pid = _fork()
    except BaseException:
        os.close(read_end)
        os.close(write_end)
        raise
    if pid == 0:
        code = 1
        try:
            os.close(read_end)
            try:
                result = (True, child())
            except BaseException as exc:  # sent to the parent, which raises it
                result = (False, exc)
            # pickled whole first, so that a result that cannot be pickled sends nothing
            payload = pickle.dumps(result, pickle.HIGHEST_PROTOCOL)
            with open(write_end, "wb") as fh:
                fh.write(payload)
            code = 0
        finally:
            os._exit(code)
    os.close(write_end)
    try:
        with open(read_end, "rb") as fh:
            mine = parent()
            data = fh.read()
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        _, status = os.waitpid(pid, 0)
    if not data:
        raise RuntimeError(f"forked child ended without a result, wait status {status}")
    ok, theirs = pickle.loads(data)
    if not ok:
        raise theirs
    return theirs, mine


def write_csv(path, header, rows, tail=None) -> None:
    """Header row, then one line per row of ``rows`` and then of ``tail``; floats rendered as %.12g.

    Every row has the cell types of the first row's columns (a text column
    may mix strings and ints).  Header names and text cells are written
    unquoted: the package writes only numbers and plain names.  With
    ``tail``, ``rows`` must not be empty: it is formatted in a forked child
    while this process formats ``tail``.
    """
    rows = map(tuple, rows)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        chunk = list(islice(rows, 1 if tail is not None else CHUNK_ROWS))
        if not chunk:
            return
        row_fmt = ",".join(FLOAT_FORMAT if isinstance(v, float) else "%s"
                           for v in chunk[0]) + "\r\n"
        if tail is not None:
            head, rest = fork_call(lambda: "".join(map(row_fmt.__mod__, chain(chunk, rows))),
                                   lambda: "".join(map(row_fmt.__mod__, map(tuple, tail))))
            fh.write(head)
            fh.write(rest)
            return
        while chunk:
            fh.write("".join(map(row_fmt.__mod__, chunk)))
            chunk = list(islice(rows, CHUNK_ROWS))
