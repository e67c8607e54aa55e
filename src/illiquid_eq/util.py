"""The package's one CSV writer: every table it emits goes through write_csv.

Each table is written with one row template, built from the cell types of
its first row: ``%.12g`` for a float cell (``np.float64`` included) and
``%s`` for any other, so one ``%`` formats a whole row.  Rows end in
``\\r\\n``, as RFC 4180 (and ``csv.writer``) has them.  Rows are formatted and
written CHUNK_ROWS at a time, so the file is never held in memory as one
string.
"""

from __future__ import annotations

from itertools import islice

__all__ = ["write_csv", "CHUNK_ROWS", "FLOAT_FORMAT"]

CHUNK_ROWS = 4096
FLOAT_FORMAT = "%.12g"


def write_csv(path, header, rows) -> None:
    """Header row, then one line per row; floats rendered as %.12g.

    Every row has the cell types of the first row's columns (a text column
    may mix strings and ints).  Header names and text cells are written
    unquoted: the package writes only numbers and plain names.
    """
    rows = iter(rows)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        chunk = list(map(tuple, islice(rows, CHUNK_ROWS)))
        if not chunk:
            return
        row_fmt = ",".join(FLOAT_FORMAT if isinstance(v, float) else "%s"
                           for v in chunk[0]) + "\r\n"
        while chunk:
            fh.write("".join(map(row_fmt.__mod__, chunk)))
            chunk = list(map(tuple, islice(rows, CHUNK_ROWS)))
