"""The package's one CSV writer: every table it emits goes through write_csv."""

from __future__ import annotations

import csv

__all__ = ["write_csv"]


def write_csv(path, header, rows) -> None:
    """RFC-4180 CSV with a header row; floats rendered as %.12g."""

    def fmt(v):
        if isinstance(v, float):
            return f"{v:.12g}"
        return v

    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows([fmt(v) for v in row] for row in rows)
