"""The CSV writer: byte for byte what csv.writer wrote with %.12g floats."""

import csv

import numpy as np

from illiquid_eq.util import CHUNK_ROWS, write_csv

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
