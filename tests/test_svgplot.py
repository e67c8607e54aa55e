"""The SVG line plot's tick labels."""

import re

import numpy as np
import pytest

from illiquid_eq.svgplot import line_plot


def _labels(svg: str, anchor: str) -> list:
    return re.findall(rf'text-anchor="{anchor}" font-family="sans-serif" font-size="11">([^<]*)<', svg)


@pytest.mark.parametrize("scale", [1e-3, 1e-7, 1.0, 1e4])
def test_tick_labels_differ_at_any_scale(tmp_path, scale):
    # an approximation error of order 1e-3, as figures plots: two decimals
    # read -0.00 on every y tick
    ts = np.linspace(0.0, 3.0, 61)
    err = scale * (0.1 - 2.3 * np.sin(ts / 3.0))
    line_plot(tmp_path / "f.svg", [(ts, err, "error", "solid")])
    svg = (tmp_path / "f.svg").read_text()
    y, x = _labels(svg, "end"), _labels(svg, "middle")[:5]
    assert len(y) == 5 and len(set(y)) == 5
    values = [float(v) for v in y]
    assert values == sorted(values)
    assert min(values) <= err.min() and max(values) >= err.max()
    assert x == ["0.00", "0.75", "1.50", "2.25", "3.00"]
