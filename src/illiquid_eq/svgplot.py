"""Minimal SVG 1.1 polyline plots: axes, two-decimal ticks and a legend.

Kept dependency-free on purpose; the emitted figures are acceptance
artifacts and must not hinge on an external plotting stack.
"""

from __future__ import annotations

import numpy as np

__all__ = ["line_plot"]

_DASHES = {"solid": None, "dotted": "2,4", "dashed": "8,5"}
_COLORS = ["#1f3b73", "#b0413e", "#3e7a42", "#7a5195", "#c08a1f", "#3d8c95"]
# figure size in pixels
WIDTH, HEIGHT = 640, 440


def _ticks(lo: float, hi: float, n: int = 5):
    if hi <= lo:
        hi = lo + 1.0
    raw = np.linspace(lo, hi, n)
    return [float(v) for v in raw]


def line_plot(path, curves, title: str = "", xlabel: str = "", ylabel: str = "") -> None:
    """Write an SVG line plot.

    ``curves`` is a sequence of (xs, ys, label, style) with style one of
    "solid", "dotted", "dashed".
    """
    ml, mr, mt, mb = 72, 20, 34, 48
    pw, ph = WIDTH - ml - mr, HEIGHT - mt - mb
    all_x = np.concatenate([np.asarray(c[0], dtype=float) for c in curves])
    all_y = np.concatenate([np.asarray(c[1], dtype=float) for c in curves])
    x_lo, x_hi = float(all_x.min()), float(all_x.max())
    y_lo, y_hi = float(all_y.min()), float(all_y.max())
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 1.0, y_hi + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    def px(x):
        return ml + (x - x_lo) / (x_hi - x_lo) * pw

    def py(y):
        return mt + (y_hi - y) / (y_hi - y_lo) * ph

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{WIDTH}" height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH/2:.1f}" y="20" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{title}</text>',
    ]
    # axes box
    parts.append(f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" '
                 f'fill="none" stroke="#444" stroke-width="1"/>')
    for xv in _ticks(x_lo, x_hi):
        parts.append(f'<line x1="{px(xv):.1f}" y1="{mt+ph}" x2="{px(xv):.1f}" '
                     f'y2="{mt+ph+5}" stroke="#444"/>')
        parts.append(f'<text x="{px(xv):.1f}" y="{mt+ph+18}" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="11">{xv:.2f}</text>')
    for yv in _ticks(y_lo, y_hi):
        parts.append(f'<line x1="{ml-5}" y1="{py(yv):.1f}" x2="{ml}" '
                     f'y2="{py(yv):.1f}" stroke="#444"/>')
        parts.append(f'<text x="{ml-8}" y="{py(yv)+4:.1f}" text-anchor="end" '
                     f'font-family="sans-serif" font-size="11">{yv:.2f}</text>')
    parts.append(f'<text x="{ml+pw/2:.1f}" y="{HEIGHT-10}" text-anchor="middle" '
                 f'font-family="sans-serif" font-size="12">{xlabel}</text>')
    parts.append(f'<text x="16" y="{mt+ph/2:.1f}" text-anchor="middle" '
                 f'font-family="sans-serif" font-size="12" '
                 f'transform="rotate(-90 16 {mt+ph/2:.1f})">{ylabel}</text>')

    for ci, (xs, ys, label, style) in enumerate(curves):
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        pts = " ".join(f"{px(a):.2f},{py(b):.2f}" for a, b in zip(xs, ys))
        dash = _DASHES.get(style, None)
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        color = _COLORS[ci % len(_COLORS)]
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                     f'stroke-width="1.6"{dash_attr}/>')
        # legend entry
        ly = mt + 16 + 16 * ci
        parts.append(f'<line x1="{ml+pw-120}" y1="{ly}" x2="{ml+pw-90}" y2="{ly}" '
                     f'stroke="{color}" stroke-width="1.6"{dash_attr}/>')
        parts.append(f'<text x="{ml+pw-84}" y="{ly+4}" font-family="sans-serif" '
                     f'font-size="11">{label}</text>')
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")
