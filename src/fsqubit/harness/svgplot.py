"""Minimal deterministic SVG line/marker plots.

Layout depends only on the data and style arguments; no timestamps, random
ids, or library version strings end up in the file, so identical inputs
produce identical bytes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_COLORS = ("#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b")
_W, _H = 640, 420
_ML, _MR, _MT, _MB = 72, 16, 30, 52


class PlotError(Exception):
    pass


@dataclass(frozen=True)
class Series:
    x: np.ndarray
    y: np.ndarray
    label: str = ""
    style: str = "line"  # "line" or "markers"

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if x.size == 0 or x.shape != y.shape:
            raise PlotError("series needs matching, non-empty x and y")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)


def _nice_ticks(lo: float, hi: float) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    span = hi - lo
    step = 10.0 ** math.floor(math.log10(span / 6))
    for mult in (1, 2, 5, 10):
        if span / (step * mult) <= 6:
            step *= mult
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-9 * span:
        ticks.append(round(t, 12))
        t += step
    return ticks


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def emit_plot(
    path,
    series: list[Series],
    x_label: str,
    y_label: str,
    log_x: bool = False,
) -> None:
    """Write a static SVG with axes and one polyline or marker set per series."""
    if not series:
        raise PlotError("emit_plot needs at least one series")

    def tx(x):
        return np.log10(x) if log_x else x

    all_x = np.concatenate([tx(s.x) for s in series])
    all_y = np.concatenate([s.y for s in series])
    if not (np.all(np.isfinite(all_x)) and np.all(np.isfinite(all_y))):
        raise PlotError("non-finite plot data")
    x_lo, x_hi = float(all_x.min()), float(all_x.max())
    y_lo, y_hi = float(all_y.min()), float(all_y.max())
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5
    pad_y = 0.06 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad_y, y_hi + pad_y

    def px(x):
        return _ML + (x - x_lo) / (x_hi - x_lo) * (_W - _ML - _MR)

    def py(y):
        return _H - _MB - (y - y_lo) / (y_hi - y_lo) * (_H - _MT - _MB)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}" font-family="sans-serif" font-size="12">',
        f'<rect x="0" y="0" width="{_W}" height="{_H}" fill="white"/>',
        f'<rect x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}" height="{_H - _MT - _MB}" '
        'fill="none" stroke="black"/>',
    ]
    for t in _nice_ticks(x_lo, x_hi):
        x = px(t)
        label = _fmt(10 ** t) if log_x else _fmt(t)
        out.append(f'<line x1="{x:.2f}" y1="{_H - _MB}" x2="{x:.2f}" y2="{_H - _MB + 5}" stroke="black"/>')
        out.append(f'<text x="{x:.2f}" y="{_H - _MB + 18}" text-anchor="middle">{label}</text>')
    for t in _nice_ticks(y_lo, y_hi):
        y = py(t)
        out.append(f'<line x1="{_ML - 5}" y1="{y:.2f}" x2="{_ML}" y2="{y:.2f}" stroke="black"/>')
        out.append(f'<text x="{_ML - 8}" y="{y + 4:.2f}" text-anchor="end">{_fmt(t)}</text>')
    out.append(
        f'<text x="{(_ML + _W - _MR) / 2:.1f}" y="{_H - 12}" text-anchor="middle">{x_label}</text>'
    )
    out.append(
        f'<text x="16" y="{(_MT + _H - _MB) / 2:.1f}" text-anchor="middle" '
        f'transform="rotate(-90 16 {(_MT + _H - _MB) / 2:.1f})">{y_label}</text>'
    )

    for i, s in enumerate(series):
        color = _COLORS[i % len(_COLORS)]
        pixels = tuple(np.column_stack([px(tx(s.x)), py(s.y)]).ravel().tolist())
        if s.style == "line":
            points = " ".join(["%.2f,%.2f"] * s.x.size) % pixels
            out.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{points}"/>')
        elif s.style == "markers":
            marker = f'<circle cx="%.2f" cy="%.2f" r="3" fill="{color}"/>'
            out.append("\n".join([marker] * s.x.size) % pixels)
        else:
            raise PlotError(f"unknown series style {s.style!r}")
        if s.label:
            ly = _MT + 16 + 16 * i
            out.append(f'<line x1="{_W - _MR - 120}" y1="{ly - 4}" x2="{_W - _MR - 96}" y2="{ly - 4}" '
                       f'stroke="{color}" stroke-width="2"/>')
            out.append(f'<text x="{_W - _MR - 90}" y="{ly}">{s.label}</text>')
    out.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(out) + "\n")
