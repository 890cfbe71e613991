"""Tiny self-contained SVG line plots.

Writes deterministic text, no display stack involved: same data in,
byte-identical file out. Only what the CLI needs: linear or log axes,
solid/dashed polylines, decade ticks, a legend.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

__all__ = ["Series", "line_plot_svg"]

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
            "#8c564b", "#17becf")

_W, _H = 720, 520
_ML, _MR, _MT, _MB = 80, 24, 40, 64


@dataclass
class Series:
    x: Sequence[float]
    y: Sequence[float]
    label: str = ""
    dashed: bool = False
    color: str | None = None


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _tick_values(lo: float, hi: float, log: bool) -> list[float]:
    if log:     # 1e308 is the largest decade a double holds
        decades = range(math.floor(math.log10(lo)),
                        min(math.ceil(math.log10(hi)), 308) + 1)
        return [10.0**d for d in decades if lo <= 10.0**d <= hi]
    span = hi - lo
    # below 1e-322 the decade step would underflow to 0
    step = 10.0 ** math.floor(math.log10(max(span / 4, 1e-322)))
    for mult in (1, 2, 5, 10):
        if span / (step * mult) <= 6:
            step *= mult
            break
    first = math.ceil(lo / step) * step
    ticks = []
    v = first
    # at most 8 ticks, none twice: a step under half an ulp of v leaves
    # v where it is
    while v <= hi + 1e-12 * span and len(ticks) < 8 and v not in ticks:
        ticks.append(v)
        v += step
    return ticks


def _tick_label(v: float, log: bool) -> str:
    if log:
        exp = round(math.log10(v))
        return f"1e{exp}"
    if v == int(v) and abs(v) < 1e6:
        return str(int(v))
    return f"{v:g}"


def _fraction(v: float, lo: float, hi: float, log: bool) -> float:
    if log:
        return (math.log10(v) - math.log10(lo)) \
            / (math.log10(hi) - math.log10(lo))
    return (v - lo) / (hi - lo)


def _axis_range(lo: float, hi: float, log: bool) -> tuple[float, float]:
    """lo and hi, or 10 % either side of them (-1 to 1 about 0) where the
    axis cannot tell them apart, as a log axis cannot two values a few
    ulps apart."""
    if (math.log10(hi) - math.log10(lo) if log else hi - lo) != 0:
        return lo, hi
    if not lo:
        return -1.0, 1.0
    return min(lo * 0.9, lo * 1.1), max(hi * 0.9, hi * 1.1)


def line_plot_svg(series: Sequence[Series], xlabel: str, ylabel: str,
                  title: str = "", log_x: bool = False,
                  log_y: bool = False, comment: str | None = None) -> str:
    # the finite points of each series that its axes can place
    points = [[(xv, yv) for xv, yv in zip(s.x, s.y)
               if math.isfinite(xv) and math.isfinite(yv)
               and not (log_x and xv <= 0 or log_y and yv <= 0)]
              for s in series]
    xs = [xv for pts in points for xv, _ in pts]
    ys = [yv for pts in points for _, yv in pts]
    if not xs:
        raise ValueError("nothing plottable")
    x_lo, x_hi = _axis_range(min(xs), max(xs), log_x)
    y_lo, y_hi = _axis_range(min(ys), max(ys), log_y)

    def tx(v: float) -> float:
        return _ML + _fraction(v, x_lo, x_hi, log_x) * (_W - _ML - _MR)

    def ty(v: float) -> float:
        return _H - _MB - _fraction(v, y_lo, y_hi, log_y) * (_H - _MT - _MB)

    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" '
           f'height="{_H}" viewBox="0 0 {_W} {_H}">']
    if comment:
        out.append(f'<!-- {comment} -->')
    out += [f'<rect width="{_W}" height="{_H}" fill="white"/>',
           f'<rect x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}" '
           f'height="{_H - _MT - _MB}" fill="none" stroke="black"/>']
    font = 'font-family="sans-serif" font-size="13"'
    if title:
        out.append(f'<text x="{_W // 2}" y="24" text-anchor="middle" '
                   f'{font}>{title}</text>')
    for v in _tick_values(x_lo, x_hi, log_x):
        px = tx(v)
        out.append(f'<line x1="{_fmt(px)}" y1="{_H - _MB}" x2="{_fmt(px)}" '
                   f'y2="{_H - _MB + 6}" stroke="black"/>')
        out.append(f'<text x="{_fmt(px)}" y="{_H - _MB + 22}" '
                   f'text-anchor="middle" {font}>{_tick_label(v, log_x)}'
                   '</text>')
    for v in _tick_values(y_lo, y_hi, log_y):
        py = ty(v)
        out.append(f'<line x1="{_ML - 6}" y1="{_fmt(py)}" x2="{_ML}" '
                   f'y2="{_fmt(py)}" stroke="black"/>')
        out.append(f'<text x="{_ML - 10}" y="{_fmt(py + 4)}" '
                   f'text-anchor="end" {font}>{_tick_label(v, log_y)}</text>')
    out.append(f'<text x="{_W // 2}" y="{_H - 16}" text-anchor="middle" '
               f'{font}>{xlabel}</text>')
    out.append(f'<text x="20" y="{_H // 2}" text-anchor="middle" {font} '
               f'transform="rotate(-90 20 {_H // 2})">{ylabel}</text>')
    legend_y = _MT + 16
    for i, (s, pts) in enumerate(zip(series, points)):
        color = s.color or _PALETTE[i % len(_PALETTE)]
        dash = ' stroke-dasharray="7 4"' if s.dashed else ""
        pts = [f"{_fmt(tx(xv))},{_fmt(ty(yv))}" for xv, yv in pts]
        if not pts:
            continue
        out.append(f'<polyline fill="none" stroke="{color}" '
                   f'stroke-width="1.6"{dash} points="{" ".join(pts)}"/>')
        if s.label:
            lx = _W - _MR - 170
            out.append(f'<line x1="{lx}" y1="{legend_y - 4}" x2="{lx + 26}" '
                       f'y2="{legend_y - 4}" stroke="{color}"'
                       f'{dash} stroke-width="1.6"/>')
            out.append(f'<text x="{lx + 32}" y="{legend_y}" {font}>'
                       f'{s.label}</text>')
            legend_y += 18
    out.append("</svg>")
    return "\n".join(out) + "\n"
