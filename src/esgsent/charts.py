"""Candlestick charts as deterministic, text-diffable SVG.

Fixed 800x400 viewBox, one ``<g class="day ...">`` per trading day,
elements emitted in a fixed order with fixed-precision coordinates, so
identical input yields byte-identical SVG (golden-file friendly).

Each day draws a high-low wick plus an open-close body; days that close
at or above the open get the hollow "up" styling, days that close lower
are filled "down".
"""

from __future__ import annotations

from .market import PriceSeries

WIDTH = 800
HEIGHT = 400
MARGIN_LEFT = 64.0
MARGIN_RIGHT = 16.0
MARGIN_TOP = 28.0
MARGIN_BOTTOM = 36.0
PLOT_W = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
PLOT_H = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM
N_GRIDLINES = 5
MIN_BODY_PX = 0.75  # so a doji still draws a visible dash

_STYLE = """\
  <style>
    text { font-family: monospace; font-size: 11px; fill: #333; }
    .title { font-size: 13px; }
    .axis { stroke: #888; stroke-width: 1; }
    .grid { stroke: #ddd; stroke-width: 1; }
    .wick { stroke: #444; stroke-width: 1; }
    .up rect { fill: none; stroke: #1a7f37; stroke-width: 1.25; }
    .down rect { fill: #cf222e; stroke: #cf222e; stroke-width: 1.25; }
  </style>
"""


def _fmt(value: float) -> str:
    return f"{value:.2f}"


def render_candlestick_svg(series: PriceSeries) -> str:
    """Render a price series as an SVG candlestick chart."""
    if not series.bars:
        raise ValueError(f"{series.ticker}: cannot chart an empty series")

    lo = min(bar.low for bar in series.bars)
    hi = max(bar.high for bar in series.bars)
    if hi == lo:
        lo, hi = lo - 1.0, hi + 1.0
    pad = 0.04 * (hi - lo)
    lo, hi = lo - pad, hi + pad

    def y_of(value: float) -> float:
        return MARGIN_TOP + (1.0 - (value - lo) / (hi - lo)) * PLOT_H

    n = len(series.bars)
    slot = PLOT_W / n
    body_w = max(1.0, slot * 0.6)
    label_step = max(1, (n + 7) // 8)

    out: list[str] = []
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {WIDTH} {HEIGHT}" '
        f'width="{WIDTH}" height="{HEIGHT}">\n'
    )
    out.append(_STYLE)
    out.append(
        f'  <text class="title" x="{_fmt(MARGIN_LEFT)}" y="18">'
        f"{series.ticker} daily prices ({n} trading days)</text>\n"
    )

    # Frame and horizontal gridlines with price labels.
    out.append(
        f'  <rect class="axis" fill="none" x="{_fmt(MARGIN_LEFT)}" y="{_fmt(MARGIN_TOP)}" '
        f'width="{_fmt(PLOT_W)}" height="{_fmt(PLOT_H)}"/>\n'
    )
    for i in range(N_GRIDLINES):
        level = lo + (hi - lo) * i / (N_GRIDLINES - 1)
        gy = y_of(level)
        out.append(
            f'  <line class="grid" x1="{_fmt(MARGIN_LEFT)}" y1="{_fmt(gy)}" '
            f'x2="{_fmt(MARGIN_LEFT + PLOT_W)}" y2="{_fmt(gy)}"/>\n'
        )
        out.append(
            f'  <text x="4" y="{_fmt(gy + 4.0)}">{_fmt(level)}</text>\n'
        )

    # Date labels along the x axis.
    for i, bar in enumerate(series.bars):
        if i % label_step:
            continue
        cx = MARGIN_LEFT + (i + 0.5) * slot
        out.append(
            f'  <text x="{_fmt(cx - 14.0)}" y="{_fmt(HEIGHT - 12.0)}">'
            f"{bar.date.strftime('%m-%d')}</text>\n"
        )

    # One group per trading day: wick line then body rect.
    for i, bar in enumerate(series.bars):
        cx = MARGIN_LEFT + (i + 0.5) * slot
        direction = "up" if bar.close >= bar.open else "down"
        body_top = y_of(max(bar.open, bar.close))
        body_h = max(MIN_BODY_PX, abs(y_of(bar.open) - y_of(bar.close)))
        out.append(f'  <g class="day {direction}" data-date="{bar.date.isoformat()}">\n')
        out.append(
            f'    <line class="wick" x1="{_fmt(cx)}" y1="{_fmt(y_of(bar.high))}" '
            f'x2="{_fmt(cx)}" y2="{_fmt(y_of(bar.low))}"/>\n'
        )
        out.append(
            f'    <rect x="{_fmt(cx - body_w / 2)}" y="{_fmt(body_top)}" '
            f'width="{_fmt(body_w)}" height="{_fmt(body_h)}"/>\n'
        )
        out.append("  </g>\n")

    out.append("</svg>\n")
    return "".join(out)
