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


def render_candlestick_svg(series: PriceSeries) -> str:
    """Render a price series as an SVG candlestick chart."""
    n = len(series)
    if not n:
        raise ValueError(f"{series.ticker}: cannot chart an empty series")

    lo = min(series.lows)
    hi = max(series.highs)
    if hi == lo:
        lo, hi = lo - 1.0, hi + 1.0
    pad = 0.04 * (hi - lo)
    lo, hi = lo - pad, hi + pad

    def y_of(value: float) -> float:
        return MARGIN_TOP + (1.0 - (value - lo) / (hi - lo)) * PLOT_H

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
        f'  <text class="title" x="{MARGIN_LEFT:.2f}" y="18">'
        f"{series.ticker} daily prices ({n} trading days)</text>\n"
    )

    # Frame and horizontal gridlines with price labels.
    out.append(
        f'  <rect class="axis" fill="none" x="{MARGIN_LEFT:.2f}" y="{MARGIN_TOP:.2f}" '
        f'width="{PLOT_W:.2f}" height="{PLOT_H:.2f}"/>\n'
    )
    for i in range(N_GRIDLINES):
        level = lo + (hi - lo) * i / (N_GRIDLINES - 1)
        gy = y_of(level)
        out.append(
            f'  <line class="grid" x1="{MARGIN_LEFT:.2f}" y1="{gy:.2f}" '
            f'x2="{MARGIN_LEFT + PLOT_W:.2f}" y2="{gy:.2f}"/>\n'
        )
        out.append(
            f'  <text x="4" y="{gy + 4.0:.2f}">{level:.2f}</text>\n'
        )

    # Date labels along the x axis.
    for i in range(0, n, label_step):
        cx = MARGIN_LEFT + (i + 0.5) * slot
        out.append(
            f'  <text x="{cx - 14.0:.2f}" y="{HEIGHT - 12.0:.2f}">'
            f"{series.dates[i].strftime('%m-%d')}</text>\n"
        )

    # One group per trading day: wick line then body rect.
    width = f"{body_w:.2f}"
    days = zip(series.dates, series.opens, series.highs, series.lows, series.closes)
    for i, (day, open_, high, low, close) in enumerate(days):
        cx = MARGIN_LEFT + (i + 0.5) * slot
        x = f"{cx:.2f}"
        direction = "up" if close >= open_ else "down"
        body_top = y_of(max(open_, close))
        body_h = max(MIN_BODY_PX, abs(y_of(open_) - y_of(close)))
        out.append(f'  <g class="day {direction}" data-date="{day.isoformat()}">\n')
        out.append(f'    <line class="wick" x1="{x}" y1="{y_of(high):.2f}" x2="{x}" y2="{y_of(low):.2f}"/>\n')
        out.append(
            f'    <rect x="{cx - body_w / 2:.2f}" y="{body_top:.2f}" '
            f'width="{width}" height="{body_h:.2f}"/>\n'
        )
        out.append("  </g>\n")

    out.append("</svg>\n")
    return "".join(out)
