"""Candlestick charts as deterministic, text-diffable SVG.

Fixed 800x400 viewBox, one ``<g class="day ...">`` per trading day,
elements emitted in a fixed order with fixed-precision coordinates, so
identical input yields byte-identical SVG (golden-file friendly).

Each day draws a high-low wick plus an open-close body; days that close
at or above the open get the hollow "up" styling, days that close lower
are filled "down".

A day's x coordinates and body width depend only on the number of days,
so the day groups of an n-day chart are formatted once into a template
(``_day_template``) with %-fields for each day's direction, date and y
values, and a chart fills it in with one ``%`` operation. The last
LAYOUTS_KEPT lengths keep their template: ``report`` draws many charts
of ``price_days`` bars, which would otherwise format the same x text
again for each ticker. A template holds about 171 characters a day,
42,713 (about 43 KB) at n = 250; eight 400-day templates hold 0.55 MB.
"""

from __future__ import annotations

from datetime import date
from functools import lru_cache
from itertools import chain
from typing import Iterable

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
LAYOUTS_KEPT = 8  # day layouts cached, one per number of days

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


@lru_cache(maxsize=LAYOUTS_KEPT)
def _day_template(n: int) -> str:
    """The n day groups of an n-day chart, with the wick x, the body x and
    the body width formatted in, and %-fields for each day's direction,
    date, y(high), y(low), body top and body height, in that order."""
    slot = PLOT_W / n
    body_w = max(1.0, slot * 0.6)
    width = f"{body_w:.2f}"
    groups = []
    for i in range(n):
        cx = MARGIN_LEFT + (i + 0.5) * slot
        x = f"{cx:.2f}"
        groups.append(
            '  <g class="day %s" data-date="%s">\n'
            f'    <line class="wick" x1="{x}" y1="%.2f" x2="{x}" y2="%.2f"/>\n'
            f'    <rect x="{cx - body_w / 2:.2f}" y="%.2f" width="{width}" height="%.2f"/>\n'
            "  </g>\n"
        )
    return "".join(groups)


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

    span = hi - lo

    def y_of(values: Iterable[float]) -> list[float]:
        return [MARGIN_TOP + (1.0 - (v - lo) / span) * PLOT_H for v in values]

    slot = PLOT_W / n
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
    levels = [lo + span * i / (N_GRIDLINES - 1) for i in range(N_GRIDLINES)]
    for level, gy in zip(levels, y_of(levels)):
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

    # The day groups, filled a column at a time into the layout of n days.
    y_open, y_close = y_of(series.opens), y_of(series.closes)
    days = zip(
        ["up" if close >= open_ else "down" for open_, close in zip(series.opens, series.closes)],
        map(date.isoformat, series.dates),
        y_of(series.highs),
        y_of(series.lows),
        map(min, y_open, y_close),  # y falls as the price rises
        [max(MIN_BODY_PX, abs(yo - yc)) for yo, yc in zip(y_open, y_close)],
    )
    out.append(_day_template(n) % tuple(chain.from_iterable(days)))

    out.append("</svg>\n")
    return "".join(out)
