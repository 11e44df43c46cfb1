"""The per-day candlestick renderer that ``charts.render_candlestick_svg`` must match, kept as its reference.

Imported by the tier-1 differential test, which compares the two byte for
byte on seeded series. The layout constants and the style block are the
module's own, so only the drawing is compared.
"""

from __future__ import annotations

from esgsent.charts import (
    _STYLE,
    HEIGHT,
    MARGIN_LEFT,
    MARGIN_TOP,
    MIN_BODY_PX,
    N_GRIDLINES,
    PLOT_H,
    PLOT_W,
    WIDTH,
)
from esgsent.market import PriceSeries


def reference_render_candlestick_svg(series: PriceSeries) -> str:
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
        y_open, y_close = y_of(open_), y_of(close)
        body_top = min(y_open, y_close)  # y_of falls as the price rises
        body_h = max(MIN_BODY_PX, abs(y_open - y_close))
        out.append(f'  <g class="day {direction}" data-date="{day.isoformat()}">\n')
        out.append(f'    <line class="wick" x1="{x}" y1="{y_of(high):.2f}" x2="{x}" y2="{y_of(low):.2f}"/>\n')
        out.append(
            f'    <rect x="{cx - body_w / 2:.2f}" y="{body_top:.2f}" '
            f'width="{width}" height="{body_h:.2f}"/>\n'
        )
        out.append("  </g>\n")

    out.append("</svg>\n")
    return "".join(out)
