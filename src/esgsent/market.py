"""Daily OHLCV price history and opening-price change arithmetic.

Prices load from Yahoo-compatible CSV (header
``Date,Open,High,Low,Close,Adj Close,Volume``; the adjusted column is
accepted and ignored). "Days" always means trading rows; calendar gaps
from weekends and holidays are expected.

Percentage change is computed on opening prices, first open to last
open, and daily returns are open-to-open. That basis is this artifact's
documented choice; volume is validated and surfaced in reports but
enters no formula.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from datetime import date
from pathlib import Path
from typing import Optional

from .errors import InsufficientData, InvariantError, SchemaError
from .transport import ReplayPriceTransport
from .util import atomic_write_text, read_text

PRICE_HEADER = ["Date", "Open", "High", "Low", "Close", "Adj Close", "Volume"]


@dataclass(frozen=True)
class PriceBar:
    """One trading day of prices and volume."""

    date: date
    open: float
    high: float
    low: float
    close: float
    volume: int

    def __post_init__(self) -> None:
        # The chain holds exactly when every check below passes (NaN fails
        # every comparison), so a valid bar costs one test; the checks name
        # what is wrong with an invalid one.
        if not (0 < self.low <= self.open <= self.high < math.inf and self.low <= self.close <= self.high):
            for name in ("open", "high", "low", "close"):
                value = getattr(self, name)
                if not 0 < value < math.inf:
                    problem = "must be positive" if math.isfinite(value) else f"{value} is not finite"
                    raise InvariantError(f"{self.date}: {name} price {problem}")
            if not self.low <= self.open <= self.high:
                raise InvariantError(f"{self.date}: open {self.open} outside [low, high]")
            raise InvariantError(f"{self.date}: close {self.close} outside [low, high]")
        if self.volume < 0:
            raise InvariantError(f"{self.date}: volume must be non-negative")


@dataclass(frozen=True)
class PriceSeries:
    """Daily bars for one ticker, in strictly increasing date order as ``parse_prices`` builds them."""

    ticker: str
    bars: tuple[PriceBar, ...]

    def __len__(self) -> int:
        return len(self.bars)


def _parse_bar(row: list[str], context: str) -> PriceBar:
    """One CSV row as a bar; columns go by position (Adj Close and any after Volume are unread)."""
    try:
        return PriceBar(
            date.fromisoformat(row[0]), float(row[1]), float(row[2]), float(row[3]), float(row[4]), int(row[6])
        )
    except (IndexError, ValueError) as exc:
        raise SchemaError(f"{context}: malformed price row {row!r}: {exc}") from exc
    except InvariantError as exc:
        raise InvariantError(f"{context}: {exc}") from exc


def parse_prices(text: str, ticker: str, context: str = "<prices>") -> PriceSeries:
    """Parse a Yahoo-compatible CSV payload into a sorted, validated series.

    Header names may carry padding; blank rows are skipped; a repeated
    date is an InvariantError.
    """
    rows = csv.reader(io.StringIO(text))
    header = next(rows, [])
    if [f.strip() for f in header] != PRICE_HEADER:
        raise SchemaError(f"{context}: expected header {','.join(PRICE_HEADER)}, got {','.join(header)}")
    bars = [_parse_bar(row, context) for row in rows if row]
    bars.sort(key=lambda bar: bar.date)
    for prev, cur in zip(bars, bars[1:]):
        if cur.date == prev.date:
            raise InvariantError(f"{context}: duplicate price date {cur.date}")
    return PriceSeries(ticker=ticker, bars=tuple(bars))


def load_prices(path: Path, ticker: str) -> PriceSeries:
    """Load a price CSV file; bars come back date-sorted with invariants enforced."""
    path = Path(path)
    return parse_prices(read_text(path), ticker, context=str(path))


def write_prices(series: PriceSeries, path: Path) -> PriceSeries:
    """Persist a series in the same Yahoo-compatible schema (Adj Close = Close).

    Returns the series as ``load_prices`` reads the file back: each price
    rounded to the file's 6 decimal places. No field can need CSV quoting.
    """
    lines = [",".join(PRICE_HEADER) + "\n"]
    bars = []
    for bar in series.bars:
        open_, high, low, close = f"{bar.open:.6f}", f"{bar.high:.6f}", f"{bar.low:.6f}", f"{bar.close:.6f}"
        lines.append(f"{bar.date},{open_},{high},{low},{close},{close},{bar.volume}\n")
        if not (float(open_) == bar.open and float(high) == bar.high and float(low) == bar.low
                and float(close) == bar.close):
            # Rounding moved a price: rebuild, so the bar is checked as it will be read back.
            bar = PriceBar(bar.date, float(open_), float(high), float(low), float(close), bar.volume)
        bars.append(bar)
    atomic_write_text(path, "".join(lines))
    return PriceSeries(ticker=series.ticker, bars=tuple(bars))


def fetch_prices(ticker: str, transport: ReplayPriceTransport) -> PriceSeries:
    """Retrieve a ticker's price history through a transport; errors name its fixture file."""
    payload = transport.fetch(ticker)
    return parse_prices(payload, ticker, context=str(transport.path(ticker)))


def tail_n(series: PriceSeries, n: int, end: Optional[date] = None) -> PriceSeries:
    """Last n trading rows dated on or before `end` (all of them when fewer)."""
    if n < 1:
        raise ValueError(f"tail length must be >= 1, got {n}")
    bars = series.bars if end is None else tuple(bar for bar in series.bars if bar.date <= end)
    return PriceSeries(ticker=series.ticker, bars=bars[-n:])


def percent_change_open(series: PriceSeries) -> float:
    """Percent change from the first bar's open to the last bar's open."""
    if len(series) < 2:
        raise InsufficientData(f"{series.ticker}: need >= 2 bars for a percent change")
    first, last = series.bars[0].open, series.bars[-1].open
    return 100.0 * (last - first) / first


def daily_open_returns(series: PriceSeries) -> list[tuple[date, float]]:
    """Open-to-open percent return for each consecutive bar pair, dated at the later bar."""
    if len(series) < 2:
        raise InsufficientData(f"{series.ticker}: need >= 2 bars for daily returns")
    return [
        (cur.date, 100.0 * (cur.open - prev.open) / prev.open)
        for prev, cur in zip(series.bars, series.bars[1:])
    ]
