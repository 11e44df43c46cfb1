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
from dataclasses import dataclass
from datetime import date
from pathlib import Path
from typing import TYPE_CHECKING, Optional

from .errors import InsufficientData, InvariantError, SchemaError
from .util import atomic_write_text, format_real

if TYPE_CHECKING:
    from .corpus import Ticker, TimeWindow
    from .transport import PriceTransport

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
        for name in ("open", "high", "low", "close"):
            if getattr(self, name) <= 0:
                raise InvariantError(f"{self.date}: {name} price must be positive")
        if not self.low <= self.open <= self.high:
            raise InvariantError(f"{self.date}: open {self.open} outside [low, high]")
        if not self.low <= self.close <= self.high:
            raise InvariantError(f"{self.date}: close {self.close} outside [low, high]")
        if self.volume < 0:
            raise InvariantError(f"{self.date}: volume must be non-negative")


@dataclass(frozen=True)
class PriceSeries:
    """Date-ordered daily bars for one ticker."""

    ticker: str
    bars: tuple[PriceBar, ...]

    def __post_init__(self) -> None:
        for prev, cur in zip(self.bars, self.bars[1:]):
            if cur.date == prev.date:
                raise InvariantError(f"{self.ticker}: duplicate price date {cur.date}")
            if cur.date < prev.date:
                raise InvariantError(f"{self.ticker}: bars not in date order at {cur.date}")

    def __len__(self) -> int:
        return len(self.bars)

    @property
    def opens(self) -> list[float]:
        return [bar.open for bar in self.bars]


def _parse_bar(row: dict, context: str) -> PriceBar:
    try:
        return PriceBar(
            date=date.fromisoformat(row["Date"]),
            open=float(row["Open"]),
            high=float(row["High"]),
            low=float(row["Low"]),
            close=float(row["Close"]),
            volume=int(row["Volume"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"{context}: malformed price row {row!r}: {exc}") from exc


def parse_prices(text: str, ticker: str, context: str = "<prices>") -> PriceSeries:
    """Parse a Yahoo-compatible CSV payload into a sorted, validated series."""
    reader = csv.DictReader(io.StringIO(text))
    if reader.fieldnames is None or [f.strip() for f in reader.fieldnames] != PRICE_HEADER:
        raise SchemaError(
            f"{context}: expected header {','.join(PRICE_HEADER)}, "
            f"got {','.join(reader.fieldnames or [])}"
        )
    bars = [_parse_bar(row, context) for row in reader]
    bars.sort(key=lambda bar: bar.date)
    return PriceSeries(ticker=ticker, bars=tuple(bars))


def load_prices(path: Path, ticker: str) -> PriceSeries:
    """Load a price CSV file; bars come back date-sorted with invariants enforced."""
    path = Path(path)
    return parse_prices(path.read_text(encoding="utf-8"), ticker, context=str(path))


def write_prices(series: PriceSeries, path: Path) -> PriceSeries:
    """Persist a series in the same Yahoo-compatible schema (Adj Close = Close).

    Returns the series as ``load_prices`` reads the file back: each price
    rounded to the file's 6 decimal places.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(PRICE_HEADER)
    bars = []
    for bar in series.bars:
        open_, high, low, close = (format_real(v) for v in (bar.open, bar.high, bar.low, bar.close))
        writer.writerow([bar.date.isoformat(), open_, high, low, close, close, bar.volume])
        bars.append(PriceBar(bar.date, float(open_), float(high), float(low), float(close), bar.volume))
    atomic_write_text(path, buf.getvalue())
    return PriceSeries(ticker=series.ticker, bars=tuple(bars))


def fetch_prices(ticker: "Ticker", window: "TimeWindow", transport: "PriceTransport") -> PriceSeries:
    """Retrieve a ticker's price history through a transport."""
    payload = transport.fetch(ticker, window)
    return parse_prices(payload, ticker.key, context=f"prices[{ticker.key}]")


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
