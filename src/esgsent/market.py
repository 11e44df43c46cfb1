"""Daily OHLCV price history and opening-price change arithmetic.

Prices load from Yahoo-compatible CSV (header
``Date,Open,High,Low,Close,Adj Close,Volume``; the adjusted column is
accepted and ignored). "Days" always means trading rows; calendar gaps
from weekends and holidays are expected. A series is columnar: one
tuple per column, with no object per trading day.

Percentage change is computed on opening prices, first open to last
open, and daily returns are open-to-open. That basis is this artifact's
documented choice; volume is validated and written to ``prices/<T>.csv``
but enters no formula.
"""

from __future__ import annotations

import csv
import io
import math
import operator
import re
from bisect import bisect_right
from datetime import date
from pathlib import Path
from typing import NamedTuple, Optional

from .errors import InsufficientData, InvariantError, SchemaError
from .transport import ReplayPriceTransport
from .util import Record, atomic_write_text, header_error, read_text

PRICE_HEADER = ["Date", "Open", "High", "Low", "Close", "Adj Close", "Volume"]


def _iso_date(text: str) -> date:
    """A YYYY-MM-DD date; a text that date.fromisoformat rejects keeps its error."""
    day = date.fromisoformat(text)
    # From Python 3.11 on fromisoformat also reads 20220720 and 2022-W29-3.
    if str(day) != text:
        raise ValueError(f"date {text!r} is not YYYY-MM-DD")
    return day


# How each read column converts, by position in a row.
_CONVERTERS = ((_iso_date, 0), (float, 1), (float, 2), (float, 3), (float, 4), (int, 6))
# A date column joined by line breaks, every date YYYY-MM-DD: checked in C, then read by fromisoformat.
_DATE_COLUMN = re.compile(r"\d\d\d\d-\d\d-\d\d(?:\n\d\d\d\d-\d\d-\d\d)*", re.ASCII).fullmatch


def _check_bar(context: object, day: date, open_: float, high: float, low: float, close: float,
               volume: int) -> None:
    """Raise InvariantError ``<context>: <day>: <problem>`` if a day's prices or volume are wrong."""
    # The chain holds exactly when every check below passes (NaN fails
    # every comparison), so a valid bar costs one test; the checks name
    # what is wrong with an invalid one.
    if not (0 < low <= open_ <= high < math.inf and low <= close <= high):
        for name, value in (("open", open_), ("high", high), ("low", low), ("close", close)):
            if not 0 < value < math.inf:
                problem = "must be positive" if math.isfinite(value) else f"{value} is not finite"
                raise InvariantError(f"{context}: {day}: {name} price {problem}")
        if not low <= open_ <= high:
            raise InvariantError(f"{context}: {day}: open {open_} outside [low, high]")
        raise InvariantError(f"{context}: {day}: close {close} outside [low, high]")
    if volume < 0:
        raise InvariantError(f"{context}: {day}: volume must be non-negative")


class _PriceSeriesFields(NamedTuple):
    ticker: str
    dates: tuple[date, ...]
    opens: tuple[float, ...]
    highs: tuple[float, ...]
    lows: tuple[float, ...]
    closes: tuple[float, ...]
    volumes: tuple[int, ...]


class PriceSeries(Record, _PriceSeriesFields):
    """One ticker's daily prices, a tuple per column, in strictly increasing
    date order; ``len()`` is the number of trading days, not of fields."""

    __slots__ = ()

    def __len__(self) -> int:
        return len(self.dates)


def _parse_row(row: list[str], context: str) -> tuple:
    """One CSV row, read by position, as a checked (date, open, high, low, close, volume)."""
    try:
        bar = tuple(convert(row[i]) for convert, i in _CONVERTERS)
    except (IndexError, ValueError) as exc:
        raise SchemaError(f"{context}: malformed price row {row!r}: {exc}") from exc
    _check_bar(context, *bar)
    return bar


def _columns(rows: list[list[str]]) -> Optional[list[tuple]]:
    """The six read columns, converted and checked a column at a time; None if any row is bad."""
    text = list(zip(*rows))
    if len(text) < 7:  # zip stops at the shortest row: a short row is never truncated
        return None
    dates = "\n".join(text[0])
    # 11 characters a date, less one: no date holds a line break of its own.
    if _DATE_COLUMN(dates) is None or len(dates) != 11 * len(rows) - 1:
        return None
    try:
        columns = [tuple(map(date.fromisoformat, text[0]))]
        columns += [tuple(map(convert, text[i])) for convert, i in _CONVERTERS[1:]]
    except ValueError:
        return None
    _, opens, highs, lows, closes, volumes = columns
    # _check_bar's chain and volume check; NaN fails a comparison, so min and max see none.
    le = operator.le
    if (all(map(le, lows, opens)) and all(map(le, opens, highs)) and all(map(le, lows, closes))
            and all(map(le, closes, highs)) and min(lows) > 0 and max(highs) < math.inf and min(volumes) >= 0):
        return columns
    return None


def parse_prices(text: str, ticker: str, context: str = "<prices>") -> PriceSeries:
    """Parse a Yahoo-compatible CSV payload into a sorted, validated series.

    Header names may carry padding; blank rows are skipped; a repeated
    date is an InvariantError. Of several bad rows, the first in file
    order names the error.
    """
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader, [])
        if [f.strip() for f in header] != PRICE_HEADER:
            raise header_error(context, PRICE_HEADER, header)
        rows = list(filter(None, reader))
    except csv.Error as exc:
        raise SchemaError(f"{context}:{reader.line_num}: {exc}") from exc
    # The per-row path runs only to name the first bad row (or for a file with none).
    columns = _columns(rows) or list(zip(*(_parse_row(row, context) for row in rows))) or [()] * 6
    dates = columns[0]
    if not all(map(operator.lt, dates, dates[1:])):
        order = sorted(range(len(dates)), key=dates.__getitem__)
        columns = [tuple(map(column.__getitem__, order)) for column in columns]
        dates = columns[0]
        for prev, cur in zip(dates, dates[1:]):
            if cur == prev:
                raise InvariantError(f"{context}: duplicate price date {cur}")
    return PriceSeries(ticker, *columns)


def load_prices(path: Path, ticker: str) -> PriceSeries:
    """Load a price CSV file; bars come back date-sorted with invariants enforced."""
    path = Path(path)
    return parse_prices(read_text(path), ticker, context=str(path))


def write_prices(series: PriceSeries, path: Path) -> PriceSeries:
    """Persist a series in the same Yahoo-compatible schema (Adj Close = Close).

    Returns the series as ``load_prices`` reads the file back: each price
    rounded to the file's 6 decimal places. No field can need CSV quoting.
    """
    columns = [series.opens, series.highs, series.lows, series.closes]
    text = [[f"{value:.6f}" for value in column] for column in columns]
    read_back = [tuple(map(float, column)) for column in text]
    if read_back != columns:
        # Rounding moved a price: check each bar it moved as it will be read back.
        for day, volume, bar, rounded in zip(series.dates, series.volumes, zip(*columns), zip(*read_back)):
            if rounded != bar:
                _check_bar(path, day, *rounded, volume)
    rows = zip(series.dates, *text, series.volumes)
    body = "".join([f"{day},{o},{h},{lo},{c},{c},{vol}\n" for day, o, h, lo, c, vol in rows])
    atomic_write_text(path, ",".join(PRICE_HEADER) + "\n" + body)
    return PriceSeries(series.ticker, series.dates, *read_back, series.volumes)


def fetch_prices(ticker: str, transport: ReplayPriceTransport) -> PriceSeries:
    """Retrieve a ticker's price history through a transport; errors name its fixture file."""
    payload = transport.fetch(ticker)
    return parse_prices(payload, ticker, context=str(transport.path(ticker)))


def tail_n(series: PriceSeries, n: int, end: Optional[date] = None) -> PriceSeries:
    """Last n trading rows dated on or before `end` (all of them when fewer)."""
    if n < 1:
        raise ValueError(f"tail length must be >= 1, got {n}")
    stop = len(series) if end is None else bisect_right(series.dates, end)
    rows = slice(max(0, stop - n), stop)
    return PriceSeries(series.ticker, *(column[rows] for column in series[1:]))  # every column after the ticker


def percent_change_open(series: PriceSeries) -> float:
    """Percent change from the first bar's open to the last bar's open."""
    if len(series) < 2:
        raise InsufficientData(f"{series.ticker}: need >= 2 bars for a percent change")
    first, last = series.opens[0], series.opens[-1]
    return 100.0 * (last - first) / first


def daily_open_returns(series: PriceSeries) -> list[tuple[date, float]]:
    """Open-to-open percent return for each consecutive bar pair, dated at the later bar."""
    if len(series) < 2:
        raise InsufficientData(f"{series.ticker}: need >= 2 bars for daily returns")
    opens = series.opens
    return [(day, 100.0 * (cur - prev) / prev) for day, prev, cur in zip(series.dates[1:], opens, opens[1:])]
