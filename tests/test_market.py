"""Price CSV loading, windowing, and opening-price change arithmetic."""

from __future__ import annotations

import csv
import io
import random
import re
from datetime import date, timedelta

import pytest

from esgsent.errors import InsufficientData, InvariantError, SchemaError, TransportError
from esgsent.market import (
    PRICE_HEADER,
    PriceSeries,
    daily_open_returns,
    fetch_prices,
    load_prices,
    parse_prices,
    percent_change_open,
    tail_n,
    write_prices,
)
from esgsent.transport import ReplayPriceTransport

from conftest import make_series

HEADER = "Date,Open,High,Low,Close,Adj Close,Volume"


def csv_text(rows):
    return HEADER + "\n" + "\n".join(rows) + "\n"


def row(day, open_, high, low, close, volume=1000):
    return f"{day},{open_},{high},{low},{close},{close},{volume}"


def rows_of(series):
    """The series as (date, open, high, low, close, volume) rows."""
    return list(zip(series.dates, series.opens, series.highs, series.lows, series.closes, series.volumes))


def series_of(rows, ticker="GS"):
    """A series from non-empty (date, open, high, low, close, volume) rows."""
    return PriceSeries(ticker, *zip(*rows))


def assert_invariant_error(text, message):
    with pytest.raises(InvariantError, match=f"^{re.escape(message)}$"):
        parse_prices(text, "GS", context="GS/prices.csv")


class TestBarChecks:
    def test_open_above_high_rejected(self):
        text = csv_text([row("2022-07-01", 105, 104, 99, 100)])
        assert_invariant_error(text, "GS/prices.csv: 2022-07-01: open 105.0 outside [low, high]")

    def test_close_below_low_rejected(self):
        text = csv_text([row("2022-07-01", 100, 104, 99, 98)])
        assert_invariant_error(text, "GS/prices.csv: 2022-07-01: close 98.0 outside [low, high]")

    def test_nonpositive_price_rejected(self):
        text = csv_text([row("2022-07-01", 0, 1, 0, 0.5)])
        assert_invariant_error(text, "GS/prices.csv: 2022-07-01: open price must be positive")

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    @pytest.mark.parametrize("column", ["open", "high", "low", "close"])
    def test_nonfinite_price_rejected(self, column, value):
        prices = {"open": 100, "high": 110, "low": 95, "close": 101, column: value}
        text = csv_text([row("2022-07-01", prices["open"], prices["high"], prices["low"], prices["close"])])
        message = f"GS/prices.csv: 2022-07-01: {column} price {value} is not finite"
        with pytest.raises(InvariantError, match=f"^{re.escape(message)}$"):
            parse_prices(text, "GS", context="GS/prices.csv")


class TestLoadPrices:
    def test_twenty_rows_load(self, tmp_path):
        rows = [row(f"2022-07-{d:02d}", 100 + d, 110 + d, 95 + d, 101 + d) for d in range(1, 21)]
        path = tmp_path / "prices.csv"
        path.write_text(csv_text(rows), encoding="utf-8")
        series = load_prices(path, "GS")
        assert len(series) == 20

    def test_out_of_order_rows_sorted(self):
        text = csv_text(
            [
                row("2022-07-05", 102, 110, 95, 103),
                row("2022-07-01", 100, 110, 95, 101),
                row("2022-07-03", 101, 110, 95, 102),
            ]
        )
        series = parse_prices(text, "GS")
        assert [day.day for day in series.dates] == [1, 3, 5]
        assert series.opens == (100.0, 101.0, 102.0)
        assert series.closes == (101.0, 102.0, 103.0)

    def test_open_above_high_is_invariant_error(self):
        text = csv_text([row("2022-07-01", 120, 110, 95, 100)])
        with pytest.raises(InvariantError):
            parse_prices(text, "GS")

    def test_malformed_row_is_schema_error(self):
        text = csv_text([row("2022-07-01", "abc", 110, 95, 100)])
        with pytest.raises(SchemaError):
            parse_prices(text, "GS")

    def test_wrong_header_is_schema_error(self):
        text = "Date,Open,High,Low,Close,Volume\n" + row("2022-07-01", 100, 110, 95, 100) + "\n"
        with pytest.raises(SchemaError):
            parse_prices(text, "GS")

    def test_duplicate_date_is_invariant_error(self, tmp_path):
        path = tmp_path / "prices.csv"
        path.write_text(
            csv_text([row("2022-07-01", 100, 110, 95, 101), row("2022-07-01", 102, 110, 95, 103)]),
            encoding="utf-8",
        )
        with pytest.raises(InvariantError, match=f"^{re.escape(f'{path}: duplicate price date 2022-07-01')}$"):
            load_prices(path, "GS")


class TestCsvDialect:
    ROWS = [row("2022-07-01", 100, 110, 95, 101), row("2022-07-05", 102, 110, 95, 103)]

    def test_padded_header_names_accepted(self):
        text = " Date, Open , High,Low,Close,Adj Close, Volume\n" + "\n".join(self.ROWS) + "\n"
        assert parse_prices(text, "GS") == parse_prices(csv_text(self.ROWS), "GS")

    def test_blank_lines_crlf_and_quoted_fields_accepted(self):
        quoted = ",".join(f'"{field}"' for field in self.ROWS[1].split(","))
        text = HEADER + "\r\n\r\n" + self.ROWS[0] + "\r\n\r\n" + quoted + "\r\n\r\n"
        assert parse_prices(text, "GS") == parse_prices(csv_text(self.ROWS), "GS")

    def test_extra_trailing_column_ignored(self):
        text = csv_text([r + ",x" for r in self.ROWS])
        assert parse_prices(text, "GS") == parse_prices(csv_text(self.ROWS), "GS")

    def test_short_row_is_one_schema_error_naming_file_and_row(self, tmp_path):
        path = tmp_path / "prices.csv"
        path.write_text(csv_text([self.ROWS[0], "2022-07-05,102,110,95,103,103"]), encoding="utf-8")
        row_repr = ["2022-07-05", "102", "110", "95", "103", "103"]
        with pytest.raises(SchemaError, match=f"^{re.escape(f'{path}: malformed price row {row_repr!r}: ')}"):
            load_prices(path, "GS")

    def test_header_only_is_empty_series(self):
        assert parse_prices(HEADER + "\n", "GS") == PriceSeries("GS", (), (), (), (), (), ())

    @pytest.mark.parametrize("line", [1, 3])
    def test_field_over_the_csv_limit_is_one_schema_error_naming_file_and_line(self, tmp_path, line):
        # csv.reader refuses a field longer than 131,072 characters with csv.Error.
        lines = [HEADER, *self.ROWS]
        lines[line - 1] = lines[line - 1].replace(",", "," + "1" * 200_000, 1)
        path = tmp_path / "prices.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        message = f"{path}:{line}: field larger than field limit (131072)"
        with pytest.raises(SchemaError, match=f"^{re.escape(message)}$"):
            load_prices(path, "GS")


def random_rows(rng, n):
    """n valid text rows on distinct dates in random order, each with 7 or 8 fields."""
    rows = []
    for k in rng.sample(range(3000), n):
        places = rng.choice([2, 6, 7])
        low, open_, close, high = sorted(round(rng.uniform(0.5, 5000.0), places) for _ in range(4))
        if rng.random() < 0.5:
            open_, close = close, open_
        prices = [f"{v:.{places}f}" for v in (open_, high, low, close, close)]
        volume = rng.choice([0, rng.randrange(10**6), rng.randrange(10**20)])
        extra = ["x"] if rng.random() < 0.2 else []
        rows.append([str(date(2000, 1, 1) + timedelta(days=k)), *prices, str(volume), *extra])
    return rows


def price_text(rng, rows):
    """rows as a price file with a plain or padded header, LF or CRLF ends and some blank lines."""
    end = rng.choice(["\n", "\r\n"])
    lines = [rng.choice([HEADER, " Date, Open , High,Low,Close,Adj Close, Volume"])]
    for fields in rows:
        lines.append(",".join(fields))
        if rng.random() < 0.1:
            lines.append("")
    return end.join(lines) + end


def reference_rows(text):
    """Per-row reference for a valid file: convert each row, then sort by date."""
    rows = [r for r in csv.reader(io.StringIO(text)) if r][1:]
    bars = [(date.fromisoformat(r[0]), float(r[1]), float(r[2]), float(r[3]), float(r[4]), int(r[6])) for r in rows]
    return sorted(bars, key=lambda bar: bar[0])


def conversion_error(convert, text):
    with pytest.raises(ValueError) as info:
        convert(text)
    return str(info.value)


PRICE_COLUMNS = {1: "open", 2: "high", 3: "low", 4: "close"}
SCHEMA_KINDS = ["bad date", "bad price", "bad volume", "short row"]
INVARIANT_KINDS = ["nan", "inf", "-inf", "zero price", "negative price", "open outside", "close outside",
                   "negative volume"]


def make_bad(rng, fields, kind):
    """Break one valid row; return it with the error type and message parse_prices must raise."""
    fields = list(fields)
    day = fields[0]
    column = rng.choice(list(PRICE_COLUMNS))
    if kind == "bad date":
        fields[0] = "2022-13-01"
        reason = conversion_error(date.fromisoformat, fields[0])
    elif kind == "bad price":
        fields[column] = rng.choice(["abc", "1.2.3", ""])
        reason = conversion_error(float, fields[column])
    elif kind == "bad volume":
        fields[6] = rng.choice(["1.5", "1e3", "x"])
        reason = conversion_error(int, fields[6])
    elif kind == "short row":
        fields = fields[:rng.randrange(1, 7)]
        reason = "list index out of range"
    else:
        if kind in ("nan", "inf", "-inf"):
            fields[column] = kind
            message = f"{day}: {PRICE_COLUMNS[column]} price {kind} is not finite"
        elif kind in ("zero price", "negative price"):
            fields[column] = "0" if kind == "zero price" else "-3.5"
            message = f"{day}: {PRICE_COLUMNS[column]} price must be positive"
        elif kind == "open outside":
            fields[1] = f"{float(fields[2]) * 2:.6f}"
            message = f"{day}: open {float(fields[1])} outside [low, high]"
        elif kind == "close outside":
            fields[4] = f"{float(fields[3]) / 2:.6f}"
            message = f"{day}: close {float(fields[4])} outside [low, high]"
        else:
            fields[6] = "-1"
            message = f"{day}: volume must be non-negative"
        return fields, InvariantError, f"GS/prices.csv: {message}"
    return fields, SchemaError, f"GS/prices.csv: malformed price row {fields!r}: {reason}"


class TestColumnarParse:
    def test_matches_per_row_reference(self):
        rng = random.Random(41)
        for _ in range(300):
            rows = random_rows(rng, rng.randrange(1, 40))
            if rng.random() < 0.5:
                rows.sort()  # already ascending: no sort
            text = price_text(rng, rows)
            assert rows_of(parse_prices(text, "GS")) == reference_rows(text)

    @pytest.mark.parametrize("kind", SCHEMA_KINDS + INVARIANT_KINDS)
    def test_one_bad_row_raises_its_per_row_error(self, kind):
        rng = random.Random(kind)
        for _ in range(20):
            rows = random_rows(rng, rng.randrange(1, 30))
            i = rng.randrange(len(rows))
            rows[i], error, message = make_bad(rng, rows[i], kind)
            with pytest.raises(error) as info:
                parse_prices(price_text(rng, rows), "GS", context="GS/prices.csv")
            assert type(info.value) is error and str(info.value) == message

    @pytest.mark.parametrize("first_kinds,second_kinds", [(INVARIANT_KINDS, SCHEMA_KINDS),
                                                          (SCHEMA_KINDS, INVARIANT_KINDS)],
                             ids=["invariant-then-schema", "schema-then-invariant"])
    def test_first_bad_row_in_file_order_wins(self, first_kinds, second_kinds):
        rng = random.Random(43)
        for _ in range(100):
            rows = random_rows(rng, rng.randrange(2, 30))
            i, j = sorted(rng.sample(range(len(rows)), 2))
            rows[i], error, message = make_bad(rng, rows[i], rng.choice(first_kinds))
            rows[j], *_ = make_bad(rng, rows[j], rng.choice(second_kinds))
            with pytest.raises(error) as info:
                parse_prices(price_text(rng, rows), "GS", context="GS/prices.csv")
            assert type(info.value) is error and str(info.value) == message


class TestTail:
    def test_25_bars_tail_20(self, fixtures_dir):
        series = load_prices(fixtures_dir / "TSLA" / "prices.csv", "TSLA")
        assert len(series) == 25
        tailed = tail_n(series, 20)
        assert len(tailed) == 20
        assert rows_of(tailed) == rows_of(series)[5:]
        assert tailed.dates[0] == date(2022, 7, 4)

    def test_short_series_clamps(self):
        series = make_series([100, 101, 102, 103, 104])
        assert tail_n(series, 20) == series

    def test_tail_one(self):
        series = make_series([100, 101, 102])
        assert rows_of(tail_n(series, 1)) == rows_of(series)[-1:]

    def test_tail_zero_rejected(self):
        with pytest.raises(ValueError):
            tail_n(make_series([100, 101]), 0)

    def test_idempotent(self):
        series = make_series([100 + i for i in range(30)])
        once = tail_n(series, 12)
        assert tail_n(once, 12) == once

    def test_end_drops_later_bars_before_tailing(self):
        series = make_series([100 + i for i in range(10)])  # 2022-07-01 .. 2022-07-10
        tailed = tail_n(series, 3, end=date(2022, 7, 6))
        assert [day.day for day in tailed.dates] == [4, 5, 6]


    @pytest.mark.parametrize("n", [1, 3, 10, 50])
    @pytest.mark.parametrize(
        "end",
        [None, date(2022, 6, 30), date(2022, 7, 1), date(2022, 7, 4), date(2022, 7, 19), date(2022, 8, 1)],
        ids=["none", "before", "first", "between", "last", "after"],
    )
    def test_end_and_n_match_filter_then_slice(self, end, n):
        # Ten bars on every other day, 2022-07-01 .. 2022-07-19.
        rows = [(date(2022, 7, 1 + 2 * i), 100.0 + i, 110.0 + i, 90.0 + i, 101.0 + i, i) for i in range(10)]
        expected = [r for r in rows if end is None or r[0] <= end][-n:]
        assert rows_of(tail_n(series_of(rows), n, end=end)) == expected


class TestPercentChange:
    def test_up_ten_percent(self):
        assert percent_change_open(make_series([100, 104, 110])) == pytest.approx(10.0)

    def test_down_twenty_percent(self):
        assert percent_change_open(make_series([50, 45, 40])) == pytest.approx(-20.0)

    def test_constant_opens(self):
        assert percent_change_open(make_series([80, 80, 80])) == 0.0

    def test_single_bar_insufficient(self):
        with pytest.raises(InsufficientData):
            percent_change_open(make_series([100]))

    def test_depends_only_on_endpoints(self):
        rng = random.Random(29)
        for _ in range(50):
            opens = [rng.uniform(10, 500) for _ in range(rng.randrange(3, 30))]
            full = make_series(opens)
            truncated = make_series([opens[0], opens[-1]])
            truncated_inner = percent_change_open(truncated)
            assert percent_change_open(full) == pytest.approx(truncated_inner, rel=1e-12)


class TestDailyReturns:
    def test_hand_arithmetic(self):
        returns = daily_open_returns(make_series([100, 110, 99]))
        assert [r for _, r in returns] == pytest.approx([10.0, -10.0], abs=1e-9)
        assert [d.day for d, _ in returns] == [2, 3]

    def test_constant_opens_all_zero(self):
        returns = daily_open_returns(make_series([75, 75, 75, 75]))
        assert [r for _, r in returns] == [0.0, 0.0, 0.0]

    def test_single_bar_insufficient(self):
        with pytest.raises(InsufficientData):
            daily_open_returns(make_series([100]))

    def test_returns_compound_to_total_change(self):
        rng = random.Random(31)
        for _ in range(100):
            opens = [rng.uniform(5, 900) for _ in range(rng.randrange(2, 40))]
            series = make_series(opens)
            compounded = 1.0
            for _, r in daily_open_returns(series):
                compounded *= 1.0 + r / 100.0
            assert compounded - 1.0 == pytest.approx(
                percent_change_open(series) / 100.0, rel=1e-9, abs=1e-12
            )


class TestFetchPrices:
    def test_replay_fixture(self, fixtures_dir):
        transport = ReplayPriceTransport(fixtures_dir)
        series = fetch_prices("TSLA", transport)
        assert len(series) == 25

    def test_missing_fixture_is_transport_error(self, tmp_path):
        transport = ReplayPriceTransport(tmp_path)
        with pytest.raises(TransportError):
            fetch_prices("TSLA", transport)

    def test_duplicate_date_fixture_is_invariant_error(self, tmp_path):
        ticker_dir = tmp_path / "TSLA"
        ticker_dir.mkdir()
        (ticker_dir / "prices.csv").write_text(
            csv_text([row("2022-07-01", 100, 110, 95, 101), row("2022-07-01", 100, 110, 95, 101)]),
            encoding="utf-8",
        )
        path = ticker_dir / "prices.csv"
        with pytest.raises(InvariantError, match=f"^{re.escape(f'{path}: duplicate price date 2022-07-01')}$"):
            fetch_prices("TSLA", ReplayPriceTransport(tmp_path))


def test_price_round_trip(fixtures_dir, tmp_path):
    for key in ("GS", "AMZN", "TSLA", "HSBC"):
        series = load_prices(fixtures_dir / key / "prices.csv", key)
        out = tmp_path / f"{key}.csv"
        written = write_prices(series, out)
        assert load_prices(out, key) == series == written


def test_write_prices_returns_the_series_as_read_back(tmp_path):
    out = tmp_path / "GS.csv"
    written = write_prices(make_series([100.1234567, 101.7654321]), out)
    assert written == load_prices(out, "GS")
    assert written.opens[0] == 100.123457


def csv_writer_text(series):
    """The file as csv.writer writes it: the reference for write_prices."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(PRICE_HEADER)
    for day, *prices, volume in rows_of(series):
        open_, high, low, close = (f"{v:.6f}" for v in prices)
        writer.writerow([day.isoformat(), open_, high, low, close, close, volume])
    return buf.getvalue()


def test_write_prices_matches_csv_writer(tmp_path):
    rng = random.Random(37)
    bars = []
    for i in range(500):
        places = rng.choice([2, 6, 7])  # 7 places round on write
        low, open_, close, high = sorted(round(rng.uniform(0.5, 5000.0), places) for _ in range(4))
        if rng.random() < 0.5:
            open_, close = close, open_
        volume = rng.choice([0, rng.randrange(10**6), rng.randrange(10**20)])
        bars.append((date(2000, 1, 1) + timedelta(days=i), open_, high, low, close, volume))
    series = series_of(bars)
    out = tmp_path / "GS.csv"
    written = write_prices(series, out)
    assert out.read_bytes() == csv_writer_text(series).encode("utf-8")
    assert written == load_prices(out, "GS")


def test_write_prices_revalidates_a_bar_that_rounding_changes(tmp_path):
    series = series_of([(date(2022, 7, 1), 1e-7, 1.0, 1e-7, 0.5, 10)])
    path = tmp_path / "GS.csv"
    with pytest.raises(InvariantError, match=f"^{re.escape(f'{path}: 2022-07-01: open price must be positive')}$"):
        write_prices(series, path)
