"""Document and price transports.

A transport delivers a ticker's raw documents or price CSV for a time
window. The ``DocumentTransport`` and ``PriceTransport`` protocols are
the contract; the replay transports, which read recorded fixtures from
disk, are the only implementations shipped, so the pipeline and the test
suite run offline. A live source plugs in by implementing a protocol.

Fixture layout, one directory per ticker key::

    fixtures/
      GS/
        tweets.jsonl    # recorded tweet payloads, corpus line schema
        news.jsonl      # recorded news payloads, corpus line schema
        prices.csv      # Yahoo-compatible daily OHLCV
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Protocol

from .corpus import Ticker, TimeWindow
from .errors import SchemaError, TransportError

TWEET_FIXTURE = "tweets.jsonl"
NEWS_FIXTURE = "news.jsonl"
PRICE_FIXTURE = "prices.csv"


class DocumentTransport(Protocol):
    """Yields raw document payloads (decoded JSON objects) for a ticker."""

    def fetch(self, ticker: Ticker, window: TimeWindow) -> Iterable[dict]: ...


class PriceTransport(Protocol):
    """Returns a Yahoo-compatible CSV payload of daily bars for a ticker."""

    def fetch(self, ticker: Ticker, window: TimeWindow) -> str: ...


class ReplayDocumentTransport:
    """Reads recorded tweet and news payloads for a ticker.

    The ticker's fixture directory must exist; a missing per-source file
    just means no records of that source were captured.
    """

    def __init__(self, fixtures_dir: Path) -> None:
        self.fixtures_dir = Path(fixtures_dir)

    def fetch(self, ticker: Ticker, window: TimeWindow) -> list[dict]:
        ticker_dir = self.fixtures_dir / ticker.key
        if not ticker_dir.is_dir():
            raise TransportError(f"no document fixtures for {ticker.key} under {self.fixtures_dir}")
        payloads: list[dict] = []
        for name in (TWEET_FIXTURE, NEWS_FIXTURE):
            fixture = ticker_dir / name
            if not fixture.exists():
                continue
            with open(fixture, encoding="utf-8") as handle:
                for lineno, line in enumerate(handle, start=1):
                    if not line.strip():
                        continue
                    try:
                        payloads.append(json.loads(line))
                    except json.JSONDecodeError as exc:
                        raise SchemaError(f"{fixture}:{lineno}: malformed JSON: {exc}") from exc
        return payloads


class ReplayPriceTransport:
    """Reads a recorded Yahoo-compatible price CSV for a ticker."""

    def __init__(self, fixtures_dir: Path) -> None:
        self.fixtures_dir = Path(fixtures_dir)

    def fetch(self, ticker: Ticker, window: TimeWindow) -> str:
        fixture = self.fixtures_dir / ticker.key / PRICE_FIXTURE
        if not fixture.exists():
            raise TransportError(f"no price fixture for {ticker.key} under {self.fixtures_dir}")
        return fixture.read_text(encoding="utf-8")
