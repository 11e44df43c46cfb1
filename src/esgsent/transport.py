"""Replay transports: a ticker's recorded documents and price CSV.

``ReplayDocumentTransport`` and ``ReplayPriceTransport`` read recorded
fixtures from disk. They are the pipeline's only data sources, so the
pipeline and the test suite run offline.

Fixture layout, one directory per ticker key::

    fixtures/
      GS/
        tweets.jsonl    # recorded tweet payloads, corpus line schema
        news.jsonl      # recorded news payloads, corpus line schema
        prices.csv      # Yahoo-compatible daily OHLCV
"""

from __future__ import annotations

from pathlib import Path

from .errors import TransportError
from .util import json_lines, read_text

TWEET_FIXTURE = "tweets.jsonl"
NEWS_FIXTURE = "news.jsonl"
PRICE_FIXTURE = "prices.csv"


class ReplayDocumentTransport:
    """Reads recorded tweet and news payloads for a ticker, each with its file and line.

    The ticker's fixture directory must exist; a missing per-source file
    just means no records of that source were captured.
    """

    def __init__(self, fixtures_dir: Path) -> None:
        self.fixtures_dir = Path(fixtures_dir)

    def fetch(self, ticker: str) -> list[tuple[Path, int, object]]:
        ticker_dir = self.fixtures_dir / ticker
        if not ticker_dir.is_dir():
            raise TransportError(f"no document fixtures for {ticker} under {self.fixtures_dir}")
        payloads: list[tuple[Path, int, object]] = []
        for name in (TWEET_FIXTURE, NEWS_FIXTURE):
            fixture = ticker_dir / name
            if fixture.exists():
                payloads.extend((fixture, lineno, payload) for lineno, payload in json_lines(fixture))
        return payloads


class ReplayPriceTransport:
    """Reads a recorded Yahoo-compatible price CSV for a ticker."""

    def __init__(self, fixtures_dir: Path) -> None:
        self.fixtures_dir = Path(fixtures_dir)

    def path(self, ticker: str) -> Path:
        """Where the ticker's price fixture is."""
        return self.fixtures_dir / ticker / PRICE_FIXTURE

    def fetch(self, ticker: str) -> str:
        fixture = self.path(ticker)
        if not fixture.exists():
            raise TransportError(f"no price fixture for {ticker} under {self.fixtures_dir}")
        return read_text(fixture)
