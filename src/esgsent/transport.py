"""Replay transports: a ticker's recorded documents and price CSV.

``ReplayDocumentTransport`` and ``ReplayPriceTransport`` read recorded
fixtures from disk. They are the pipeline's only data sources, so the
pipeline and the test suite run offline. The document transport hands
over each record as its line of text; ``corpus`` decodes a line only
when it builds that record's document.

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
from .util import open_text, read_text

TWEET_FIXTURE = "tweets.jsonl"
NEWS_FIXTURE = "news.jsonl"
PRICE_FIXTURE = "prices.csv"


class ReplayDocumentTransport:
    """Reads the lines of a ticker's recorded tweet and news payloads, each with its file and line number.

    The ticker's fixture directory must exist; a missing per-source file
    just means no records of that source were captured.
    """

    def __init__(self, fixtures_dir: Path) -> None:
        self.fixtures_dir = Path(fixtures_dir)

    def fetch(self, ticker: str) -> list[tuple[Path, int, str]]:
        """(file, line number, line text) of each non-blank line, tweets first, in file order."""
        ticker_dir = self.fixtures_dir / ticker
        if not ticker_dir.is_dir():
            raise TransportError(f"no document fixtures for {ticker} under {self.fixtures_dir}")
        lines: list[tuple[Path, int, str]] = []
        for name in (TWEET_FIXTURE, NEWS_FIXTURE):
            fixture = ticker_dir / name
            if fixture.exists():
                with open_text(fixture) as handle:
                    lines.extend((fixture, lineno, line) for lineno, line in enumerate(handle, start=1)
                                 if not line.isspace())
        return lines


class ReplayPriceTransport:
    """Reads a recorded Yahoo-compatible price CSV for a ticker."""

    def __init__(self, fixtures_dir: Path) -> None:
        self.fixtures_dir = Path(fixtures_dir)

    def path(self, ticker: str) -> Path:
        """Where the ticker's price fixture is; a missing one is a TransportError."""
        fixture = self.fixtures_dir / ticker / PRICE_FIXTURE
        if not fixture.exists():
            raise TransportError(f"no price fixture for {ticker} under {self.fixtures_dir}")
        return fixture

    def fetch(self, ticker: str) -> str:
        return read_text(self.path(ticker))
