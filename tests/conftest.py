"""Shared fixtures: paths, document factories, and a CLI runner."""

from __future__ import annotations

import sys
from datetime import date, datetime, timedelta, timezone
from pathlib import Path

import pytest

# This checkout's src goes last, so a tree named on PYTHONPATH is the one tested.
sys.path.append(str(Path(__file__).resolve().parent.parent / "src"))

from esgsent.corpus import Document, Source, TimeWindow
from esgsent.market import PriceSeries
from esgsent.sentiment import ScoredDocument, SentimentLabel, SentimentVerdict

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES_DIR = REPO_ROOT / "fixtures"
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

JULY_WINDOW = TimeWindow(date(2022, 7, 20), date(2022, 7, 29))
GOLDEN_TICKERS = "GS,AMZN,TSLA,HSBC"
# Strings that JSON must escape, or that are not ASCII.
AWKWARD_STRINGS = ['say "hi"', "back\\slash", "tab\there\nnew\x00\x1f\x7f", "café – 日本語 😀", "line\u2028para\u2029"]
# Python's limit on the digits of an int that str() and json.loads read, from 3.10.7 on; 0 is no limit.
INT_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
needs_int_digit_limit = pytest.mark.skipif(not INT_DIGIT_LIMIT, reason="this Python reads an int of any length")


@pytest.fixture
def fixtures_dir() -> Path:
    return FIXTURES_DIR


@pytest.fixture
def golden_dir() -> Path:
    return GOLDEN_DIR


@pytest.fixture
def july_window() -> TimeWindow:
    return JULY_WINDOW


def make_doc(
    doc_id: str = "t1",
    *,
    source: Source = Source.TWEET,
    ticker: str = "GS",
    text: str = "placeholder text",
    day: date = date(2022, 7, 20),
    hour: int = 12,
    **extra,
) -> Document:
    ts = datetime(day.year, day.month, day.day, hour, tzinfo=timezone.utc)
    return Document(id=doc_id, source=source, timestamp=ts, ticker=ticker, text=text, **extra)


def scored_of(doc: Document, verdict: SentimentVerdict) -> ScoredDocument:
    """The scored record score_corpus builds for a document and its verdict."""
    return ScoredDocument(doc.id, doc.source, doc.timestamp, doc.ticker, verdict)


def make_scored(doc: Document, label: SentimentLabel, score: float) -> ScoredDocument:
    return scored_of(doc, SentimentVerdict(label, score))


def make_series(opens: list[float], *, ticker: str = "GS", start: date = date(2022, 7, 1)) -> PriceSeries:
    """Bars on consecutive calendar days with wide high/low envelopes; each closes at its open."""
    opens = tuple(opens)
    return PriceSeries(
        ticker=ticker,
        dates=tuple(start + timedelta(days=i) for i in range(len(opens))),
        opens=opens,
        highs=tuple(open_ * 1.05 for open_ in opens),
        lows=tuple(open_ * 0.95 for open_ in opens),
        closes=opens,
        volumes=tuple(1_000_000 + i for i in range(len(opens))),
    )


def run_cli(argv: list[str]) -> int:
    from esgsent.cli import main

    return main(argv)


def run_golden_pipeline(out_dir: Path) -> int:
    """The canonical golden-fixture run used by golden and acceptance tests."""
    return run_cli(
        [
            "run",
            "--fixtures", str(FIXTURES_DIR),
            "--out", str(out_dir),
            "--window", "2022-07-20:2022-07-29",
            "--tickers", GOLDEN_TICKERS,
        ]
    )
