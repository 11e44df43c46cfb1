"""Seeded workload generator.

Writes a workload in the replay-fixture layout the CLI reads
(``fixtures/<TICKER>/tweets.jsonl``, ``news.jsonl``, ``prices.csv``),
a run config and, for ``replay-external``, a verdict CSV. It returns an
``Expected`` record of what it planted, which ``check.py`` compares the
program's outputs against. The same (workload, seed) pair always gives
the same bytes.

Text uses only ASCII tokens from the shipped lexicon, its negators and
filler words that are in neither, so nothing is downloaded. Price bars
end on the window's last day.
"""

from __future__ import annotations

import json
import math
import random
import string
from dataclasses import dataclass, field
from datetime import date, timedelta
from pathlib import Path

from reference import WordLists, composite, reference_verdict

FILLER = (
    "the a of to and in on for with at by from about company report quarter today market "
    "shares update investors board plan policy energy climate carbon emissions water supply "
    "chain workers office data program annual meeting statement week year esg investing fund "
    "bank bonds capital project sector firm group team new says said after before over under "
    "this that its their will may could as into more than some we our they retail factory "
    "fleet battery stock region customers analysts ceo staff city site line product service"
).split()


@dataclass(frozen=True)
class Workload:
    name: str
    tickers: tuple[str, ...]
    raw_docs: int  # raw records over all tickers, duplicates included
    tweet_frac: float
    tweet_tokens: tuple[int, int]
    headline_tokens: tuple[int, int]
    dup_frac: float  # share of raw records that repeat an earlier (source, id) key
    out_frac: float  # share of raw records dated outside the window
    bars: int
    price_days: int
    window: tuple[date, date]
    external: bool = False


PAPER_TICKERS = ("GS", "AMZN", "TSLA", "HSBC")
PAPER_WINDOW = (date(2022, 7, 20), date(2022, 7, 29))

WORKLOADS = {
    w.name: w
    for w in (
        Workload("bulk-tweets", PAPER_TICKERS, 50_000, 0.8, (18, 30), (8, 14),
                 dup_frac=0.05, out_frac=0.10, bars=40, price_days=20, window=PAPER_WINDOW),
        Workload("wide-panel", tuple(f"W{i:03d}" for i in range(100)), 4_000, 0.5, (8, 14), (6, 10),
                 dup_frac=0.0, out_frac=0.0, bars=1_000, price_days=250,
                 window=(date(2022, 7, 1), date(2022, 7, 29))),
        Workload("replay-external", PAPER_TICKERS, 50_000, 0.8, (18, 30), (8, 14),
                 dup_frac=0.40, out_frac=0.40, bars=40, price_days=20, window=PAPER_WINDOW,
                 external=True),
    )
}

POSITIVE_RATE = 0.12
NEGATIVE_RATE = 0.10
NEGATOR_RATE = 0.03


@dataclass
class TickerExpected:
    n_docs: int
    sum_composite: float
    mean_composite: float
    percent_change: float
    price_rows: int


@dataclass
class Expected:
    """What the generator planted, for checking the program's outputs."""

    verdicts: dict[tuple[str, str], tuple[str, float]] = field(default_factory=dict)
    tickers: dict[str, TickerExpected] = field(default_factory=dict)
    raw_records: int = 0


class _Writer:
    def __init__(self, rng: random.Random, words: WordLists) -> None:
        self.rng = rng
        self.positive = sorted(words.positive)
        self.negative = sorted(words.negative)
        self.negators = sorted(w for w in words.negators if w.isascii())
        lexical = words.positive | words.negative | words.negators
        self.filler = [w for w in FILLER if w not in lexical]

    def tokens(self, bounds: tuple[int, int]) -> list[str]:
        rng = self.rng
        out = []
        for _ in range(rng.randint(*bounds)):
            r = rng.random()
            if r < POSITIVE_RATE:
                out.append(rng.choice(self.positive))
            elif r < POSITIVE_RATE + NEGATIVE_RATE:
                out.append(rng.choice(self.negative))
            elif r < POSITIVE_RATE + NEGATIVE_RATE + NEGATOR_RATE:
                out.append(rng.choice(self.negators))
            else:
                out.append(rng.choice(self.filler))
        return out

    def sentence(self, tokens: list[str]) -> str:
        rng = self.rng
        words = []
        for token in tokens:
            r = rng.random()
            if r < 0.08:
                token = "#" + token
            elif r < 0.13:
                token += ","
            words.append(token)
        words[0] = words[0].capitalize()
        return " ".join(words) + rng.choice(".!")

    def tweet_text(self, tokens: list[str]) -> str:
        rng = self.rng
        words = self.sentence(tokens).split(" ")
        for _ in range(rng.randint(0, 2)):
            words.insert(rng.randint(0, len(words)), f"@user_{rng.randint(1, 99999)}")
        if rng.random() < 0.7:
            slug = "".join(rng.choices(string.ascii_letters + string.digits, k=10))
            words.append(f"https://t.co/{slug}")
        return " ".join(words)

    def timestamp(self, window: tuple[date, date], inside: bool) -> str:
        rng = self.rng
        start, end = window
        if inside:
            day = start + timedelta(days=rng.randint(0, (end - start).days))
        elif rng.random() < 0.5:
            day = start - timedelta(days=rng.randint(1, 15))
        else:
            day = end + timedelta(days=rng.randint(1, 15))
        sec = rng.randrange(86_400)
        return f"{day.isoformat()}T{sec // 3600:02d}:{sec // 60 % 60:02d}:{sec % 60:02d}Z"


def _bars(rng: random.Random, n: int, last_day: date) -> tuple[str, list[float]]:
    """Yahoo-style CSV of n weekday bars ending on last_day, plus the opens."""
    days = []
    day = last_day
    while len(days) < n:
        if day.weekday() < 5:
            days.append(day)
        day -= timedelta(days=1)
    days.reverse()
    price = rng.uniform(20.0, 500.0)
    lines = ["Date,Open,High,Low,Close,Adj Close,Volume"]
    opens = []
    for day in days:
        o = round(max(1.0, price * (1 + rng.gauss(0, 0.005))), 2)
        c = round(max(1.0, o * (1 + rng.gauss(0, 0.015))), 2)
        h = round(max(o, c) + 0.01 + abs(rng.gauss(0, 0.01)) * o, 2)
        lo = round(max(0.5, min(o, c) - 0.01 - abs(rng.gauss(0, 0.01)) * o), 2)
        lines.append(f"{day},{o:.2f},{h:.2f},{lo:.2f},{c:.2f},{c:.2f},{rng.randint(100_000, 50_000_000)}")
        opens.append(o)
        price = c
    return "\n".join(lines) + "\n", opens


def generate(name: str, seed: int, directory: Path, words: WordLists) -> Expected:
    """Write workload `name` for `seed` under `directory`; return what was planted."""
    wl = WORKLOADS[name]
    rng = random.Random(f"{name}:{seed}")
    writer = _Writer(rng, words)
    per_ticker = wl.raw_docs // len(wl.tickers)
    expected = Expected(raw_records=per_ticker * len(wl.tickers))
    external_rows = []
    fixtures = directory / "fixtures"

    for ticker in wl.tickers:
        n_dup = round(per_ticker * wl.dup_frac)
        n_out = round(per_ticker * wl.out_frac)
        n_in = per_ticker - n_dup - n_out
        records = {"tweet": [], "news": []}
        kept_payloads = []
        composites = []
        for k in range(n_in + n_out):
            inside = k < n_in
            source = "tweet" if rng.random() < wl.tweet_frac else "news"
            prefix = "tw" if source == "tweet" else "nw"
            doc_id = f"{prefix}-{ticker.lower()}-{k:06d}"
            payload = {"id": doc_id, "source": source,
                       "timestamp": writer.timestamp(wl.window, inside), "ticker": ticker}
            if source == "tweet":
                tokens = writer.tokens(wl.tweet_tokens)
                payload["text"] = writer.tweet_text(tokens)
                payload["author"] = f"user_{rng.randint(1, 99999)}"
                payload["followers"] = rng.randint(0, 2_000_000)
            else:
                tokens = writer.tokens(wl.headline_tokens)
                title = writer.sentence(tokens)
                body = writer.sentence(writer.tokens((8, 16)))
                payload["text"] = f"{title} {body}"
                payload["url"] = f"https://news.example.com/{ticker.lower()}/{doc_id}"
                payload["title"] = title

            if wl.external:
                label = rng.choices(("positive", "neutral", "negative"), (0.45, 0.2, 0.35))[0]
                score_text = f"{rng.random():.4f}"
                external_rows.append(f"{doc_id},{source},{label},{score_text}")
                verdict = (label, float(score_text))
            else:
                verdict = reference_verdict(tokens, words)
            if inside:
                expected.verdicts[(source, doc_id)] = verdict
                composites.append(composite(*verdict))
                kept_payloads.append(payload)
            records[source].append(payload)
        for payload in rng.choices(kept_payloads, k=n_dup):
            records[payload["source"]].append(payload)

        ticker_dir = fixtures / ticker
        ticker_dir.mkdir(parents=True)
        for source, file_name in (("tweet", "tweets.jsonl"), ("news", "news.jsonl")):
            rng.shuffle(records[source])
            lines = "".join(json.dumps(p) + "\n" for p in records[source])
            (ticker_dir / file_name).write_text(lines, encoding="utf-8")
        prices_csv, opens = _bars(rng, wl.bars, wl.window[1])
        (ticker_dir / "prices.csv").write_text(prices_csv, encoding="utf-8")

        kept_opens = opens[-wl.price_days:]
        total = math.fsum(composites)
        expected.tickers[ticker] = TickerExpected(
            n_docs=len(composites),
            sum_composite=total,
            mean_composite=total / len(composites) if composites else 0.0,
            percent_change=100.0 * (kept_opens[-1] - kept_opens[0]) / kept_opens[0],
            price_rows=len(kept_opens),
        )

    config = {
        "tickers": list(wl.tickers),
        "window": f"{wl.window[0]}:{wl.window[1]}",
        "price_days": wl.price_days,
        "fixtures": "fixtures",
        "out": "out",
    }
    if wl.external:
        rng.shuffle(external_rows)
        body = "id,source,label,score\n" + "".join(row + "\n" for row in external_rows)
        (directory / "verdicts.csv").write_text(body, encoding="utf-8")
        config["external_verdicts"] = "verdicts.csv"
    (directory / "run_config.json").write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")
    return expected
