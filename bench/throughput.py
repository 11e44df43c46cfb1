"""Per-document throughput of single layers, on one workload's own data.

Run as ``python bench/throughput.py --workdir DIR`` with ``src`` on
``PYTHONPATH``, after ``esgsent run`` has filled ``DIR/out``. Each layer
gets a warm-up call, then PASSES timed passes over the same items; the
fastest pass gives the rate, as for the end-to-end timings. Prints one
JSON object of rates.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from time import perf_counter

PASSES = 5
MAX_DOCS = 10_000  # per pass, so one workload's pass stays well under a second
MAX_SERIES = 20
WARMUP_ITEMS = 200


def rate(work, items: list, units: int) -> float:
    """Units per second of `work(items)`, fastest of PASSES passes after a warm-up."""
    work(items[:WARMUP_ITEMS])
    times = []
    for _ in range(PASSES):
        start = perf_counter()
        work(items)
        times.append(perf_counter() - start)
    return units / min(times)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workdir", required=True, type=Path)
    args = parser.parse_args()

    from esgsent.charts import render_candlestick_svg
    from esgsent.corpus import TimeWindow, dedupe, filter_window, parse_document_line, parse_document_payload, serialize_document
    from esgsent.market import parse_prices, tail_n
    from esgsent.sentiment import default_lexicon, score_tokens, scoring_text, tokenize

    config = json.loads((args.workdir / "run_config.json").read_text(encoding="utf-8"))
    window = TimeWindow.parse(config["window"])
    fixtures = args.workdir / "fixtures"

    lines = (args.workdir / "out" / "corpus.jsonl").read_text(encoding="utf-8").splitlines()[:MAX_DOCS]
    docs = [parse_document_line(line) for line in lines]
    raw_lines = []
    for ticker in config["tickers"]:
        for name in ("tweets.jsonl", "news.jsonl"):
            raw_lines += (fixtures / ticker / name).read_text(encoding="utf-8").splitlines()
    raw_docs = [parse_document_payload(json.loads(line)) for line in raw_lines[:MAX_DOCS]]
    texts = [scoring_text(doc) for doc in docs]
    token_lists = [tokenize(text) for text in texts]
    lexicon = default_lexicon()
    prices = [(t, (fixtures / t / "prices.csv").read_text(encoding="utf-8")) for t in config["tickers"][:MAX_SERIES]]
    series = [tail_n(parse_prices(text, t), config["price_days"]) for t, text in prices]

    metrics = {
        "corpus.parse_docs_per_s": rate(
            lambda xs: [parse_document_line(x) for x in xs], lines, len(lines)),
        "corpus.serialize_docs_per_s": rate(
            lambda xs: [serialize_document(x) for x in xs], docs, len(docs)),
        "corpus.dedupe_window_docs_per_s": rate(
            lambda xs: filter_window(dedupe(xs), window), raw_docs, len(raw_docs)),
        "sentiment.tokenize_docs_per_s": rate(
            lambda xs: [tokenize(x) for x in xs], texts, len(texts)),
        "sentiment.score_tokens_docs_per_s": rate(
            lambda xs: [score_tokens(x, lexicon) for x in xs], token_lists, len(token_lists)),
        "market.parse_bars_per_s": rate(
            lambda xs: [parse_prices(text, t) for t, text in xs], prices,
            sum(text.count("\n") - 1 for _, text in prices)),
        "charts.render_bars_per_s": rate(
            lambda xs: [render_candlestick_svg(s) for s in xs], series, sum(len(s) for s in series)),
    }
    print(json.dumps(metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
