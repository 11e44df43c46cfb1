"""Command-line pipeline: ``run`` (ingest -> score -> prices -> report) and ``report``.

``run`` loads the lexicon and the external verdicts, then takes one
configured ticker at a time: it fetches and dedupes the ticker's
documents, scores them, writes their lines and folds their composites
into the per-ticker, per-day table before it fetches the next ticker, so
it holds one ticker's documents at a time. Across tickers it holds only
the lexicon, the external verdicts and the table, which keeps each
ticker's composites of a day in one ``array('d')``. Each stage's result
goes to the next in memory and every value is computed once. Fetching
empties the transport's list of fixture lines, scoring the list of
documents, and the fold the list of scored records, so a line is freed
once its document exists, a document's text once its two lines are
written, and a scored record once its composite is kept. Every file
``run`` writes is written once. The two JSON-lines files hold one block
per ticker, in the configured order, each in (timestamp, id) order; they
are written through one ``atomic_open`` pair, so neither replaces an
older file unless both were written in full. A bad ``--lexicon`` or
``--external-verdicts``, or a missing price fixture, fails before any
file is written. ``corpus.jsonl`` is written for audit, one kept
``Document`` per line without the fixtures' metadata; no command reads it.

``report`` re-runs the last stage on the files ``run`` wrote under the
output directory: it streams ``scored.jsonl`` into the same table (a peak
RSS of about 20 MB on the 50,000-record ``bulk-tweets`` benchmark
workload), keeping the composites by UTC day of each configured ticker
inside the configured window, before any file is written. ``read_scored``
matches each line in the form ``run`` writes in one compiled pass, with
no JSON decode, and decodes any other line; both get the same checks.
Aggregation runs once on that table, and one per-ticker loop gets a
ticker's price series, analyzes and charts that ticker over its own days,
so at most one series is held at a time. Each
report file, and each price file ``run`` writes, that already holds
exactly its new bytes with the mode a new file gets is left in place
with its mtime, so ``make``-style tools see no change: under new
thresholds the charts and analyses stay. The two JSON-lines files are
always replaced. ``report`` trusts the scored file to be that of the
corpus. Both commands keep a ticker's document if and only if the
earliest copy of its (source, id) key under that ticker lies in the
window (the narrowing rule of ``corpus``), so ``report`` on a narrower
window or on fewer tickers keeps what a fresh ``run`` on them keeps. Of
each price file ``report`` keeps the last
``price_days`` bars up to the window's end, as ``run`` does: it can
narrow the stored history but not widen it.
Documents and prices come from recorded fixtures through the replay
transports; no live transport ships.

Settings come from the flags and the ``--config`` file (see ``config``).
``report`` neither scores nor reads fixtures: it has no ``--lexicon``,
``--external-verdicts``, ``--fixtures`` or ``--strict``.

Exit codes: 0 success; 2 config error (a bad flag or config file value),
schema or invariant error (bad input data), or io error (an input file
that cannot be read or decoded); 3 transport error; 4 insufficient data
(fatal contexts only). Failures print a single
``error[<category>]: <message>`` line on stderr; every other diagnostic is
a ``note[<category>]: <message>`` line there.
"""

from __future__ import annotations

import argparse
import sys
from array import array
from datetime import date
from typing import Callable, Iterable, Optional

from . import __version__
from .aggregation import TickerAggregate, aggregate_by_ticker, rank_affinity, write_aggregates
from .analysis import AnalysisResult, analyze, write_analysis
from .charts import render_candlestick_svg
from .config import RunConfig, resolve_config
from .corpus import Document, dedupe, fetch_documents
from .errors import InsufficientData, PipelineError, SchemaError
from .market import PriceSeries, fetch_prices, load_prices, tail_n, write_prices
from .sentiment import (
    ScoredDocument,
    default_lexicon,
    import_external_verdicts,
    load_lexicon,
    read_scored,
    score_corpus,
)
from .transport import ReplayDocumentTransport, ReplayPriceTransport
from .util import atomic_open, atomic_write_text, drain, format_real, note

SUMMARY_HEADER = ["ticker", "n_docs", "mean_composite", "classification", "percent_change", "sign_agreement"]

SeriesSource = Callable[[str], PriceSeries]
# ticker -> UTC day -> the composites of the ticker's documents of that day.
Table = dict[str, dict[date, array]]


def _load_series(config: RunConfig, ticker: str) -> PriceSeries:
    path = config.prices_path(ticker)
    if not path.exists():
        raise InsufficientData(f"{ticker}: no price data at {path} (run 'run' first)")
    return tail_n(load_prices(path, ticker), config.price_days, end=config.window.end)


def cmd_ingest(config: RunConfig, ticker: str, transport: ReplayDocumentTransport) -> list[Document]:
    """Fetch and dedupe one ticker's documents; return them in (timestamp, id) order.

    ``fetch_documents`` already keeps only the ticker's documents that the
    narrowing rule of ``corpus`` keeps, and ``dedupe`` drops their
    duplicates. No other ticker's documents are read, so the result does
    not depend on which other tickers run.
    """
    docs = dedupe(fetch_documents(ticker, config.window, transport, strict=config.strict))
    print(f"{ticker}: {len(docs)} documents")
    return docs


def _fetch_series(config: RunConfig, transport: ReplayPriceTransport, ticker: str) -> PriceSeries:
    """Fetch a ticker's bars, keep the last price_days dated on or before the
    window's end, write them, and return them as written."""
    series = fetch_prices(ticker, transport)
    path = config.prices_path(ticker)
    series = write_prices(tail_n(series, config.price_days, end=config.window.end), path)
    print(f"{ticker}: {len(series)} trading days -> {path}")
    return series


def _summary_csv(ranked: list[TickerAggregate], results: dict[str, AnalysisResult]) -> str:
    lines = [",".join(SUMMARY_HEADER)]
    for agg in ranked:
        result = results.get(agg.ticker)
        change = "" if result is None else format_real(result.percent_change)
        agreement = "" if result is None else result.sign_agreement.value
        lines.append(
            f"{agg.ticker},{agg.n_docs},{format_real(agg.mean_composite)},"
            f"{agg.classification.value},{change},{agreement}"
        )
    return "\n".join(lines) + "\n"


def _fold(config: RunConfig, table: Table, scored: Iterable[ScoredDocument]) -> None:
    """Add each record's composite to its ticker's array for its UTC day,
    for the tickers in the table and the days in the window.

    An ``array('d')`` holds a composite in 8 bytes, where a list holds a
    pointer to a float object of its own.
    """
    start, end = config.window
    for sd in scored:
        days = table.get(sd.ticker)
        day = sd.timestamp.date()
        if days is not None and start <= day <= end:
            composites = days.get(day)
            if composites is None:
                composites = days[day] = array("d")
            composites.append(sd.verdict.composite)


def _report(config: RunConfig, table: Table, series_of: SeriesSource) -> None:
    """Aggregate and classify each configured ticker's composites by UTC
    day; then, one ticker at a time, get its series, analyze its days only,
    and write its analysis and chart; then write the summary.

    A ticker whose series is too short gets a note, and no analysis or
    chart: those an earlier run left are removed. When no ticker has enough
    data the run fails with InsufficientData before it writes or removes
    any report file, so the aggregates are written after the loop.
    """
    aggregates = aggregate_by_ticker(table, config.thresholds)
    for agg in aggregates:
        print(
            f"{agg.ticker}: n={agg.n_docs} sum={format_real(agg.sum_composite)} "
            f"mean={format_real(agg.mean_composite)} {agg.classification.value}"
        )
    ranking = rank_affinity(aggregates)
    print("affinity ranking: " + " > ".join(ranking))

    aggregate_of = {agg.ticker: agg for agg in aggregates}
    results: dict[str, AnalysisResult] = {}
    short: list[str] = []
    for ticker in config.tickers:
        try:
            series = series_of(ticker)
            result = analyze(table[ticker], series, aggregate_of[ticker])
        except InsufficientData as exc:
            note("insufficient-data", str(exc))
            short.append(ticker)
            continue
        write_analysis(result, config.analysis_path(ticker))
        atomic_write_text(config.chart_path(ticker), render_candlestick_svg(series))
        results[ticker] = result
        r_text = "absent" if result.pearson_r is None else f"{result.pearson_r:+.4f}"
        print(
            f"{ticker}: change={result.percent_change:+.2f}% "
            f"mean={result.mean_composite:+.4f} r={r_text} "
            f"{result.sign_agreement.value} ({result.n_aligned_days} aligned days)"
        )
    if not results:
        raise InsufficientData("no ticker had enough data to analyze")

    write_aggregates(aggregates, config.aggregates_path)
    print(f"aggregates -> {config.aggregates_path}")
    for ticker in short:
        config.analysis_path(ticker).unlink(missing_ok=True)
        config.chart_path(ticker).unlink(missing_ok=True)
    atomic_write_text(config.summary_path, _summary_csv([aggregate_of[t] for t in ranking], results))
    print(f"summary -> {config.summary_path}")
    print(f"charts  -> {config.out / 'charts'}")


def cmd_report(config: RunConfig) -> None:
    """Write aggregates, per-ticker analysis JSONs and candlestick SVGs, and the summary CSV."""
    if not config.scored_path.exists():
        raise SchemaError(f"scored file not found: {config.scored_path} (run 'run' first)")
    table: Table = {ticker: {} for ticker in config.tickers}
    _fold(config, table, read_scored(config.scored_path))
    _report(config, table, lambda t: _load_series(config, t))


def cmd_run(config: RunConfig) -> None:
    """Run the whole pipeline end to end, one ticker at a time, passing each stage's result in memory."""
    lexicon = load_lexicon(config.lexicon) if config.lexicon else default_lexicon()
    external = (
        import_external_verdicts(config.external_verdicts) if config.external_verdicts else None
    )
    prices = ReplayPriceTransport(config.fixtures)
    for ticker in config.tickers:
        prices.path(ticker)  # a missing price fixture fails before any file is written
    transport = ReplayDocumentTransport(config.fixtures)
    table: Table = {ticker: {} for ticker in config.tickers}
    n_scored = n_external = 0
    with atomic_open(config.corpus_path, config.scored_path) as (corpus, scored_file):
        for ticker in config.tickers:
            # A scored record keeps only the id, source, timestamp and ticker of its
            # document; draining frees the rest of each document once its two lines
            # are written, and each record once its composite is in the table.
            scored = score_corpus(drain(cmd_ingest(config, ticker, transport)), lexicon, external,
                                  corpus, scored_file)
            n_scored += len(scored)
            if external:
                n_external += sum(sd.key in external for sd in scored)
            _fold(config, table, drain(scored))
    if not n_scored:
        note("insufficient-data", "corpus is empty for this window")
    print(f"corpus -> {config.corpus_path}")
    print(f"scored {n_scored} documents ({n_external} external) -> {config.scored_path}")
    _report(config, table, lambda t: _fetch_series(config, prices, t))


def build_parser() -> argparse.ArgumentParser:
    defaults = RunConfig._field_defaults
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="JSON run configuration")
    common.add_argument("--tickers", metavar="K1,K2", help="comma-separated ticker keys")
    common.add_argument("--window", metavar="START:END", help="document window (UTC dates)")
    common.add_argument("--price-days", dest="price_days", metavar="N",
                        help=f"trading days of price history to keep (default {defaults['price_days']})")
    thresholds = defaults["thresholds"]
    common.add_argument("--thresholds", metavar="AFFINE,AVERSE",
                        help=f"affinity cutoffs (default {thresholds.affine_min},{thresholds.averse_max})")
    common.add_argument("--out", metavar="DIR", help="output directory")
    # report reads the stored scores and prices, so the flags that choose how to ingest and score
    # are usage errors there; a config file may still set their keys.
    run_only = argparse.ArgumentParser(add_help=False)
    run_only.add_argument("--fixtures", metavar="DIR", help="recorded fixture directory")
    run_only.add_argument("--strict", action="store_true", default=None, help="reject unknown schema fields")
    run_only.add_argument("--lexicon", metavar="DIR", help="directory with replacement lexicon files")
    run_only.add_argument("--external-verdicts", dest="external_verdicts", metavar="PATH",
                          help="CSV of externally produced sentiment verdicts")

    parser = argparse.ArgumentParser(
        prog="esgsent",
        description="ESG sentiment vs. stock performance pipeline",
        allow_abbrev=False,
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, parents, help_text in (
        ("report", cmd_report, [common], "write aggregates, analysis JSONs, candlestick SVGs and summary CSV"),
        ("run", cmd_run, [common, run_only], "run every stage in order: ingest, score, prices, report"),
    ):
        stage = sub.add_parser(name, parents=parents, help=help_text, allow_abbrev=False)
        stage.set_defaults(func=func)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(resolve_config(args))
    except PipelineError as exc:
        print(f"error[{exc.category}]: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error[io]: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
