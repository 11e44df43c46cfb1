"""Traced ``esgsent run``: per-layer spans and counts from outside the program.

Run as ``python bench/traced.py --config CFG --spans OUT.json`` with
``src`` on ``PYTHONPATH``. It wraps the public functions the CLI calls by
patching names in the module namespaces that look them up, then runs
``esgsent run``. Each wrapped call records an in-memory span (name,
start, end, parent); the spans and counters are written to OUT.json when
the run ends. ``layer_metrics`` turns that file into per-layer metrics.

A name the program no longer has is skipped and listed as ``unpatched``,
so the run still completes and the affected metrics read 0.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

# (module, attribute, span name). Stage functions are looked up in cli's
# globals by cmd_run, helpers by the stage functions, parse_prices by
# market's own loaders, and atomic_write_text by each module that imports
# it (corpus.write_corpus imports it from util when called).
PATCHES = [
    ("cli", "cmd_run", "cli.run"),
    ("cli", "cmd_ingest", "cli.ingest"),
    ("cli", "cmd_score", "cli.score"),
    ("cli", "cmd_aggregate", "cli.aggregate"),
    ("cli", "cmd_prices", "cli.prices"),
    ("cli", "cmd_analyze", "cli.analyze"),
    ("cli", "cmd_report", "cli.report"),
    ("cli", "fetch_documents", "corpus.fetch_documents"),
    ("cli", "dedupe", "corpus.dedupe"),
    ("cli", "filter_window", "corpus.filter_window"),
    ("cli", "read_corpus", "corpus.read_corpus"),
    ("cli", "write_corpus", "corpus.write_corpus"),
    ("transport", "ReplayDocumentTransport.fetch", "transport.fetch_docs"),
    ("transport", "ReplayPriceTransport.fetch", "transport.fetch_prices"),
    ("cli", "default_lexicon", "sentiment.lexicon_load"),
    ("cli", "import_external_verdicts", "sentiment.import_external"),
    ("cli", "score_corpus", "sentiment.score_corpus"),
    ("cli", "read_scored", "sentiment.read_scored"),
    ("cli", "write_scored", "sentiment.write_scored"),
    ("cli", "aggregate_by_ticker", "aggregation.aggregate"),
    ("cli", "write_aggregates", "aggregation.write"),
    ("market", "parse_prices", "market.parse_prices"),
    ("cli", "load_prices", "market.load_prices"),
    ("cli", "write_prices", "market.write_prices"),
    ("cli", "analyze", "analysis.analyze"),
    ("cli", "render_candlestick_svg", "charts.render"),
] + [
    (module, "atomic_write_text", "util.atomic_write")
    for module in ("cli", "sentiment", "aggregation", "market", "analysis", "util")
]


def _count(counters: Counter, span: str, args: tuple, result: object) -> None:
    """Work counts at the boundaries where the work happens."""
    if span == "transport.fetch_docs":
        counters["payloads"] += len(result)
    elif span == "corpus.fetch_documents":
        counters["docs_fetched"] += len(result)
    elif span == "corpus.dedupe":
        counters["dup_dropped"] += len(args[0]) - len(result)
    elif span == "corpus.filter_window":
        counters["window_dropped"] += len(args[0]) - len(result)
        counters["docs_kept"] += len(result)
    elif span == "sentiment.score_corpus":
        external = args[2] if len(args) > 2 and args[2] else {}
        counters["docs_scored"] += len(result)
        counters["neutral"] += sum(1 for sd in result if sd.verdict.label.value == "neutral")
        counters["external"] += sum(1 for sd in result if sd.key in external)
    elif span == "analysis.analyze":
        counters["docs_scanned"] += len(args[0])
    elif span == "charts.render":
        counters["svg_bytes"] += len(result.encode("utf-8"))
    elif span == "util.atomic_write":
        counters["bytes_written"] += len(args[1].encode("utf-8"))


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int | None]] = []
        self.stack: list[int] = []
        self.counters: Counter = Counter()

    def wrap(self, span: str, fn):
        def traced(*args, **kwargs):
            parent = self.stack[-1] if self.stack else None
            index = len(self.spans)
            self.spans.append((span, 0.0, 0.0, parent))
            self.stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self.stack.pop()
                self.spans[index] = (span, start, end, parent)
            _count(self.counters, span, args, result)
            return result

        return traced

    def patch(self, modules: dict) -> list[str]:
        """Apply PATCHES; return the targets that were not found."""
        missing = []
        for module_name, attr, span in PATCHES:
            owner = modules[module_name]
            *path, name = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            if owner is None or not hasattr(owner, name):
                missing.append(f"{module_name}.{attr}")
                continue
            setattr(owner, name, self.wrap(span, getattr(owner, name)))
        return missing


def layer_metrics(trace: dict) -> dict[str, float]:
    """Per-layer metrics from one traced run's spans and counters."""
    total: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    for span, start, end, _ in trace["spans"]:
        total[span] += end - start
        calls[span] += 1
    c = Counter(trace["counters"])
    metrics = {
        f"cli.{stage}_s": total[f"cli.{stage}"]
        for stage in ("ingest", "score", "aggregate", "prices", "analyze", "report")
    }
    for span in ("corpus.read_corpus", "corpus.write_corpus", "transport.fetch_docs",
                 "transport.fetch_prices", "sentiment.lexicon_load", "sentiment.score_corpus",
                 "sentiment.import_external", "sentiment.read_scored", "sentiment.write_scored",
                 "aggregation.aggregate", "aggregation.write", "market.load_prices",
                 "market.write_prices", "analysis.analyze", "charts.render", "util.atomic_write"):
        metrics[f"{span}_s"] = total[span]
    for span in ("corpus.read_corpus", "sentiment.read_scored", "aggregation.aggregate",
                 "market.parse_prices", "analysis.analyze", "charts.render", "util.atomic_write"):
        metrics[f"{span}_calls"] = calls[span]
    metrics.update({
        "corpus.docs_fetched": c["docs_fetched"],
        "corpus.docs_kept": c["docs_kept"],
        "corpus.dup_dropped": c["dup_dropped"],
        "corpus.out_of_window_dropped": c["payloads"] - c["docs_fetched"] + c["window_dropped"],
        "corpus.kept_frac": c["docs_kept"] / c["payloads"] if c["payloads"] else 0.0,
        "transport.payloads": c["payloads"],
        "sentiment.neutral_frac": c["neutral"] / c["docs_scored"] if c["docs_scored"] else 0.0,
        "sentiment.external_frac": c["external"] / c["docs_scored"] if c["docs_scored"] else 0.0,
        "analysis.docs_scanned": c["docs_scanned"],
        "charts.svg_bytes": c["svg_bytes"],
        "util.bytes_written": c["bytes_written"],
    })
    return metrics


def span_table(trace: dict) -> list[tuple[str, int, float, float]]:
    """(span, calls, total seconds, self seconds) per span name.

    Self time is a span's duration minus the durations of its child spans.
    """
    spans = trace["spans"]
    child_time: dict[int, float] = defaultdict(float)
    for span, start, end, parent in spans:
        if parent is not None:
            child_time[parent] += end - start
    rows: dict[str, list] = {}
    for index, (span, start, end, _) in enumerate(spans):
        row = rows.setdefault(span, [span, 0, 0.0, 0.0])
        row[1] += 1
        row[2] += end - start
        row[3] += end - start - child_time[index]
    return [tuple(row) for row in rows.values()]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True)
    parser.add_argument("--spans", required=True, help="where to write spans and counters (JSON)")
    args = parser.parse_args()

    from esgsent import aggregation, analysis, cli, corpus, market, sentiment, transport, util

    modules = {m.__name__.rsplit(".", 1)[-1]: m
               for m in (aggregation, analysis, cli, corpus, market, sentiment, transport, util)}
    tracer = Tracer()
    missing = tracer.patch(modules)
    code = cli.main(["run", "--config", args.config])
    with open(args.spans, "w", encoding="utf-8") as handle:
        json.dump({"spans": tracer.spans, "counters": tracer.counters, "unpatched": missing}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
