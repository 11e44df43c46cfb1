"""Output checks: the golden fixture run, and a synthetic run against what was planted."""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

from generate import Expected
from reference import composite

AFFINE_MIN, AVERSE_MAX = 0.15, -0.15  # the CLI's default thresholds; generated configs keep them
MAX_REPORTED = 5


def digest_tree(directory: Path) -> dict[str, str]:
    """sha256 of every file under `directory`, keyed by relative path."""
    return {
        str(path.relative_to(directory)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(directory.rglob("*"))
        if path.is_file()
    }


def check_golden(out_dir: Path, golden_dir: Path) -> list[str]:
    """Each file under `golden_dir` must exist in `out_dir` with the same bytes."""
    goldens = [path for path in sorted(golden_dir.rglob("*")) if path.is_file()]
    if not goldens:
        return [f"golden: no reference files under {golden_dir}"]
    errors = []
    for golden in goldens:
        rel = golden.relative_to(golden_dir)
        produced = out_dir / rel
        if not produced.is_file():
            errors.append(f"golden: {rel} not produced")
        elif produced.read_bytes() != golden.read_bytes():
            errors.append(f"golden: {rel} differs")
    return errors


def _classify(mean: float) -> str:
    if mean >= AFFINE_MIN:
        return "Affine"
    if mean <= AVERSE_MAX:
        return "Averse"
    return "Neutral"


def _csv_rows(path: Path) -> dict[str, dict[str, str]]:
    with open(path, encoding="utf-8", newline="") as handle:
        return {row["ticker"]: row for row in csv.DictReader(handle)}


def check_expected(out_dir: Path, expected: Expected) -> list[str]:
    """Compare a synthetic run's outputs with the generator's record."""
    errors: list[str] = []

    def fail(message: str) -> None:
        if len(errors) < MAX_REPORTED:
            errors.append(message)

    corpus_keys = []
    for line in (out_dir / "corpus.jsonl").read_text(encoding="utf-8").splitlines():
        obj = json.loads(line)
        corpus_keys.append((obj["source"], obj["id"]))
    if len(corpus_keys) != len(set(corpus_keys)):
        fail("corpus: duplicate keys")
    if set(corpus_keys) != set(expected.verdicts):
        extra = len(set(corpus_keys) - set(expected.verdicts))
        missing = len(set(expected.verdicts) - set(corpus_keys))
        fail(f"corpus: {extra} unexpected and {missing} missing keys")

    n_scored = 0
    for line in (out_dir / "scored.jsonl").read_text(encoding="utf-8").splitlines():
        obj = json.loads(line)
        n_scored += 1
        want = expected.verdicts.get((obj["source"], obj["id"]))
        got = (obj["label"], obj["score"])
        if want is None or got != want or obj["composite"] != composite(*want):
            fail(f"scored: {obj['source']}:{obj['id']} is {got}, expected {want}")
    if n_scored != len(expected.verdicts):
        fail(f"scored: {n_scored} lines, expected {len(expected.verdicts)}")

    aggregates = _csv_rows(out_dir / "aggregates.csv")
    summary = _csv_rows(out_dir / "summary.csv")
    if set(aggregates) != set(expected.tickers) or set(summary) != set(expected.tickers):
        fail("aggregates/summary: ticker set differs")
    order = sorted(expected.tickers, key=lambda k: (-expected.tickers[k].mean_composite, k))
    if list(summary) != order:
        fail("summary: rows not ordered by mean composite")

    for key, want in expected.tickers.items():
        agg = aggregates.get(key, {})
        row = summary.get(key, {})
        cls = _classify(want.mean_composite)
        if (agg.get("n_docs"), agg.get("sum_composite"), agg.get("mean_composite"), agg.get("classification")) != (
            str(want.n_docs), f"{want.sum_composite:.6f}", f"{want.mean_composite:.6f}", cls
        ):
            fail(f"aggregates: {key} row {agg}")
        if (row.get("n_docs"), row.get("classification"), row.get("percent_change")) != (
            str(want.n_docs), cls, f"{want.percent_change:.6f}"
        ):
            fail(f"summary: {key} row {row}")
        analysis = json.loads((out_dir / "analysis" / f"{key}.json").read_text(encoding="utf-8"))
        if (analysis["mean_composite"], analysis["percent_change"]) != (
            want.mean_composite, want.percent_change
        ):
            fail(f"analysis: {key} mean/change {analysis['mean_composite']}/{analysis['percent_change']}")
        price_lines = (out_dir / "prices" / f"{key}.csv").read_text(encoding="utf-8").splitlines()
        if len(price_lines) - 1 != want.price_rows:
            fail(f"prices: {key} has {len(price_lines) - 1} rows, expected {want.price_rows}")
        svg = (out_dir / "charts" / f"{key}.svg").read_text(encoding="utf-8")
        if svg.count('<g class="day ') != want.price_rows:
            fail(f"charts: {key} does not draw {want.price_rows} days")
    return errors
