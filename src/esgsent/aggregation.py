"""Per-ticker aggregation of composite scores and ESG affinity classes.

Classification works on the mean composite so corpus size differences
between companies do not dominate; the sum is still reported alongside.
Zero-document tickers aggregate to zeros and classify Neutral so sparse
days survive the pipeline.
"""

from __future__ import annotations

import math
from enum import Enum
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple, Sequence

from .sentiment import ScoredDocument
from .util import Record, atomic_write_text, format_real

DEFAULT_AFFINE_MIN = 0.15
DEFAULT_AVERSE_MAX = -0.15


class AffinityClass(Enum):
    AVERSE = "Averse"
    NEUTRAL = "Neutral"
    AFFINE = "Affine"


class _ThresholdFields(NamedTuple):
    affine_min: float
    averse_max: float


class AffinityThresholds(Record, _ThresholdFields):
    """Mean-composite cutoffs; averse_max < 0 < affine_min."""

    __slots__ = ()

    def __new__(cls, affine_min: float = DEFAULT_AFFINE_MIN,
                averse_max: float = DEFAULT_AVERSE_MAX) -> "AffinityThresholds":
        if not averse_max < 0 < affine_min:
            raise ValueError(f"thresholds must satisfy averse_max < 0 < affine_min, got ({affine_min}, {averse_max})")
        return tuple.__new__(cls, (affine_min, averse_max))


def classify(mean_composite: float, thresholds: AffinityThresholds) -> AffinityClass:
    """Affine at or above affine_min, Averse at or below averse_max, Neutral between."""
    if mean_composite >= thresholds.affine_min:
        return AffinityClass.AFFINE
    if mean_composite <= thresholds.averse_max:
        return AffinityClass.AVERSE
    return AffinityClass.NEUTRAL


class TickerAggregate(NamedTuple):
    ticker: str
    n_docs: int
    sum_composite: float
    mean_composite: float
    classification: AffinityClass


def group_by_ticker(
    scored: Iterable[ScoredDocument], tickers: Iterable[str] = ()
) -> dict[str, list[ScoredDocument]]:
    """Each ticker's scored documents in input order, in one pass; every
    key of ``tickers`` gets a list, empty when it has no documents."""
    groups: dict[str, list[ScoredDocument]] = {key: [] for key in tickers}
    for sd in scored:
        groups.setdefault(sd.ticker, []).append(sd)
    return groups


def aggregate_by_ticker(
    groups: Mapping[str, Sequence[ScoredDocument]],
    thresholds: AffinityThresholds = AffinityThresholds(),
) -> list[TickerAggregate]:
    """One aggregate per ticker of ``groups`` (see group_by_ticker), sorted by ticker key.

    A ticker with no documents aggregates to (0, 0, 0, Neutral).
    """
    aggregates = []
    for key in sorted(groups):
        docs = groups[key]
        n = len(docs)
        total = math.fsum(sd.verdict.composite for sd in docs)
        mean = total / n if n else 0.0
        aggregates.append(
            TickerAggregate(
                ticker=key,
                n_docs=n,
                sum_composite=total,
                mean_composite=mean,
                classification=classify(mean, thresholds),
            )
        )
    return aggregates


def rank_affinity(aggregates: Iterable[TickerAggregate]) -> list[str]:
    """Ticker keys by mean composite, highest first; ties break alphabetically."""
    ordered = sorted(aggregates, key=lambda agg: (-agg.mean_composite, agg.ticker))
    return [agg.ticker for agg in ordered]


AGGREGATE_HEADER = ["ticker", "n_docs", "sum_composite", "mean_composite", "classification"]


def write_aggregates(aggregates: Iterable[TickerAggregate], path: Path) -> None:
    """One CSV row per aggregate; config-checked ticker keys need no CSV quoting."""
    lines = [",".join(AGGREGATE_HEADER) + "\n"]
    for agg in aggregates:
        lines.append(
            f"{agg.ticker},{agg.n_docs},{format_real(agg.sum_composite)},"
            f"{format_real(agg.mean_composite)},{agg.classification.value}\n"
        )
    atomic_write_text(path, "".join(lines))
