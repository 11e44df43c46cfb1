"""Per-ticker aggregation of composite scores and ESG affinity classes.

Classification works on the mean composite so corpus size differences
between companies do not dominate; the sum is still reported alongside.
Zero-document tickers aggregate to zeros and classify Neutral so sparse
days survive the pipeline.
"""

from __future__ import annotations

import math
from datetime import date
from enum import Enum
from itertools import chain
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple, Sequence

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
    """Mean-composite cutoffs; -1 <= averse_max < 0 < affine_min <= 1, as a
    mean composite lies in [-1, 1]."""

    __slots__ = ()

    def __new__(cls, affine_min: float = DEFAULT_AFFINE_MIN,
                averse_max: float = DEFAULT_AVERSE_MAX) -> "AffinityThresholds":
        if not -1 <= averse_max < 0 < affine_min <= 1:
            raise ValueError(
                f"thresholds must satisfy -1 <= averse_max < 0 < affine_min <= 1, got ({affine_min}, {averse_max})")
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


def aggregate_by_ticker(
    table: Mapping[str, Mapping[date, Sequence[float]]],
    thresholds: AffinityThresholds = AffinityThresholds(),
) -> list[TickerAggregate]:
    """One aggregate per ticker of ``table`` (each ticker's composites by
    UTC day), sorted by ticker key.

    A ticker with no composites aggregates to (0, 0, 0, Neutral).
    """
    aggregates = []
    for key in sorted(table):
        days = table[key].values()
        n = sum(map(len, days))
        # Correctly rounded, so the sum does not depend on the order of the days.
        total = math.fsum(chain.from_iterable(days))
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
