"""Per-ticker aggregation of composite scores and ESG affinity classes.

Classification works on the mean composite so corpus size differences
between companies do not dominate; the sum is still reported alongside.
Zero-document tickers aggregate to zeros and classify Neutral so sparse
days survive the pipeline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable, Optional, Sequence

from .sentiment import ScoredDocument
from .util import atomic_write_text, format_real

DEFAULT_AFFINE_MIN = 0.15
DEFAULT_AVERSE_MAX = -0.15


class AffinityClass(Enum):
    AVERSE = "Averse"
    NEUTRAL = "Neutral"
    AFFINE = "Affine"


@dataclass(frozen=True)
class AffinityThresholds:
    """Mean-composite cutoffs; averse_max < 0 < affine_min."""

    affine_min: float = DEFAULT_AFFINE_MIN
    averse_max: float = DEFAULT_AVERSE_MAX

    def __post_init__(self) -> None:
        if not self.averse_max < 0 < self.affine_min:
            raise ValueError(
                f"thresholds must satisfy averse_max < 0 < affine_min, "
                f"got ({self.affine_min}, {self.averse_max})"
            )


def classify(mean_composite: float, thresholds: AffinityThresholds) -> AffinityClass:
    """Affine above affine_min, Averse below averse_max, Neutral between."""
    if mean_composite >= thresholds.affine_min:
        return AffinityClass.AFFINE
    if mean_composite <= thresholds.averse_max:
        return AffinityClass.AVERSE
    return AffinityClass.NEUTRAL


@dataclass(frozen=True)
class TickerAggregate:
    ticker: str
    n_docs: int
    sum_composite: float
    mean_composite: float
    classification: AffinityClass


def aggregate_by_ticker(
    scored: Iterable[ScoredDocument],
    tickers: Optional[Sequence[str]] = None,
    thresholds: AffinityThresholds = AffinityThresholds(),
) -> list[TickerAggregate]:
    """One aggregate per ticker, sorted by ticker key.

    Configured tickers with no documents aggregate to (0, 0, 0, Neutral).
    """
    groups: dict[str, list[ScoredDocument]] = {key: [] for key in (tickers or [])}
    for sd in scored:
        groups.setdefault(sd.document.ticker, []).append(sd)

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
