"""Relating daily sentiment polarity to daily price moves.

Builds a per-trading-day polarity index (mean composite of the day's
documents), joins it with open-to-open returns on identical UTC dates
(weekend document days simply drop out of the join), and computes a
population-form Pearson correlation when at least three aligned,
non-constant days exist. Below that the statistic is reported absent
rather than fabricated.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from datetime import date
from enum import Enum
from pathlib import Path
from typing import Iterable, Optional, Sequence

from .aggregation import TickerAggregate
from .market import PriceSeries, daily_open_returns, percent_change_open
from .sentiment import ScoredDocument
from .util import atomic_write_text

MIN_ALIGNED_DAYS = 3


class SignAgreement(Enum):
    CONCORDANT = "Concordant"
    DISCORDANT = "Discordant"
    INDETERMINATE = "Indeterminate"


def daily_index(scored: Iterable[ScoredDocument]) -> list[tuple[date, float]]:
    """(UTC date, mean composite of that day's documents), date-ordered;
    days without documents are omitted."""
    by_day: dict[date, list[float]] = {}
    for sd in scored:
        day = sd.document.timestamp.date()
        by_day.setdefault(day, []).append(sd.verdict.composite)
    return [(day, math.fsum(values) / len(values)) for day, values in sorted(by_day.items())]


def align(
    left: Iterable[tuple[date, float]],
    right: Iterable[tuple[date, float]],
) -> list[tuple[date, float, float]]:
    """Inner join of two (date, value) series, ordered by date."""
    right_by_date = dict(right)
    return [
        (day, value, right_by_date[day])
        for day, value in sorted(left)
        if day in right_by_date
    ]


def pearson(x: Sequence[float], y: Sequence[float]) -> Optional[float]:
    """Population-form Pearson correlation: cov(x, y) / (sigma_x * sigma_y).

    None with fewer than MIN_ALIGNED_DAYS points or a constant series.
    """
    if len(x) != len(y):
        raise ValueError(f"series lengths differ: {len(x)} vs {len(y)}")
    n = len(x)
    if n < MIN_ALIGNED_DAYS:
        return None
    mean_x = math.fsum(x) / n
    mean_y = math.fsum(y) / n
    dx = [v - mean_x for v in x]
    dy = [v - mean_y for v in y]
    ss_x = math.fsum(d * d for d in dx)
    ss_y = math.fsum(d * d for d in dy)
    if ss_x == 0.0 or ss_y == 0.0:
        return None
    return math.fsum(a * b for a, b in zip(dx, dy)) / math.sqrt(ss_x * ss_y)


def sign_agreement(mean_composite: float, percent_change: float) -> SignAgreement:
    """Strict sign comparison; zero on either side is Indeterminate."""
    if mean_composite == 0.0 or percent_change == 0.0:
        return SignAgreement.INDETERMINATE
    if (mean_composite > 0) == (percent_change > 0):
        return SignAgreement.CONCORDANT
    return SignAgreement.DISCORDANT


@dataclass(frozen=True)
class AnalysisResult:
    ticker: str
    percent_change: float
    mean_composite: float
    pearson_r: Optional[float]
    n_aligned_days: int
    sign_agreement: SignAgreement

    def to_json(self) -> str:
        obj = {
            "ticker": self.ticker,
            "percent_change": self.percent_change,
            "mean_composite": self.mean_composite,
            "pearson_r": self.pearson_r,
            "n_aligned_days": self.n_aligned_days,
            "sign_agreement": self.sign_agreement.value,
        }
        return json.dumps(obj, ensure_ascii=False, indent=2) + "\n"


def analyze(
    scored: Iterable[ScoredDocument], series: PriceSeries, aggregate: TickerAggregate
) -> AnalysisResult:
    """Compose one ticker's result from its scored documents, its price
    series and its aggregate, which supplies the mean composite.

    Raises InsufficientData only when the price series cannot yield a
    percent change (< 2 bars); too few aligned days or a constant series
    surface as an absent pearson_r, never as a failure.
    """
    mean_composite = aggregate.mean_composite
    change = percent_change_open(series)
    aligned = align(daily_index(scored), daily_open_returns(series))
    return AnalysisResult(
        ticker=aggregate.ticker,
        percent_change=change,
        mean_composite=mean_composite,
        pearson_r=pearson([s for _, s, _ in aligned], [r for _, _, r in aligned]),
        n_aligned_days=len(aligned),
        sign_agreement=sign_agreement(mean_composite, change),
    )


def write_analysis(result: AnalysisResult, path: Path) -> None:
    atomic_write_text(path, result.to_json())
