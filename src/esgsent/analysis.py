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
from datetime import date
from enum import Enum
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

from .aggregation import TickerAggregate
from .market import PriceSeries, daily_open_returns, percent_change_open
from .util import atomic_write_text

MIN_ALIGNED_DAYS = 3


class SignAgreement(Enum):
    CONCORDANT = "Concordant"
    DISCORDANT = "Discordant"
    INDETERMINATE = "Indeterminate"


def daily_index(days: Mapping[date, Sequence[float]]) -> list[tuple[date, float]]:
    """(UTC date, mean of that day's composites), date-ordered; ``days``
    holds only days with documents."""
    return [(day, math.fsum(values) / len(values)) for day, values in sorted(days.items())]


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
    Rounding can put an exactly linear pair a last bit past 1 in magnitude,
    so r is clamped to [-1, 1].
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
    r = math.fsum(a * b for a, b in zip(dx, dy)) / math.sqrt(ss_x * ss_y)
    return min(max(r, -1.0), 1.0)


def sign_agreement(mean_composite: float, percent_change: float) -> SignAgreement:
    """Strict sign comparison; zero on either side is Indeterminate."""
    if mean_composite == 0.0 or percent_change == 0.0:
        return SignAgreement.INDETERMINATE
    if (mean_composite > 0) == (percent_change > 0):
        return SignAgreement.CONCORDANT
    return SignAgreement.DISCORDANT


class AnalysisResult(NamedTuple):
    ticker: str
    percent_change: float
    mean_composite: float
    pearson_r: Optional[float]
    n_aligned_days: int
    sign_agreement: SignAgreement

    def to_json(self) -> str:
        """The result as a JSON object of two-space indent, plus a newline."""
        values = self._replace(sign_agreement=self.sign_agreement.value)
        return json.dumps(values._asdict(), ensure_ascii=False, indent=2) + "\n"


def analyze(
    days: Mapping[date, Sequence[float]], series: PriceSeries, aggregate: TickerAggregate
) -> AnalysisResult:
    """Compose one ticker's result from its composites by UTC day, its
    price series and its aggregate, which supplies the mean composite.

    Raises InsufficientData only when the price series cannot yield a
    percent change (< 2 bars); too few aligned days or a constant series
    surface as an absent pearson_r, never as a failure.
    """
    mean_composite = aggregate.mean_composite
    change = percent_change_open(series)
    aligned = align(daily_index(days), daily_open_returns(series))
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
