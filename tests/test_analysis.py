"""Pearson, the sentiment/return join, and candlestick SVG rendering."""

from __future__ import annotations

import json
import random
import re
from datetime import date, timedelta

import pytest

from esgsent.aggregation import AffinityClass, TickerAggregate
from esgsent.analysis import AnalysisResult, SignAgreement, align, analyze, daily_index, pearson, sign_agreement
from esgsent.charts import LAYOUTS_KEPT, MIN_BODY_PX, _day_template, render_candlestick_svg
from esgsent.market import PriceSeries

from chart_reference import reference_render_candlestick_svg
from conftest import make_series


def test_pearson_matches_hand_computed_value():
    # dx = dy = (-1.5, -0.5, 0.5, 1.5) up to order: sum(dx*dy) = 4, ss_x = ss_y = 5.
    assert pearson([1, 2, 3, 4], [1, 3, 2, 4]) == 0.8


@pytest.mark.parametrize(
    "x,y",
    [
        ([1, 2], [1, 3]),
        ([2, 2, 2], [1, 3, 2]),
        ([1, 3, 2], [5, 5, 5]),
    ],
    ids=["two-points", "constant-x", "constant-y"],
)
def test_pearson_is_absent_for_too_few_points_or_a_constant_series(x, y):
    assert pearson(x, y) is None


@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["positive", "negative"])
def test_pearson_of_an_exactly_linear_pair_stays_inside_one(sign):
    # Unclamped, rounding gives 1.0000000000000002 in magnitude for this pair.
    x = [0.2, 0.3, 0.5]
    y = [sign * v * 0.1 for v in x]
    assert pearson(x, y) == sign


def test_pearson_rejects_unequal_lengths():
    with pytest.raises(ValueError):
        pearson([1, 2, 3], [1, 2])


def test_analyze_with_no_aligned_day_has_no_pearson():
    # Bars dated 2022-07-01..03; the only document is dated 2022-07-20.
    aggregate = TickerAggregate("GS", 1, 0.5, 0.5, AffinityClass.AFFINE)
    result = analyze({date(2022, 7, 20): [0.5]}, make_series([100.0, 101.0, 102.0]), aggregate)
    assert result.pearson_r is None
    assert result.n_aligned_days == 0


def test_analyze_correlates_each_day_mean_with_that_day_return():
    # Opens 100, 110, 99, 108.9 give returns +10%, -10%, +10% on 07-02..04.
    days = {date(2022, 7, 4): [0.5], date(2022, 7, 2): [0.25, 0.75], date(2022, 7, 3): [-1.0, 0.0, 0.25]}
    aggregate = TickerAggregate("GS", 6, 0.75, 0.125, AffinityClass.NEUTRAL)
    result = analyze(days, make_series([100.0, 110.0, 99.0, 108.9]), aggregate)
    assert daily_index(days) == [(date(2022, 7, 2), 0.5), (date(2022, 7, 3), -0.25), (date(2022, 7, 4), 0.5)]
    assert result.n_aligned_days == 3
    assert result.pearson_r == pytest.approx(1.0)
    assert result.mean_composite == 0.125


@pytest.mark.parametrize("mean,change", [(0.5, 0.0), (-0.5, 0.0), (0.0, 1.25), (0.0, -1.25), (0.0, 0.0)],
                         ids=["positive-mean", "negative-mean", "rising", "falling", "both-zero"])
def test_a_zero_mean_or_change_is_indeterminate(mean, change):
    assert sign_agreement(mean, change) is SignAgreement.INDETERMINATE


@pytest.mark.parametrize("mean,change,expected", [
    (0.5, 1.25, SignAgreement.CONCORDANT), (-0.5, -1.25, SignAgreement.CONCORDANT),
    (0.5, -1.25, SignAgreement.DISCORDANT), (-0.5, 1.25, SignAgreement.DISCORDANT),
])
def test_sign_agreement_compares_strict_signs(mean, change, expected):
    assert sign_agreement(mean, change) is expected


@pytest.mark.parametrize(
    "result",
    [
        AnalysisResult("GS", 1.25, 0.5, None, 2, SignAgreement.CONCORDANT),
        AnalysisResult("AMZN", 0.0, -0.25, 0.5, 4, SignAgreement.INDETERMINATE),
        AnalysisResult("TSLA", -3.5, 0.75, -0.953, 6, SignAgreement.DISCORDANT),
    ],
    ids=["absent-r", "zero-change", "negative-r"],
)
def test_analysis_json_is_what_json_dumps_writes(result):
    fields = result._replace(sign_agreement=result.sign_agreement.value)._asdict()
    assert result.to_json() == json.dumps(fields, ensure_ascii=False, indent=2) + "\n"


def test_align_drops_weekend_sentiment_days():
    friday, saturday, sunday, monday = (date(2022, 7, d) for d in (22, 23, 24, 25))
    sentiment = [(monday, 0.4), (sunday, 0.3), (saturday, 0.2), (friday, 0.1)]
    returns = [(friday, 1.0), (monday, 2.0)]
    assert align(sentiment, returns) == [(friday, 0.1, 1.0), (monday, 0.4, 2.0)]


def bodies(svg: str) -> list[float]:
    return [float(h) for h in re.findall(r'<rect x="[^"]+" y="[^"]+" width="[^"]+" height="([^"]+)"/>', svg)]


def random_series(rng: random.Random, n: int, kind: str) -> PriceSeries:
    """n bars of a random walk from a price between 0.01 and 1e6: "walk" has
    some dojis, "doji" opens and closes each day at one price, "flat" has
    every price equal (hi == lo)."""
    price = 10 ** rng.uniform(-2, 6)
    opens, highs, lows, closes = [], [], [], []
    for _ in range(n):
        open_ = price
        close = open_ if kind in ("flat", "doji") or rng.random() < 0.1 else open_ * rng.uniform(0.95, 1.05)
        spread = 0.0 if kind == "flat" else rng.uniform(0.0, 0.03)
        opens.append(open_)
        closes.append(close)
        highs.append(max(open_, close) * (1 + spread))
        lows.append(min(open_, close) * (1 - spread))
        price = close
    dates = tuple(date(2021, 1, 1) + timedelta(days=i) for i in range(n))
    return PriceSeries("GS", dates, tuple(opens), tuple(highs), tuple(lows), tuple(closes), (1,) * n)


def test_render_matches_the_per_day_reference_byte_for_byte():
    rng = random.Random(30)
    # Lengths that hit the per-length layout cache and miss it, then more distinct ones than it keeps.
    lengths = [20, 250, 20, 7, 250, 1, 2, 3, 40, 250, 1]
    lengths += rng.sample(range(4, 401), 2 * LAYOUTS_KEPT) + [20, 7]
    _day_template.cache_clear()
    for n in lengths:
        for kind in ("walk", "doji", "flat"):
            series = random_series(rng, n, kind)
            assert render_candlestick_svg(series) == reference_render_candlestick_svg(series), (n, kind)
    cache = _day_template.cache_info()
    assert cache.hits and cache.misses > LAYOUTS_KEPT


def test_doji_body_is_drawn_at_least_min_body_px():
    # A doji on 07-01, then a wide up day.
    series = PriceSeries(
        "GS", (date(2022, 7, 1), date(2022, 7, 2)), opens=(100.0, 96.0), highs=(105.0, 105.0),
        lows=(95.0, 95.0), closes=(100.0, 104.0), volumes=(1, 1),
    )
    heights = bodies(render_candlestick_svg(series))
    assert heights[0] == MIN_BODY_PX
    assert heights[1] > MIN_BODY_PX


def test_flat_series_with_hi_equal_lo_renders():
    flat = PriceSeries("GS", (date(2022, 7, 1), date(2022, 7, 2)), *[(100.0, 100.0)] * 4, volumes=(1, 1))
    svg = render_candlestick_svg(flat)
    assert bodies(svg) == [MIN_BODY_PX, MIN_BODY_PX]
    # The price axis widens to 100 +/- 1, then pads 4% of that range each side.
    assert ">98.92</text>" in svg and ">101.08</text>" in svg
    assert "nan" not in svg and "inf" not in svg
