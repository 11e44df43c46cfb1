"""Per-ticker aggregation, affinity classification and ranking."""

from __future__ import annotations

import math
import random
from datetime import date

import pytest

from esgsent.aggregation import (
    AffinityClass,
    AffinityThresholds,
    aggregate_by_ticker,
    classify,
    group_by_ticker,
    rank_affinity,
)
from esgsent.sentiment import SentimentLabel

from conftest import make_doc, make_scored

LABEL_FOR_SIGN = {1: SentimentLabel.POSITIVE, 0: SentimentLabel.NEUTRAL, -1: SentimentLabel.NEGATIVE}


def scored_from_composites(composites, ticker="GS", start_id=0):
    out = []
    for i, value in enumerate(composites):
        sign = (value > 0) - (value < 0)
        doc = make_doc(f"{ticker.lower()}-{start_id + i}", ticker=ticker, day=date(2022, 7, 20), hour=i % 24)
        out.append(make_scored(doc, LABEL_FOR_SIGN[sign], abs(value)))
    return out


def aggregate(scored, tickers=()):
    return aggregate_by_ticker(group_by_ticker(scored, tickers))


class TestAggregate:
    def test_hand_arithmetic(self):
        scored = scored_from_composites([0.9, -0.4, 0.5])
        (agg,) = aggregate(scored)
        assert agg.n_docs == 3
        assert agg.sum_composite == pytest.approx(1.0, abs=1e-15)
        assert agg.mean_composite == pytest.approx(1.0 / 3, abs=1e-15)

    def test_group_by_ticker_keeps_input_order_and_every_configured_ticker(self):
        scored = scored_from_composites([0.5, -0.5], ticker="TSLA") + scored_from_composites([0.1], ticker="GS")
        groups = group_by_ticker(scored, ["AMZN", "GS"])
        assert list(groups) == ["AMZN", "GS", "TSLA"]
        assert groups == {"AMZN": [], "GS": scored[2:], "TSLA": scored[:2]}

    def test_empty_input_with_configured_tickers(self):
        aggs = aggregate([], tickers=["AMZN", "GS"])
        assert [a.ticker for a in aggs] == ["AMZN", "GS"]
        for agg in aggs:
            assert (agg.n_docs, agg.sum_composite, agg.mean_composite) == (0, 0.0, 0.0)
            assert agg.classification is AffinityClass.NEUTRAL

    def test_singleton(self):
        (agg,) = aggregate(scored_from_composites([-0.8]))
        assert agg.sum_composite == -0.8
        assert agg.mean_composite == -0.8
        assert agg.classification is AffinityClass.AVERSE

    def test_output_sorted_by_ticker(self):
        scored = scored_from_composites([0.5], ticker="TSLA") + scored_from_composites([0.5], ticker="AMZN")
        aggs = aggregate(scored)
        assert [a.ticker for a in aggs] == ["AMZN", "TSLA"]

    def test_order_invariance(self):
        rng = random.Random(5)
        scored = scored_from_composites([0.9, -0.4, 0.5, 0.25, -1.0, 0.75], ticker="GS")
        scored += scored_from_composites([0.1, -0.3, 1.0], ticker="HSBC", start_id=50)
        baseline = aggregate(scored)
        for _ in range(20):
            shuffled = scored[:]
            rng.shuffle(shuffled)
            assert aggregate(shuffled) == baseline

    def test_positive_scaling_preserves_rank_and_scales_moments(self):
        base = {
            "GS": [0.9, 0.7, 0.8],
            "AMZN": [0.5, 0.75],
            "TSLA": [0.3, 0.1, 0.45, 0.2],
            "HSBC": [-0.9, -0.5],
        }
        scale = 0.5  # a power of two keeps the scaling exact in floats
        plain, scaled = [], []
        for ticker, values in base.items():
            plain += scored_from_composites(values, ticker=ticker)
            scaled += scored_from_composites([scale * v for v in values], ticker=ticker)
        aggs_plain = aggregate(plain)
        aggs_scaled = aggregate(scaled)
        for before, after in zip(aggs_plain, aggs_scaled):
            assert after.sum_composite == scale * before.sum_composite
            assert after.mean_composite == scale * before.mean_composite
        assert rank_affinity(aggs_scaled) == rank_affinity(aggs_plain)

    def test_concatenated_corpora_add(self):
        first = scored_from_composites([0.5, -0.25, 0.75])
        second = scored_from_composites([0.1, 0.9], start_id=10)
        (agg_first,) = aggregate(first)
        (agg_second,) = aggregate(second)
        (agg_both,) = aggregate(first + second)
        assert agg_both.n_docs == agg_first.n_docs + agg_second.n_docs
        assert agg_both.sum_composite == pytest.approx(
            agg_first.sum_composite + agg_second.sum_composite, abs=1e-12
        )


class TestClassify:
    @pytest.mark.parametrize(
        "mean,expected",
        [
            (0.6, AffinityClass.AFFINE),
            (-0.5, AffinityClass.AVERSE),
            (0.0, AffinityClass.NEUTRAL),
            (0.15, AffinityClass.AFFINE),     # boundary inclusive
            (-0.15, AffinityClass.AVERSE),    # boundary inclusive
            (0.1499, AffinityClass.NEUTRAL),
        ],
    )
    def test_default_thresholds(self, mean, expected):
        assert classify(mean, AffinityThresholds()) is expected

    def test_threshold_invariant(self):
        with pytest.raises(ValueError):
            AffinityThresholds(affine_min=-0.1, averse_max=-0.2)
        with pytest.raises(ValueError):
            AffinityThresholds(affine_min=0.1, averse_max=0.2)

    def test_monotone_in_mean(self):
        rng = random.Random(17)
        order = [AffinityClass.AVERSE, AffinityClass.NEUTRAL, AffinityClass.AFFINE]
        thresholds = AffinityThresholds()
        for _ in range(500):
            low = rng.uniform(-1, 1)
            high = rng.uniform(low, 1)
            assert order.index(classify(high, thresholds)) >= order.index(classify(low, thresholds))


class TestRank:
    def test_qualitative_order(self):
        scored = []
        for ticker, values in {
            "GS": [0.8],
            "AMZN": [0.6],
            "TSLA": [0.3],
            "HSBC": [-0.7],
        }.items():
            scored += scored_from_composites(values, ticker=ticker)
        assert rank_affinity(aggregate(scored)) == ["GS", "AMZN", "TSLA", "HSBC"]

    def test_ties_break_alphabetically(self):
        scored = scored_from_composites([0.5], ticker="TSLA")
        scored += scored_from_composites([0.5], ticker="AMZN", start_id=5)
        scored += scored_from_composites([0.5], ticker="GS", start_id=9)
        assert rank_affinity(aggregate(scored)) == ["AMZN", "GS", "TSLA"]

    def test_singleton(self):
        assert rank_affinity(aggregate(scored_from_composites([0.2]))) == ["GS"]


def test_mean_is_sum_over_count():
    rng = random.Random(23)
    values = [rng.uniform(-1, 1) for _ in range(37)]
    (agg,) = aggregate(scored_from_composites(values))
    assert agg.mean_composite == pytest.approx(math.fsum(values) / len(values), abs=1e-15)
    assert abs(agg.mean_composite) <= 1.0
