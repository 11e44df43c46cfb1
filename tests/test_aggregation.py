"""Per-ticker aggregation, affinity classification and ranking."""

from __future__ import annotations

import math
import random
from datetime import date, timedelta

import pytest

from esgsent.aggregation import (
    AffinityClass,
    AffinityThresholds,
    aggregate_by_ticker,
    classify,
    rank_affinity,
)

DAY = date(2022, 7, 20)


def one_day(values):
    """A ticker's composites by UTC day, all on one day."""
    return {DAY: list(values)}


class TestAggregate:
    def test_hand_arithmetic(self):
        (agg,) = aggregate_by_ticker({"GS": {DAY: [0.9, -0.4], DAY + timedelta(days=1): [0.5]}})
        assert agg.n_docs == 3
        assert agg.sum_composite == pytest.approx(1.0, abs=1e-15)
        assert agg.mean_composite == pytest.approx(1.0 / 3, abs=1e-15)

    def test_empty_input_with_configured_tickers(self):
        aggs = aggregate_by_ticker({"AMZN": {}, "GS": {}})
        assert [a.ticker for a in aggs] == ["AMZN", "GS"]
        for agg in aggs:
            assert (agg.n_docs, agg.sum_composite, agg.mean_composite) == (0, 0.0, 0.0)
            assert agg.classification is AffinityClass.NEUTRAL

    def test_singleton(self):
        (agg,) = aggregate_by_ticker({"GS": one_day([-0.8])})
        assert agg.sum_composite == -0.8
        assert agg.mean_composite == -0.8
        assert agg.classification is AffinityClass.AVERSE

    def test_output_sorted_by_ticker(self):
        aggs = aggregate_by_ticker({"TSLA": one_day([0.5]), "AMZN": one_day([0.5])})
        assert [a.ticker for a in aggs] == ["AMZN", "TSLA"]

    def test_order_invariance(self):
        rng = random.Random(5)
        values = {"GS": [0.9, -0.4, 0.5, 0.25, -1.0, 0.75], "HSBC": [0.1, -0.3, 1.0]}

        def table(shuffle):
            out = {}
            for ticker, composites in values.items():
                composites = composites[:]
                shuffle(composites)
                days = {}
                for i, value in enumerate(composites):
                    days.setdefault(DAY + timedelta(days=i % 4), []).append(value)
                out[ticker] = dict(sorted(days.items(), key=lambda _: rng.random()))
            return dict(sorted(out.items(), key=lambda _: rng.random()))

        baseline = aggregate_by_ticker(table(lambda xs: None))
        for _ in range(20):
            assert aggregate_by_ticker(table(rng.shuffle)) == baseline

    def test_positive_scaling_preserves_rank_and_scales_moments(self):
        base = {
            "GS": [0.9, 0.7, 0.8],
            "AMZN": [0.5, 0.75],
            "TSLA": [0.3, 0.1, 0.45, 0.2],
            "HSBC": [-0.9, -0.5],
        }
        scale = 0.5  # a power of two keeps the scaling exact in floats
        aggs_plain = aggregate_by_ticker({t: one_day(values) for t, values in base.items()})
        aggs_scaled = aggregate_by_ticker({t: one_day([scale * v for v in values]) for t, values in base.items()})
        for before, after in zip(aggs_plain, aggs_scaled):
            assert after.sum_composite == scale * before.sum_composite
            assert after.mean_composite == scale * before.mean_composite
        assert rank_affinity(aggs_scaled) == rank_affinity(aggs_plain)

    def test_concatenated_corpora_add(self):
        first = {DAY: [0.5, -0.25, 0.75]}
        second = {DAY + timedelta(days=1): [0.1, 0.9]}
        (agg_first,) = aggregate_by_ticker({"GS": first})
        (agg_second,) = aggregate_by_ticker({"GS": second})
        (agg_both,) = aggregate_by_ticker({"GS": {**first, **second}})
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
        table = {"GS": one_day([0.8]), "AMZN": one_day([0.6]), "TSLA": one_day([0.3]), "HSBC": one_day([-0.7])}
        assert rank_affinity(aggregate_by_ticker(table)) == ["GS", "AMZN", "TSLA", "HSBC"]

    def test_ties_break_alphabetically(self):
        table = {"TSLA": one_day([0.5]), "AMZN": one_day([0.5]), "GS": one_day([0.5])}
        assert rank_affinity(aggregate_by_ticker(table)) == ["AMZN", "GS", "TSLA"]

    def test_singleton(self):
        assert rank_affinity(aggregate_by_ticker({"GS": one_day([0.2])})) == ["GS"]


def test_mean_is_sum_over_count():
    rng = random.Random(23)
    values = [rng.uniform(-1, 1) for _ in range(37)]
    (agg,) = aggregate_by_ticker({"GS": one_day(values)})
    assert agg.mean_composite == pytest.approx(math.fsum(values) / len(values), abs=1e-15)
    assert abs(agg.mean_composite) <= 1.0
