"""Records: a bad field value is rejected however a checked record is built,
and a price series keeps its bar count as ``len()``."""

from __future__ import annotations

from datetime import date

import pytest

from esgsent.aggregation import AffinityThresholds
from esgsent.corpus import TimeWindow
from esgsent.errors import InvariantError
from esgsent.market import PriceSeries
from esgsent.sentiment import Lexicon, SentimentLabel, SentimentVerdict

from conftest import make_series

# (record class, good fields, bad fields, error class, message)
CASES = [
    pytest.param(TimeWindow, (date(2022, 7, 20), date(2022, 7, 29)), (date(2022, 7, 29), date(2022, 7, 20)),
                 ValueError, "window start 2022-07-29 is after end 2022-07-20", id="TimeWindow"),
    pytest.param(SentimentVerdict, (SentimentLabel.POSITIVE, 0.5), (SentimentLabel.POSITIVE, 1.5),
                 InvariantError, "sentiment score 1.5 outside [0, 1]", id="SentimentVerdict"),
    pytest.param(Lexicon, (frozenset({"good"}), frozenset({"bad"}), frozenset({"not"})),
                 (frozenset({"good", "fine"}), frozenset({"good"}), frozenset({"not"})),
                 InvariantError, "terms listed as both positive and negative: good", id="Lexicon"),
    pytest.param(AffinityThresholds, (0.1, -0.1), (-0.1, 0.1),
                 ValueError, "thresholds must satisfy -1 <= averse_max < 0 < affine_min <= 1, got (-0.1, 0.1)",
                 id="AffinityThresholds"),
]

BUILDERS = {
    "constructor": lambda cls, good, bad: cls(*bad),
    "_make": lambda cls, good, bad: cls._make(bad),
    "_replace": lambda cls, good, bad: cls(*good)._replace(**dict(zip(cls._fields, bad))),
}


@pytest.mark.parametrize("build", list(BUILDERS))
@pytest.mark.parametrize("cls,good,bad,error,message", CASES)
def test_a_bad_value_is_rejected_with_its_message(cls, good, bad, error, message, build):
    assert cls._make(good) == cls(*good)._replace() == cls(*good)
    with pytest.raises(error) as info:
        BUILDERS[build](cls, good, bad)
    assert str(info.value) == message


def test_price_series_len_is_the_bar_count_through_make_and_replace():
    series = make_series([100, 101, 102])
    assert len(series) == len(series._replace(ticker="TSLA")) == len(PriceSeries._make(series)) == 3
