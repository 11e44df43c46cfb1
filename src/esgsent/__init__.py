"""esgsent: ESG sentiment scoring related to stock price moves.

Ingests ticker-scoped tweets and news, scores sentiment with a
financial polarity lexicon (or imported external verdicts), aggregates
composite scores per company into ESG affinity classes, and relates
daily sentiment polarity to opening-price changes.
"""

__version__ = "0.1.0"
