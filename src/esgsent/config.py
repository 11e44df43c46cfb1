"""Run configuration: one parser per key, shared by the config file and the flags.

A setting comes from its flag, else from the JSON config file given with
``--config``, else from the default on ``RunConfig`` (``window``'s is set
by ``resolve_config``). Each key has one parser in ``PARSERS``, so a value
passes the same checks whichever source it comes from. A parser takes the
flag's text; a config file may also give ``tickers`` as a list of keys,
``price_days`` as a JSON integer, and must give ``strict`` as a JSON
boolean. A path, ``--config``'s too, must not be blank or hold a lone
surrogate. A bad value or an unknown key raises ConfigError naming the key
and its source. Relative paths in a config file resolve against the file's
directory; relative flag paths resolve against the working directory.
"""

from __future__ import annotations

import json
import re
from datetime import datetime, timedelta, timezone
from pathlib import Path
from typing import Callable, NamedTuple, Optional

from .aggregation import AffinityThresholds
from .corpus import TimeWindow
from .errors import ConfigError
from .util import has_lone_surrogate, read_text

DEFAULT_DOCUMENT_DAYS = 10
# e.g. GS, BRK-B, 0005.HK, ^GSPC, EURUSD=X; no path separator, no markup, no leading '.' or '-'.
TICKER_KEY = re.compile(r"[A-Z0-9^][A-Z0-9.^=-]*")
# int() also reads " 20 ", "2_0" and non-ASCII digits such as "٢٠".
_DIGITS = re.compile(r"[0-9]+").fullmatch


def default_window() -> TimeWindow:
    """Closed window of the last DEFAULT_DOCUMENT_DAYS UTC calendar days, ending today."""
    end = datetime.now(timezone.utc).date()
    return TimeWindow(start=end - timedelta(days=DEFAULT_DOCUMENT_DAYS - 1), end=end)


class RunConfig(NamedTuple):
    """The effective settings of one run; field names are the config keys.
    ``resolve_config`` sets the default ``window``, ``default_window()``."""

    tickers: tuple[str, ...] = ("AMZN", "GS", "HSBC", "TSLA")
    window: Optional[TimeWindow] = None
    price_days: int = 20
    thresholds: AffinityThresholds = AffinityThresholds()
    fixtures: Path = Path("fixtures")
    out: Path = Path("out")
    lexicon: Optional[Path] = None
    external_verdicts: Optional[Path] = None
    strict: bool = False

    # Stage artifact locations inside the output directory.
    @property
    def corpus_path(self) -> Path:
        return self.out / "corpus.jsonl"

    @property
    def scored_path(self) -> Path:
        return self.out / "scored.jsonl"

    @property
    def aggregates_path(self) -> Path:
        return self.out / "aggregates.csv"

    @property
    def summary_path(self) -> Path:
        return self.out / "summary.csv"

    def prices_path(self, ticker: str) -> Path:
        return self.out / "prices" / f"{ticker}.csv"

    def analysis_path(self, ticker: str) -> Path:
        return self.out / "analysis" / f"{ticker}.json"

    def chart_path(self, ticker: str) -> Path:
        return self.out / "charts" / f"{ticker}.svg"


def _text(value: object) -> str:
    if not isinstance(value, str):
        raise ValueError(f"expected a string, got {value!r}")
    if not value.strip():
        raise ValueError("must not be empty")
    return value


def _ticker(key: object) -> str:
    """A stripped, uppercased key; the pattern keeps it a safe file name, CSV field and SVG text."""
    ticker = key.strip().upper() if isinstance(key, str) else ""
    if not TICKER_KEY.fullmatch(ticker):
        raise ValueError(f"ticker key {key!r} must match {TICKER_KEY.pattern} once uppercased")
    return ticker


def _tickers(value: object) -> tuple[str, ...]:
    """``K1,K2,...`` or a list of keys."""
    keys = value if isinstance(value, list) else _text(value).split(",")
    if not keys:
        raise ValueError("at least one ticker is required")
    tickers = tuple(_ticker(key) for key in keys)
    if len(set(tickers)) != len(tickers):
        raise ValueError(f"duplicate ticker keys in {value!r}")
    return tickers


def _window(value: object) -> TimeWindow:
    return TimeWindow.parse(_text(value))


def _price_days(value: object) -> int:
    """An integer >= 2, as JSON or as ASCII digits; a bool, a float or other text is rejected."""
    if type(value) is int:
        days = value
    elif isinstance(value, str) and _DIGITS(value):
        days = int(value)
    else:
        raise ValueError(f"expected an integer, got {value!r}")
    if days < 2:
        raise ValueError(f"must be >= 2, got {days}")
    return days


def _thresholds(value: object) -> AffinityThresholds:
    try:
        affine, averse = _text(value).split(",")
        return AffinityThresholds(float(affine), float(averse))
    except ValueError as exc:
        raise ValueError(
            f"bad thresholds {value!r}: expected AFFINE,AVERSE with -1 <= AVERSE < 0 < AFFINE <= 1") from exc


def _path(value: object) -> Path:
    """A non-blank path without a lone surrogate: every file call and every
    printed line that names the path must encode it as UTF-8."""
    text = _text(value)
    if has_lone_surrogate(text):
        raise ValueError(f"path {text!r} holds a lone surrogate, which UTF-8 cannot encode")
    return Path(text)


def _strict(value: object) -> bool:
    if not isinstance(value, bool):
        raise ValueError(f"expected true or false, got {value!r}")
    return value


PARSERS: dict[str, Callable[[object], object]] = {
    "tickers": _tickers,
    "window": _window,
    "price_days": _price_days,
    "thresholds": _thresholds,
    "fixtures": _path,
    "out": _path,
    "lexicon": _path,
    "external_verdicts": _path,
    "strict": _strict,
}


def _parse(key: str, value: object, source: str, parse: Optional[Callable[[object], object]] = None) -> object:
    """``parse``, by default the key's parser, applied to the value; a ValueError is a ConfigError."""
    try:
        return (parse or PARSERS[key])(value)
    except ValueError as exc:
        raise ConfigError(f"{key} (from {source}): {exc}") from None


def load_config_file(path: Path) -> dict[str, object]:
    """Parse a JSON config file into {key: value} for the keys it sets.

    Relative paths resolve against the file's directory.
    """
    text = read_text(path)  # a decode error is an InputError
    try:
        raw = json.loads(text)
    # A JSONDecodeError is a ValueError, and so is the error for an integer past sys.get_int_max_str_digits().
    except ValueError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    unknown = sorted(set(raw) - set(PARSERS))
    if unknown:
        raise ConfigError(f"config {path} has unknown key(s): {', '.join(unknown)}")
    values = {key: _parse(key, value, str(path)) for key, value in raw.items()}
    return {key: path.parent / v if isinstance(v, Path) else v for key, v in values.items()}


def resolve_config(args: object) -> RunConfig:
    """The effective RunConfig: the --config file's values, then every flag given; window defaults to today's."""
    values = load_config_file(_parse("config", args.config, "--config", _path)) if args.config is not None else {}
    for key in PARSERS:
        value = getattr(args, key, None)
        if value is not None:
            values[key] = _parse(key, value, "--" + key.replace("_", "-"))
    values.setdefault("window", default_window())
    return RunConfig(**values)
