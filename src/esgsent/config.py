"""Run configuration: JSON config file merged with CLI flag overrides.

Every config field has a matching flag and flags win. Relative paths in
a config file resolve against the config file's directory; relative
flag paths resolve against the working directory.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from datetime import datetime, timedelta, timezone
from pathlib import Path
from typing import Optional

from .aggregation import AffinityThresholds
from .corpus import DEFAULT_COMPANIES, Ticker, TimeWindow
from .errors import SchemaError

DEFAULT_DOCUMENT_DAYS = 10
DEFAULT_PRICE_DAYS = 20

_CONFIG_KEYS = {
    "tickers",
    "window",
    "price_days",
    "thresholds",
    "fixtures",
    "out",
    "lexicon",
    "external_verdicts",
    "strict",
}


def default_window(days: int = DEFAULT_DOCUMENT_DAYS) -> TimeWindow:
    """Closed window of the last `days` UTC calendar days, ending today."""
    end = datetime.now(timezone.utc).date()
    return TimeWindow(start=end - timedelta(days=days - 1), end=end)


def default_tickers() -> list[Ticker]:
    return [Ticker(key, name) for key, name in sorted(DEFAULT_COMPANIES.items())]


@dataclass(frozen=True)
class RunConfig:
    tickers: tuple[Ticker, ...] = field(default_factory=lambda: tuple(default_tickers()))
    document_window: TimeWindow = field(default_factory=default_window)
    price_days: int = DEFAULT_PRICE_DAYS
    thresholds: AffinityThresholds = AffinityThresholds()
    fixtures_dir: Path = Path("fixtures")
    out_dir: Path = Path("out")
    lexicon_dir: Optional[Path] = None
    external_verdicts: Optional[Path] = None
    strict: bool = False

    def __post_init__(self) -> None:
        if not self.tickers:
            raise ValueError("at least one ticker is required")
        keys = [t.key for t in self.tickers]
        if len(set(keys)) != len(keys):
            raise ValueError(f"duplicate ticker keys: {keys}")
        if self.price_days < 2:
            raise ValueError(f"price_days must be >= 2, got {self.price_days}")

    @property
    def ticker_keys(self) -> list[str]:
        return [t.key for t in self.tickers]

    # Stage artifact locations inside the output directory.
    @property
    def corpus_path(self) -> Path:
        return self.out_dir / "corpus.jsonl"

    @property
    def scored_path(self) -> Path:
        return self.out_dir / "scored.jsonl"

    @property
    def aggregates_path(self) -> Path:
        return self.out_dir / "aggregates.csv"

    @property
    def summary_path(self) -> Path:
        return self.out_dir / "summary.csv"

    def prices_path(self, ticker_key: str) -> Path:
        return self.out_dir / "prices" / f"{ticker_key}.csv"

    def analysis_path(self, ticker_key: str) -> Path:
        return self.out_dir / "analysis" / f"{ticker_key}.json"

    def chart_path(self, ticker_key: str) -> Path:
        return self.out_dir / "charts" / f"{ticker_key}.svg"


def _parse_tickers(raw: object) -> tuple[Ticker, ...]:
    if not isinstance(raw, list) or not raw:
        raise SchemaError("config 'tickers' must be a non-empty list")
    tickers = []
    for entry in raw:
        if isinstance(entry, str):
            tickers.append(Ticker.from_key(entry))
        elif isinstance(entry, dict) and "key" in entry:
            tickers.append(Ticker(str(entry["key"]).upper(), str(entry.get("display_name", entry["key"]))))
        else:
            raise SchemaError(f"bad ticker entry in config: {entry!r}")
    return tuple(tickers)


def _parse_window(raw: object) -> TimeWindow:
    try:
        if isinstance(raw, str):
            return TimeWindow.parse(raw)
        if isinstance(raw, dict):
            return TimeWindow.parse(f"{raw.get('start')}:{raw.get('end')}")
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc
    raise SchemaError(f"bad window in config: {raw!r}")


def _parse_thresholds(raw: object) -> AffinityThresholds:
    try:
        if isinstance(raw, dict):
            return AffinityThresholds(float(raw["affine_min"]), float(raw["averse_max"]))
        if isinstance(raw, (list, tuple)) and len(raw) == 2:
            return AffinityThresholds(float(raw[0]), float(raw[1]))
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"bad thresholds in config: {raw!r}") from exc
    raise SchemaError(f"bad thresholds in config: {raw!r}")


def parse_thresholds_flag(text: str) -> AffinityThresholds:
    """Parse the --thresholds AFFINE,AVERSE flag value."""
    try:
        affine_s, averse_s = text.split(",")
        return AffinityThresholds(float(affine_s), float(averse_s))
    except ValueError as exc:
        raise SchemaError(f"bad --thresholds {text!r}: expected AFFINE,AVERSE") from exc


def load_config_file(path: Path) -> RunConfig:
    """Read a JSON config file into a RunConfig."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise SchemaError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise SchemaError(f"config {path} must hold a JSON object")
    unknown = sorted(set(raw) - _CONFIG_KEYS)
    if unknown:
        raise SchemaError(f"config {path} has unknown key(s): {', '.join(unknown)}")

    base = path.parent

    def _path(value: object) -> Path:
        p = Path(str(value))
        return p if p.is_absolute() else base / p

    config = RunConfig(
        tickers=_parse_tickers(raw["tickers"]) if "tickers" in raw else tuple(default_tickers()),
        document_window=_parse_window(raw["window"]) if "window" in raw else default_window(),
        price_days=int(raw.get("price_days", DEFAULT_PRICE_DAYS)),
        thresholds=_parse_thresholds(raw["thresholds"]) if "thresholds" in raw else AffinityThresholds(),
        fixtures_dir=_path(raw.get("fixtures", "fixtures")),
        out_dir=_path(raw.get("out", "out")),
        lexicon_dir=_path(raw["lexicon"]) if raw.get("lexicon") else None,
        external_verdicts=_path(raw["external_verdicts"]) if raw.get("external_verdicts") else None,
        strict=bool(raw.get("strict", False)),
    )
    return config


def apply_overrides(config: RunConfig, args: object) -> RunConfig:
    """Apply parsed CLI flags on top of a config; flags win.

    A value flag counts as given whenever it is not None, so 0 reaches
    RunConfig's checks instead of falling back to the config value; an
    empty string is rejected.
    """

    def flag(name: str):
        value = getattr(args, name, None)
        if value == "":
            raise ValueError(f"--{name.replace('_', '-')} must not be empty")
        return value

    updates: dict = {}
    if (tickers := flag("tickers")) is not None:
        updates["tickers"] = tuple(Ticker.from_key(k) for k in tickers.split(","))
    if (window := flag("window")) is not None:
        try:
            updates["document_window"] = TimeWindow.parse(window)
        except ValueError as exc:
            raise SchemaError(str(exc)) from exc
    if (price_days := flag("price_days")) is not None:
        updates["price_days"] = price_days
    if (thresholds := flag("thresholds")) is not None:
        updates["thresholds"] = parse_thresholds_flag(thresholds)
    for name, key in (("fixtures", "fixtures_dir"), ("out", "out_dir"),
                      ("lexicon", "lexicon_dir"), ("external_verdicts", "external_verdicts")):
        if (value := flag(name)) is not None:
            updates[key] = Path(value)
    if getattr(args, "strict", False):
        updates["strict"] = True
    return replace(config, **updates) if updates else config


def resolve_config(args: object) -> RunConfig:
    """Build the effective RunConfig from --config (optional) plus flags."""
    config_path = getattr(args, "config", None)
    config = load_config_file(Path(config_path)) if config_path else RunConfig()
    return apply_overrides(config, args)
