"""Unified document model and corpus ingestion.

One ticker-tagged ``Document`` represents either a tweet or a news
article. Documents arrive through a transport (the shipped one replays
recorded fixtures), get window-filtered and deduplicated, and persist as
one JSON object per line so corpus files stay append-friendly and
diffable.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from datetime import date, datetime, timezone
from enum import Enum
from pathlib import Path
from typing import Iterable, Optional

from .errors import SchemaError
from .transport import ReplayDocumentTransport
from .util import json_value, open_text

logger = logging.getLogger(__name__)

class Source(Enum):
    """Where a document came from."""

    TWEET = "tweet"
    NEWS = "news"


@dataclass(frozen=True)
class TimeWindow:
    """Closed interval of UTC calendar dates."""

    start: date
    end: date

    def __post_init__(self) -> None:
        if self.start > self.end:
            raise ValueError(f"window start {self.start} is after end {self.end}")

    def contains(self, ts: datetime) -> bool:
        """Whether a UTC timestamp's date lies in the window."""
        return self.start <= ts.date() <= self.end

    @classmethod
    def parse(cls, text: str) -> "TimeWindow":
        """Parse ``START:END`` with ISO dates, e.g. ``2022-07-20:2022-07-29``."""
        try:
            start_s, end_s = text.split(":")
            return cls(date.fromisoformat(start_s), date.fromisoformat(end_s))
        except ValueError as exc:
            raise ValueError(f"bad window {text!r}: expected START:END ISO dates") from exc


@dataclass(frozen=True)
class Document:
    """One tweet or news article, ticker-tagged and UTC-timestamped."""

    id: str
    source: Source
    timestamp: datetime
    ticker: str
    text: str
    author: Optional[str] = None
    followers: Optional[int] = None
    place: Optional[str] = None
    url: Optional[str] = None
    title: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.id:
            raise SchemaError("document id must be non-empty")
        if not self.text.strip():
            raise SchemaError(f"document {self.id!r} has empty text")
        if self.timestamp.tzinfo is not timezone.utc:
            raise SchemaError(f"document {self.id!r} timestamp is not in UTC")
        if self.followers is not None and self.followers < 0:
            raise SchemaError(f"document {self.id!r} has negative follower count")

    @property
    def key(self) -> tuple[str, str]:
        """(source, id) pair, unique after deduplication."""
        return (self.source.value, self.id)

    @property
    def sort_key(self) -> tuple[datetime, str]:
        """(timestamp, id): the id breaks ties, giving a total order."""
        return (self.timestamp, self.id)


# Corpus line schema: required then optional fields, in serialization order.
_REQUIRED_FIELDS = ("id", "source", "timestamp", "ticker", "text")
_OPTIONAL_FIELDS = ("author", "followers", "place", "url", "title")
_KNOWN_FIELDS = frozenset(_REQUIRED_FIELDS + _OPTIONAL_FIELDS)


def _parse_timestamp(raw: str, doc_id: str) -> datetime:
    try:
        ts = datetime.fromisoformat(raw.replace("Z", "+00:00"))
    except (ValueError, AttributeError, TypeError) as exc:
        raise SchemaError(f"document {doc_id!r}: bad timestamp {raw!r}") from exc
    if ts.tzinfo is None:
        raise SchemaError(f"document {doc_id!r}: timestamp {raw!r} lacks a UTC offset")
    return ts.astimezone(timezone.utc)


def parse_document_payload(payload: dict, *, strict: bool = False) -> Document:
    """Build a Document from a decoded JSON object.

    Unknown fields raise SchemaError in strict mode and are otherwise
    ignored with a warning.
    """
    if not isinstance(payload, dict):
        raise SchemaError(f"document payload must be an object, got {type(payload).__name__}")

    missing = [name for name in _REQUIRED_FIELDS if name not in payload]
    if missing:
        raise SchemaError(f"document payload missing required field(s): {', '.join(missing)}")

    if not _KNOWN_FIELDS.issuperset(payload):
        unknown = sorted(set(payload) - _KNOWN_FIELDS)
        if strict:
            raise SchemaError(f"document payload has unknown field(s): {', '.join(unknown)}")
        logger.warning("ignoring unknown document field(s): %s", ", ".join(unknown))

    doc_id = payload["id"]
    # Optional fields may be absent or null; author may be any JSON value.
    for name in ("id", "ticker", "text", "place", "url", "title"):
        value = payload.get(name)
        if not isinstance(value, str) and (value is not None or name in _REQUIRED_FIELDS):
            raise SchemaError(f"document {doc_id!r}: {name} must be a string, got {value!r}")
    try:
        source = Source(payload["source"])
    except ValueError:
        raise SchemaError(f"document {doc_id!r}: bad source {payload['source']!r}") from None

    followers = payload.get("followers")
    if followers is not None and type(followers) is not int:
        raise SchemaError(f"document {doc_id!r}: bad follower count {followers!r}")

    return Document(
        id=doc_id,
        source=source,
        timestamp=_parse_timestamp(payload["timestamp"], doc_id),
        ticker=payload["ticker"],
        text=payload["text"],
        author=payload.get("author"),
        followers=followers,
        place=payload.get("place"),
        url=payload.get("url"),
        title=payload.get("title"),
    )


def parse_document_line(line: str, *, strict: bool = False) -> Document:
    """Parse one corpus-file line (a single JSON object)."""
    try:
        payload = json.loads(line)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"malformed corpus line: {exc}") from exc
    return parse_document_payload(payload, strict=strict)


def serialize_document(doc: Document) -> str:
    """Render a Document as its canonical corpus line (no trailing newline).

    Field order and float-free payload keep serialization byte-stable, so
    parse -> serialize -> parse round-trips to an equal Document.
    """
    # Source values and timestamps need no JSON escaping. The timestamp is
    # UTC, so isoformat ends in +00:00; fractional seconds are kept.
    line = (
        f'{{"id": {json_value(doc.id)}, "source": "{doc.source.value}", '
        f'"timestamp": "{doc.timestamp.isoformat()[:-6]}Z", '
        f'"ticker": {json_value(doc.ticker)}, "text": {json_value(doc.text)}'
    )
    for name in _OPTIONAL_FIELDS:
        value = getattr(doc, name)
        if value is not None:
            line += f', "{name}": {json_value(value)}'
    return line + "}"


def dedupe(docs: Iterable[Document]) -> list[Document]:
    """Drop duplicate (source, id) keys, keeping the earliest record.

    Scanning happens in (timestamp, id) order so the first occurrence in
    that order wins; output is emitted in the same order. Idempotent.
    """
    seen: set[tuple[str, str]] = set()
    out: list[Document] = []
    for doc in sorted(docs, key=lambda d: d.sort_key):
        if doc.key in seen:
            continue
        seen.add(doc.key)
        out.append(doc)
    return out


def filter_window(docs: Iterable[Document], window: TimeWindow) -> list[Document]:
    """Keep documents whose UTC date falls inside the closed window."""
    return [doc for doc in docs if window.contains(doc.timestamp)]


def fetch_documents(
    ticker: str,
    window: TimeWindow,
    transport: ReplayDocumentTransport,
    *,
    strict: bool = False,
) -> list[Document]:
    """Retrieve this ticker's documents through a transport, in transport order.

    Every returned document matches the ticker and lies inside the window.
    """
    docs = []
    for payload in transport.fetch(ticker):
        doc = parse_document_payload(payload, strict=strict)
        if doc.ticker != ticker:
            continue
        if window.contains(doc.timestamp):
            docs.append(doc)
    return docs


def read_corpus(path: Path, *, strict: bool = False) -> list[Document]:
    """Load a corpus file (one JSON document per line, blank lines skipped)."""
    docs = []
    with open_text(path) as handle:
        for lineno, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                docs.append(parse_document_line(line, strict=strict))
            except SchemaError as exc:
                raise SchemaError(f"{path}:{lineno}: {exc}") from exc
    return docs


def write_corpus(docs: Iterable[Document], path: Path) -> None:
    """Write documents as a deterministic line-oriented corpus file."""
    # Looked up per call, so bench/traced.py's patch of util.atomic_write_text counts this write.
    from .util import atomic_write_text

    body = "".join(serialize_document(doc) + "\n" for doc in docs)
    atomic_write_text(path, body)
