"""Unified document model and corpus ingestion.

One ticker-tagged ``Document`` represents either a tweet or a news
article, with only the fields scoring reads: a record's metadata
(author, followers, place, url) is type-checked and dropped. Documents
arrive through a transport (the shipped one replays recorded fixtures),
get window-filtered and deduplicated, and persist as one JSON object per
line so corpus files stay append-friendly and diffable.

The narrowing rule: a document is kept if and only if the earliest copy
of its (source, id) key lies in the window. A copy dated before the
window is earlier than any inside it, and one dated after it never is, so
``fetch_documents`` collects the keys of the records dated before the
window's start and ``dedupe`` drops every document whose key is among
them. A narrower window then keeps exactly the
documents of a wider one that lie inside it.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from datetime import date, datetime, timezone
from enum import Enum
from pathlib import Path
from operator import attrgetter
from sys import intern
from typing import Iterable, NamedTuple, Optional

from .errors import SchemaError
from .transport import ReplayDocumentTransport
from .util import Record, drain, has_lone_surrogate, json_line, json_str, note


class Source(Enum):
    """Where a document came from."""

    TWEET = "tweet"
    NEWS = "news"


class _TimeWindowFields(NamedTuple):
    start: date
    end: date


class TimeWindow(Record, _TimeWindowFields):
    """Closed interval of UTC calendar dates; every constructor checks start <= end."""

    __slots__ = ()

    def __new__(cls, start: date, end: date) -> "TimeWindow":
        if start > end:
            raise ValueError(f"window start {start} is after end {end}")
        return tuple.__new__(cls, (start, end))

    def contains(self, ts: datetime) -> bool:
        """Whether a UTC timestamp's date lies in the window."""
        return self.start <= ts.date() <= self.end

    @classmethod
    def parse(cls, text: str) -> "TimeWindow":
        """Parse ``START:END`` with YYYY-MM-DD dates, e.g. ``2022-07-20:2022-07-29``."""
        try:
            start_s, end_s = text.split(":")
            start, end = date.fromisoformat(start_s), date.fromisoformat(end_s)
        except ValueError as exc:
            raise ValueError(f"bad window {text!r}: expected START:END ISO dates") from exc
        # From Python 3.11 on fromisoformat also reads 20220720 and 2022-W29-3.
        if f"{start}:{end}" != text:
            raise ValueError(f"bad window {text!r}: expected START:END dates as YYYY-MM-DD")
        return cls(start, end)


class _DocumentFields(NamedTuple):
    id: str
    source: Source
    timestamp: datetime
    ticker: str
    text: str
    title: Optional[str]


class Document(Record, _DocumentFields):
    """One tweet or news article, ticker-tagged and UTC-timestamped.

    An immutable tuple of the fields above, the ones scoring reads and the
    corpus file writes. The constructor checks that the id is non-empty,
    the text is not blank and the timestamp is in UTC; ``_replace`` and
    ``_make`` go through it.
    """

    __slots__ = ()

    def __new__(
        cls,
        id: str,
        source: Source,
        timestamp: datetime,
        ticker: str,
        text: str,
        title: Optional[str] = None,
    ) -> "Document":
        if not id:
            raise SchemaError("document id must be non-empty")
        if not text.strip():
            raise SchemaError(f"document {id!r} has empty text")
        if timestamp.tzinfo is not timezone.utc:
            raise SchemaError(f"document {id!r} timestamp is not in UTC")
        return tuple.__new__(cls, (id, source, timestamp, ticker, text, title))

    # Both keys are read in C: _value_ is the Source member's value as a
    # plain attribute, where Enum.value is a Python-level property.
    key = property(attrgetter("source._value_", "id"), doc="(source, id) pair, unique after deduplication.")


# Record schema: the required fields, in serialization order, then the
# optional ones. Of these only title is kept; the rest are checked and dropped.
_REQUIRED_FIELDS = ("id", "source", "timestamp", "ticker", "text")
_REQUIRED = frozenset(_REQUIRED_FIELDS)
_KNOWN_FIELDS = frozenset(_REQUIRED_FIELDS + ("author", "followers", "place", "url", "title"))
_SOURCE_OF = {source.value: source for source in Source}


# The one timestamp form: YYYY-MM-DDTHH:MM:SS, optional .fff or .ffffff, then Z or
# +HH:MM / -HH:MM. Checked before fromisoformat, which accepts more forms from 3.11 on.
_TIMESTAMP_FORM = re.compile(
    r"[0-9]{4}-[0-9]{2}-[0-9]{2}T[0-9]{2}:[0-9]{2}:[0-9]{2}"
    r"(?:\.[0-9]{3}|\.[0-9]{6})?(?:Z|[+-][0-9]{2}:[0-9]{2})?"
).fullmatch


def _parse_timestamp(raw: str, doc_id: str) -> datetime:
    try:
        if _TIMESTAMP_FORM(raw) is None:
            raise ValueError("not the documented form")
        ts = datetime.fromisoformat(raw.replace("Z", "+00:00"))
    except (ValueError, TypeError) as exc:
        raise SchemaError(f"document {doc_id!r}: bad timestamp {raw!r}") from exc
    if ts.tzinfo is None:
        raise SchemaError(f"document {doc_id!r}: timestamp {raw!r} lacks a UTC offset")
    return ts.astimezone(timezone.utc)


def format_timestamp(ts: datetime) -> str:
    """A UTC timestamp as ``corpus.jsonl`` and ``scored.jsonl`` write it:
    ``YYYY-MM-DDTHH:MM:SS``, ``.ffffff`` when it has fractional seconds, then ``Z``."""
    # The same text as isoformat() less its +00:00, without the offset's formatting.
    return f"{ts.date().isoformat()}T{ts.time().isoformat()}Z"


def parse_document_payload(payload: dict, *, strict: bool = False,
                           ignored: Optional[Counter[tuple[str, ...]]] = None) -> Document:
    """Build a Document from a decoded JSON object.

    ``author``, ``followers``, ``place`` and ``url`` are type-checked and
    dropped. Unknown fields raise SchemaError in strict mode. Otherwise they
    are ignored, and ``ignored``, when given, counts their sorted names. The
    documents of one ticker share one ticker string (a ``str`` subclass,
    which only a caller's own payload can hold, is kept as given).
    """
    if not isinstance(payload, dict):
        raise SchemaError(f"document payload must be an object, got {type(payload).__name__}")

    # One set comparison each; the field-by-field passes run only to word an error.
    fields = payload.keys()
    if not fields >= _REQUIRED:
        missing = [name for name in _REQUIRED_FIELDS if name not in payload]
        raise SchemaError(f"document payload missing required field(s): {', '.join(missing)}")
    if not fields <= _KNOWN_FIELDS:
        unknown = sorted(fields - _KNOWN_FIELDS)
        if strict:
            raise SchemaError(f"document payload has unknown field(s): {', '.join(unknown)}")
        if ignored is not None:
            ignored[tuple(unknown)] += 1

    get = payload.get
    doc_id, ticker, text = payload["id"], payload["ticker"], payload["text"]
    place, url, title = get("place"), get("url"), get("title")
    # Optional fields may be absent or null; author may be any JSON value.
    if not (
        isinstance(doc_id, str) and isinstance(ticker, str) and isinstance(text, str)
        and (place is None or isinstance(place, str))
        and (url is None or isinstance(url, str))
        and (title is None or isinstance(title, str))
    ):
        for name in ("id", "ticker", "text", "place", "url", "title"):
            value = get(name)
            if not isinstance(value, str) and (value is not None or name in _REQUIRED):
                raise SchemaError(f"document {doc_id!r}: {name} must be a string, got {value!r}")
    try:
        source = _SOURCE_OF[payload["source"]]
    except (KeyError, TypeError):
        raise SchemaError(f"document {doc_id!r}: bad source {payload['source']!r}") from None

    followers = get("followers")
    if followers is not None:
        if type(followers) is not int:
            raise SchemaError(f"document {doc_id!r}: bad follower count {followers!r}")
        if followers < 0:
            raise SchemaError(f"document {doc_id!r} has negative follower count")

    # A lone surrogate, decoded from an escape such as "\ud800", has no UTF-8
    # form, so a field that is written could not be. Only a string that is
    # not ASCII can hold one, and isascii() reads a flag.
    if not (doc_id.isascii() and ticker.isascii() and text.isascii() and (title is None or title.isascii())):
        for name, value in (("id", doc_id), ("ticker", ticker), ("text", text), ("title", title)):
            if value is not None and has_lone_surrogate(value):
                raise SchemaError(f"document {doc_id!r}: {name} holds a lone surrogate, which UTF-8 cannot encode")

    if type(ticker) is str:  # sys.intern takes no subclass
        ticker = intern(ticker)
    return Document(doc_id, source, _parse_timestamp(payload["timestamp"], doc_id), ticker, text, title)


def parse_document_line(line: str) -> Document:
    """Parse one corpus-file line (a single JSON object)."""
    try:
        payload = json.loads(line)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"malformed corpus line: {exc}") from exc
    return parse_document_payload(payload)


def line_head(doc: Document) -> str:
    """The fields a corpus line and a scored line both open with: id, source,
    timestamp and ticker, as JSON text from the opening brace on."""
    # Source values and timestamps need no JSON escaping.
    return (
        f'{{"id": {json_str(doc.id)}, "source": "{doc.source._value_}", '
        f'"timestamp": "{format_timestamp(doc.timestamp)}", "ticker": {json_str(doc.ticker)}'
    )


def corpus_tail(doc: Document) -> str:
    """The rest of a corpus line after ``line_head``: text, then title when present."""
    if doc.title is None:
        return f', "text": {json_str(doc.text)}}}'
    return f', "text": {json_str(doc.text)}, "title": {json_str(doc.title)}}}'


def serialize_document(doc: Document) -> str:
    """Render a Document as its canonical corpus line (no trailing newline).

    Field order and float-free payload keep serialization byte-stable, so
    parse -> serialize -> parse round-trips to an equal Document.
    """
    return line_head(doc) + corpus_tail(doc)


def dedupe(docs: Iterable[Document], earlier: Iterable[tuple[str, str]] = ()) -> list[Document]:
    """Drop duplicate (source, id) keys, keeping the earliest record, and
    every record whose key is in ``earlier``, the keys dated before the window.

    Scanning happens in (timestamp, id) order so the first occurrence in
    that order wins; output is emitted in the same order, records equal in
    both in input order. Idempotent.
    """
    # Two stable sorts give the (timestamp, id) order, and one set of ids per
    # source the keys, with no tuple per document.
    ordered = sorted(docs, key=attrgetter("id"))
    ordered.sort(key=attrgetter("timestamp"))
    seen: dict[str, set[str]] = {source.value: set() for source in Source}
    for source, doc_id in earlier:
        seen[source].add(doc_id)
    out: list[Document] = []
    for doc in ordered:
        ids = seen[doc.source._value_]
        if doc.id not in ids:
            ids.add(doc.id)
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
    earlier: Optional[set[tuple[str, str]]] = None,
) -> list[Document]:
    """Retrieve this ticker's documents through a transport, in transport order.

    Every returned document matches the ticker and lies inside the window.
    When ``earlier`` is given, the (source, id) key of each of the ticker's
    records dated before the window's start is added to it. The first bad
    line in read order is a SchemaError naming its fixture file and line.
    The transport's list is emptied as its lines are parsed, so a line is
    freed once its document exists. Without strict, each file whose records
    had unknown fields gets one note naming them and counting the records.
    """
    docs: list[Document] = []
    ignored: dict[Path, Counter[tuple[str, ...]]] = {}
    path = None
    for record_path, lineno, line in drain(transport.fetch(ticker)):
        if record_path is not path:
            path, counts = record_path, ignored.setdefault(record_path, Counter())
        payload = json_line(line, path, lineno)  # its SchemaError already names the line
        try:
            doc = parse_document_payload(payload, strict=strict, ignored=counts)
        except SchemaError as exc:
            raise SchemaError(f"{path}:{lineno}: {exc}") from exc
        if doc.ticker == ticker:
            if window.contains(doc.timestamp):
                docs.append(doc)
            elif earlier is not None and doc.timestamp.date() < window.start:
                earlier.add(doc.key)
    for path, counts in ignored.items():
        if counts:
            names = ", ".join(sorted(set().union(*counts)))
            note("schema", f"{path}: ignored unknown field(s) {names} in {counts.total()} record(s)")
    return docs
