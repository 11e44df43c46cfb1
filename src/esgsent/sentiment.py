"""Lexicon sentiment scoring and composite polarity scores.

A document gets a (label, score) verdict either from the shipped
financial polarity lexicon or from an imported file of externally
produced transformer verdicts. The composite score is the label weight
(+1 / 0 / -1) times the score, a signed value in [-1, 1].
"""

from __future__ import annotations

import csv
import json
import re
from datetime import datetime
from enum import Enum
from functools import cached_property, lru_cache, partial
from math import copysign
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Optional, TextIO

from .corpus import _SOURCE_OF, Document, Source, _parse_timestamp, corpus_tail, line_head
from .errors import InvariantError, SchemaError
from .util import Record, header_error, open_text, read_text

VerdictKey = tuple[str, str]  # (source, id)

_URL_RE = re.compile(r"(?:https?://|www\.)\S+")
_MENTION_RE = re.compile(r"@\w+")
_TOKEN_RE = re.compile(r"[a-z0-9]+(?:'[a-z]+)*")
# tokenize's byte table: a token byte maps to itself, any other byte to a space.
_SEPARATE = bytes(b if b in b"abcdefghijklmnopqrstuvwxyz0123456789'" else 0x20 for b in range(256))

# A negator flips the polarity of a lexicon hit it precedes by at most
# this many tokens.
NEGATION_WINDOW = 3


class SentimentLabel(Enum):
    POSITIVE = "positive"
    NEUTRAL = "neutral"
    NEGATIVE = "negative"


# Keyed by label value: a str hashes in C, an Enum member in Python.
_WEIGHTS = {"positive": 1, "neutral": 0, "negative": -1}


class _VerdictFields(NamedTuple):
    label: SentimentLabel
    score: float


class SentimentVerdict(Record, _VerdictFields):
    """Label plus a confidence/intensity score in [0, 1], an immutable tuple
    that keeps no other state: ``score_corpus`` builds the text of its
    scored-line fields once per (label, score) pair in a bounded cache."""

    __slots__ = ()

    def __new__(cls, label: SentimentLabel, score: float) -> "SentimentVerdict":
        if not 0.0 <= score <= 1.0:
            raise InvariantError(f"sentiment score {score} outside [0, 1]")
        return tuple.__new__(cls, (label, score))

    @property
    def composite(self) -> float:
        """Signed composite polarity in [-1, 1]: label weight times score."""
        return _WEIGHTS[self.label._value_] * self.score


class _LexiconFields(NamedTuple):
    positive_terms: frozenset[str]
    negative_terms: frozenset[str]
    negators: frozenset[str]


class Lexicon(Record, _LexiconFields):
    """Polarity word lists: positive terms, negative terms, and negators,
    each term a whole token as ``tokenize`` gives it; no ``__slots__``, as
    ``polarity`` is cached in the instance ``__dict__``."""

    def __new__(cls, positive_terms: frozenset[str], negative_terms: frozenset[str],
                negators: frozenset[str]) -> "Lexicon":
        self = tuple.__new__(cls, (positive_terms, negative_terms, negators))
        overlap = positive_terms & negative_terms
        if overlap:
            sample = ", ".join(sorted(overlap)[:5])
            raise InvariantError(f"terms listed as both positive and negative: {sample}")
        # A term that is not a whole token, such as one behind a byte-order mark, could never score.
        for name, terms in zip(self._fields, self):
            for term in terms:
                if not _TOKEN_RE.fullmatch(term):
                    raise InvariantError(f"bad lexicon entry in {name}: {term!r}")
        return self

    @cached_property
    def polarity(self) -> dict[str, int]:
        """Every term the scorer reacts to: +1 positive, -1 negative, and 0
        for a negator that is neither."""
        return {
            **dict.fromkeys(self.negators, 0),
            **dict.fromkeys(self.positive_terms, 1),
            **dict.fromkeys(self.negative_terms, -1),
        }


def _parse_terms(text: str) -> frozenset[str]:
    terms = set()
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        terms.add(line.lower())
    return frozenset(terms)


def load_lexicon(directory: Path) -> Lexicon:
    """Load a lexicon from positive.txt, negative.txt and negators.txt.

    One term per line, lowercased; '#' lines are comments. A term that is
    not a whole token, such as a first line behind a byte-order mark, is an
    InvariantError.
    """
    directory = Path(directory)
    parts = []
    for name in ("positive.txt", "negative.txt", "negators.txt"):
        path = directory / name
        if not path.exists():
            raise SchemaError(f"lexicon file missing: {path}")
        parts.append(_parse_terms(read_text(path)))
    return Lexicon(*parts)


def default_lexicon() -> Lexicon:
    """The finance-oriented word lists shipped with the package."""
    return load_lexicon(Path(__file__).parent / "data" / "lexicon")


def tokenize(text: str) -> list[str]:
    """Lowercase word tokens with URLs, @-mentions and punctuation removed.

    A token is a run of ASCII letters and digits, followed by any
    ``'<letters>`` parts (``don't``); '’' reads as "'". Every other
    character separates tokens, a non-ASCII one too: ``café`` gives
    ``caf``. '#' is stripped from hashtags so the tag body still scores.
    """
    cleaned = text.lower().replace("’", "'")
    cleaned = _URL_RE.sub(" ", cleaned)
    cleaned = _MENTION_RE.sub(" ", cleaned)
    # One C pass: '#' goes, token characters stay, and every other byte, each
    # byte of a non-ASCII character (a lone surrogate too) included, is a space.
    spaced = cleaned.encode("utf-8", "surrogatepass").translate(_SEPARATE, b"#").decode("ascii")
    return _TOKEN_RE.findall(spaced) if "'" in spaced else spaced.split()


def score_tokens(tokens: list[str], lexicon: Lexicon) -> SentimentVerdict:
    """Dictionary verdict over a token list.

    Counts positive and negative lexicon hits, flipping a hit's polarity
    when a negator occurs within the NEGATION_WINDOW tokens before it.
    Score is |p - n| / (p + n); no hits or a tie is Neutral with score 0.
    Repeated words count once per occurrence.
    """
    polarity_of = lexicon.polarity.get
    negators = lexicon.negators
    positives = negatives = 0
    last_negator = -NEGATION_WINDOW - 1
    for i, token in enumerate(tokens):
        polarity = polarity_of(token)
        if polarity is None:
            continue
        if polarity:
            if i - last_negator <= NEGATION_WINDOW:
                polarity = -polarity
            if polarity > 0:
                positives += 1
            else:
                negatives += 1
            if token not in negators:
                continue
        # Set after the hit is counted, so a negator never flips itself.
        last_negator = i
    return _verdict(positives, negatives)


@lru_cache(maxsize=1024)
def _verdict(positives: int, negatives: int) -> SentimentVerdict:
    """Verdict for p positive and n negative hits, built once per (p, n)."""
    total = positives + negatives
    if total == 0 or positives == negatives:
        return SentimentVerdict(SentimentLabel.NEUTRAL, 0.0)
    label = SentimentLabel.POSITIVE if positives > negatives else SentimentLabel.NEGATIVE
    return SentimentVerdict(label, abs(positives - negatives) / total)


def scoring_text(doc: Document) -> str:
    """What gets scored: news scores on its headline, tweets on full text."""
    if doc.source is Source.NEWS and doc.title:
        return doc.title
    return doc.text


class ScoredDocument(NamedTuple):
    """One line of ``scored.jsonl``: a document's key, UTC timestamp and
    ticker with its verdict, as an immutable tuple.

    It holds everything ``report`` needs of a document, so the scored file
    reads back on its own; the composite is ``verdict.composite``.
    """

    id: str
    source: Source
    timestamp: datetime
    ticker: str
    verdict: SentimentVerdict

    key = Document.key


class ExternalVerdicts:
    """Imported verdicts, looked up by (source, id) key with ``get`` and ``in``.

    It holds one dict of ids per source value, in ``Source`` order, so no
    key tuple is kept per row. ``get`` and ``in`` answer a key of an unknown
    source with None and False, as a dict does; ``len`` counts the verdicts.
    """

    __slots__ = ("_ids_of",)

    def __init__(self, ids_of: dict[str, dict[str, SentimentVerdict]]) -> None:
        self._ids_of = ids_of

    def get(self, key: VerdictKey, default: Optional[SentimentVerdict] = None) -> Optional[SentimentVerdict]:
        ids = self._ids_of.get(key[0])
        return default if ids is None else ids.get(key[1], default)

    def __contains__(self, key: VerdictKey) -> bool:
        return key[1] in self._ids_of.get(key[0], ())

    def __len__(self) -> int:
        return sum(map(len, self._ids_of.values()))


_EXTERNAL_HEADER = ["id", "source", "label", "score"]
_LABELS = {label.value: label for label in SentimentLabel}
# score_corpus and read_scored each reuse the work of at most this many
# verdicts in a call: lexicon scores take few distinct values (55 on 42,500
# lines), external scores are mostly distinct.
_VERDICT_CACHE_SIZE = 256


def import_external_verdicts(path: Path) -> ExternalVerdicts:
    """Load externally produced verdicts (e.g. transformer output) from CSV.

    Expected header: ``id,source,label,score``. Labels are normalized
    case-insensitively; scores must lie in [0, 1]; ids must be non-empty;
    duplicate (source, id) keys are rejected rather than silently resolved.
    Each row's first failing check is a SchemaError naming ``<path>:<line>``.
    """
    # Source value -> id -> verdict; every key's source is its member's own value string.
    ids_of: dict[str, dict[str, SentimentVerdict]] = {source._value_: {} for source in Source}
    with open_text(path, newline="") as handle:
        reader = csv.reader(handle)
        # Errors name the row by reader.line_num: its last line in the file, blank lines counted.
        try:
            header = next(reader, [])
            if header != _EXTERNAL_HEADER:
                raise header_error(path, _EXTERNAL_HEADER, header)
            for row in reader:
                if len(row) != 4:
                    if not row:  # a blank line
                        continue
                    # A short row's missing cells read as None; cells after the fourth are ignored.
                    row = (row + [None] * 3)[:4]
                doc_id, source_raw, label_raw, score_raw = row
                try:
                    label = _LABELS.get((label_raw or "").strip().lower())
                    if label is None:
                        raise SchemaError(f"unknown label {label_raw!r}")
                    try:
                        score = float(score_raw)
                    except (TypeError, ValueError):
                        raise SchemaError(f"bad score {score_raw!r}") from None
                    verdict = SentimentVerdict(label, score)
                    source = _SOURCE_OF.get((source_raw or "").strip().lower())
                    if source is None:
                        raise SchemaError(f"unknown source {source_raw!r}")
                    if not doc_id:  # no document has an empty id
                        raise SchemaError("id must be non-empty")
                    ids = ids_of[source._value_]
                    if doc_id in ids:
                        raise SchemaError(f"duplicate verdict for {(source._value_, doc_id)}")
                except (SchemaError, InvariantError) as exc:
                    raise SchemaError(f"{path}:{reader.line_num}: {exc}") from exc
                ids[doc_id] = verdict
        except csv.Error as exc:
            raise SchemaError(f"{path}:{reader.line_num}: {exc}") from exc
    return ExternalVerdicts(ids_of)


def score_corpus(
    docs: Iterable[Document],
    lexicon: Lexicon,
    external: ExternalVerdicts | dict[VerdictKey, SentimentVerdict] | None,
    corpus: TextIO,
    scored_file: TextIO,
) -> list[ScoredDocument]:
    """Score every document and write its corpus line to ``corpus`` and its
    scored line to ``scored_file``, in one pass in input order; return the
    scored records in that order.

    An external verdict wins when ``external.get`` finds one for the
    document's (source, id) key; the lexicon scores everything else. Both lines open with the same
    id, source, timestamp and ticker text, formatted once. The caller owns
    the two open files: ``run`` writes each ticker's block through one
    ``atomic_open`` pair, so neither file is replaced unless every ticker's
    lines were written.
    """
    # An empty or absent map costs no key per document.
    external = external or None
    scored = []
    # (label, score) -> the verdict's scored-line fields, for at most _VERDICT_CACHE_SIZE
    # pairs; it is freed with the pass, so no verdict keeps state of its own.
    texts: dict[tuple[str, float], str] = {}
    to_corpus, to_scored = corpus.write, scored_file.write
    for doc in docs:
        verdict = external and external.get(doc.key)
        if verdict is None:
            verdict = score_tokens(tokenize(scoring_text(doc)), lexicon)
        label, score = verdict.label._value_, verdict.score
        # -0.0 equals 0.0 as a key, so it is never looked up and keeps its sign.
        cacheable = score or copysign(1.0, score) > 0
        fields = texts.get((label, score)) if cacheable else None
        if fields is None:
            # Label values need no JSON escaping; a finite float's repr is its JSON text.
            fields = f'"label": "{label}", "score": {score!r}, "composite": {verdict.composite!r}'
            if cacheable and len(texts) < _VERDICT_CACHE_SIZE:
                texts[label, score] = fields
        head = line_head(doc)
        to_corpus(f"{head}{corpus_tail(doc)}\n")
        to_scored(f"{head}, {fields}}}\n")
        scored.append(ScoredDocument(doc.id, doc.source, doc.timestamp, doc.ticker, verdict))
    return scored


# ScoredDocument(*fields) without the Python frame of a NamedTuple's __new__.
_scored_document = partial(tuple.__new__, ScoredDocument)
# The one line form score_corpus writes, with each field's text in a group: a
# string with nothing JSON would escape, the id also with the escapes json_str
# writes, and a number with a fraction or an exponent, which float() reads as
# json.loads does. The label and score together are one more group, the line's
# key in read_scored's verdict cache. The id group is unrolled, plain runs between
# escapes: one alternation per character made read_scored 22% slower on 42,500 lines.
# Compiled on the first read_scored call, not at import: compiling takes most of a millisecond.
_STRING = r'"([^"\\\x00-\x1f]*)"'
_ID = r'"([^"\\\x00-\x1f]*(?:\\(?:["\\bfnrt]|u00(?:0[0-7bef]|1[0-9a-f]))[^"\\\x00-\x1f]*)*)"'
_FLOAT = r"(-?(?:0|[1-9][0-9]*)(?:\.[0-9]+(?:[eE][-+]?[0-9]+)?|[eE][-+]?[0-9]+))"
_WRITTEN_LINE = (
    rf'\{{"id": {_ID}, "source": {_STRING}, "timestamp": {_STRING}, "ticker": {_STRING}, '
    rf'"label": ({_STRING}, "score": {_FLOAT}), "composite": {_FLOAT}\}}\n?'
)


def read_scored(path: Path) -> Iterator[ScoredDocument]:
    """Yield a scored file's records, one per line, in file order.

    A line must be in the exact form ``score_corpus`` writes; it is matched
    field by field in one compiled pass. Its checks run in a fixed order,
    and the first that fails is a SchemaError naming ``<path>:<line>``:
    the form, the source, a non-empty id, the timestamp, the key, then the
    label, score and composite. Each document is scored once per ticker: a
    repeated (ticker, source, id) key is rejected, and a key filed under two
    tickers is read under each. The timestamp follows the corpus rule and is
    converted to UTC.
    """
    # ticker -> source value -> ids, one set per (ticker, source): no key tuple is kept per
    # line. A str key hashes in C, a Source member in Python.
    seen: dict[str, dict[str, set[str]]] = {}
    # A line's label and score text -> (verdict, composite), each built and checked once;
    # verdicts are immutable.
    verdicts: dict[str, tuple[SentimentVerdict, float]] = {}
    # re keeps the compiled pattern, so a later call does not compile it again.
    written = re.compile(_WRITTEN_LINE).fullmatch
    # Lines end at \n, \r or \r\n only, never at U+2028 or U+0085, which may stand raw
    # inside a JSON string; a line that str.isspace finds blank is skipped but counted.
    with open_text(path) as handle:
        for lineno, line in enumerate(handle, start=1):
            match = written(line)
            if match is None:
                if line.isspace():
                    continue
                raise SchemaError(f"{path}:{lineno}: not a line in the form 'run' writes")
            doc_id, source_value, raw_timestamp, ticker, key, label, score, stated = match.groups()
            if "\\" in doc_id:
                doc_id = json.loads(f'"{doc_id}"')
            try:
                source = _SOURCE_OF.get(source_value)
                if source is None:
                    raise SchemaError(f"unknown source {source_value!r}")
                if not doc_id:
                    raise SchemaError("field 'id' must be non-empty")
                timestamp = _parse_timestamp(raw_timestamp, doc_id)
                ids_of = seen.get(ticker)
                if ids_of is None:
                    ids_of = seen[ticker] = {value: set() for value in _SOURCE_OF}
                ids = ids_of[source_value]
                if doc_id in ids:
                    raise SchemaError(f"duplicate scored line for {(ticker, source_value, doc_id)}")
                ids.add(doc_id)
                hit = verdicts.get(key)
                if hit is None:
                    # SentimentLabel(label) runs only to word the error for a label that is no label value.
                    verdict = SentimentVerdict(_LABELS.get(label) or SentimentLabel(label), float(score))
                    hit = verdict, verdict.composite
                    if len(verdicts) < _VERDICT_CACHE_SIZE:
                        verdicts[key] = hit
                if float(stated) != hit[1]:
                    raise SchemaError("composite inconsistent with verdict")
            # ValueError is SentimentLabel's, for a label that is no label value.
            except (SchemaError, InvariantError, ValueError) as exc:
                raise SchemaError(f"{path}:{lineno}: {exc}") from exc
            yield _scored_document((doc_id, source, timestamp, ticker, hit[0]))
