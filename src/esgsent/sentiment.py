"""Lexicon sentiment scoring and composite polarity scores.

A document gets a (label, score) verdict either from the shipped
financial polarity lexicon or from an imported file of externally
produced transformer verdicts. The composite score is the label weight
(+1 / 0 / -1) times the score, a signed value in [-1, 1].
"""

from __future__ import annotations

import csv
import re
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache
from pathlib import Path
from typing import Iterable, Mapping, Optional

from .corpus import Document, Source
from .errors import InvariantError, SchemaError
from .util import atomic_write_text, json_lines, json_value, open_text, read_text

VerdictKey = tuple[str, str]  # (source, id)

_URL_RE = re.compile(r"(?:https?://|www\.)\S+")
_MENTION_RE = re.compile(r"@\w+")
_TOKEN_RE = re.compile(r"[a-z0-9]+(?:'[a-z]+)*")

# A negator flips the polarity of a lexicon hit it precedes by at most
# this many tokens.
NEGATION_WINDOW = 3


class SentimentLabel(Enum):
    POSITIVE = "positive"
    NEUTRAL = "neutral"
    NEGATIVE = "negative"


_WEIGHTS = {
    SentimentLabel.POSITIVE: 1,
    SentimentLabel.NEUTRAL: 0,
    SentimentLabel.NEGATIVE: -1,
}


@dataclass(frozen=True)
class SentimentVerdict:
    """Label plus a confidence/intensity score in [0, 1]."""

    label: SentimentLabel
    score: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.score <= 1.0:
            raise InvariantError(f"sentiment score {self.score} outside [0, 1]")

    @property
    def composite(self) -> float:
        """Signed composite polarity in [-1, 1]: label weight times score."""
        return _WEIGHTS[self.label] * self.score


@dataclass(frozen=True)
class Lexicon:
    """Polarity word lists: positive terms, negative terms, and negators."""

    positive_terms: frozenset[str]
    negative_terms: frozenset[str]
    negators: frozenset[str]

    def __post_init__(self) -> None:
        overlap = self.positive_terms & self.negative_terms
        if overlap:
            sample = ", ".join(sorted(overlap)[:5])
            raise InvariantError(f"terms listed as both positive and negative: {sample}")
        for name in ("positive_terms", "negative_terms", "negators"):
            for term in getattr(self, name):
                if not term or term != term.lower() or any(c.isspace() for c in term):
                    raise InvariantError(f"bad lexicon entry in {name}: {term!r}")

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

    One lowercase term per line; '#' lines are comments.
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

    '#' is stripped from hashtags so the tag body still scores.
    """
    cleaned = text.lower().replace("’", "'")
    cleaned = _URL_RE.sub(" ", cleaned)
    cleaned = _MENTION_RE.sub(" ", cleaned)
    cleaned = cleaned.replace("#", "")
    return _TOKEN_RE.findall(cleaned)


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


def score_document(doc: Document, lexicon: Lexicon) -> SentimentVerdict:
    return score_tokens(tokenize(scoring_text(doc)), lexicon)


@dataclass(frozen=True)
class ScoredDocument:
    """A document with its verdict; the composite is ``verdict.composite``."""

    document: Document
    verdict: SentimentVerdict

    @property
    def key(self) -> VerdictKey:
        return self.document.key


_EXTERNAL_HEADER = ["id", "source", "label", "score"]
_LABELS = {label.value: label for label in SentimentLabel}
_SOURCES = frozenset(source.value for source in Source)


def import_external_verdicts(path: Path) -> dict[VerdictKey, SentimentVerdict]:
    """Load externally produced verdicts (e.g. transformer output) from CSV.

    Expected header: ``id,source,label,score``. Labels are normalized
    case-insensitively; scores must lie in [0, 1]; duplicate (source, id)
    keys are rejected rather than silently resolved.
    """
    verdicts: dict[VerdictKey, SentimentVerdict] = {}
    with open_text(path, newline="") as handle:
        reader = csv.DictReader(handle)
        # Errors name the row by reader.line_num: its last line in the file, blank lines counted.
        try:
            if reader.fieldnames != _EXTERNAL_HEADER:
                raise SchemaError(
                    f"{path}: expected header {','.join(_EXTERNAL_HEADER)}, "
                    f"got {','.join(reader.fieldnames or [])}"
                )
            for row in reader:
                label = _LABELS.get((row["label"] or "").strip().lower())
                if label is None:
                    raise SchemaError(f"{path}:{reader.line_num}: unknown label {row['label']!r}")
                try:
                    verdict = SentimentVerdict(label, float(row["score"]))
                except (TypeError, ValueError):
                    raise SchemaError(f"{path}:{reader.line_num}: bad score {row['score']!r}") from None
                except InvariantError as exc:
                    raise SchemaError(f"{path}:{reader.line_num}: {exc}") from exc
                source_raw = (row["source"] or "").strip().lower()
                if source_raw not in _SOURCES:
                    raise SchemaError(f"{path}:{reader.line_num}: unknown source {row['source']!r}")
                key = (source_raw, row["id"])
                if key in verdicts:
                    raise SchemaError(f"{path}:{reader.line_num}: duplicate verdict for {key}")
                verdicts[key] = verdict
        except csv.Error as exc:
            # DictReader.line_num moves only once a row is read; its csv.reader's has counted this one.
            raise SchemaError(f"{path}:{reader.reader.line_num}: {exc}") from exc
    return verdicts


def score_corpus(
    docs: Iterable[Document],
    lexicon: Lexicon,
    external: Optional[Mapping[VerdictKey, SentimentVerdict]] = None,
) -> list[ScoredDocument]:
    """Score every document, preserving input order.

    An external verdict wins when one exists for the document's key;
    the lexicon scores everything else.
    """
    external = external or {}
    scored = []
    for doc in docs:
        verdict = external.get(doc.key)
        if verdict is None:
            verdict = score_document(doc, lexicon)
        scored.append(ScoredDocument(doc, verdict))
    return scored


def serialize_scored(sd: ScoredDocument) -> str:
    """One scored line: document key, label, score, composite."""
    # Source and label values need no JSON escaping.
    return (
        f'{{"id": {json_value(sd.document.id)}, "source": "{sd.document.source.value}", '
        f'"label": "{sd.verdict.label.value}", "score": {json_value(sd.verdict.score)}, '
        f'"composite": {json_value(sd.verdict.composite)}}}'
    )


def write_scored(scored: Iterable[ScoredDocument], path: Path) -> None:
    atomic_write_text(path, "".join(serialize_scored(sd) + "\n" for sd in scored))


def read_scored(path: Path, documents: Iterable[Document]) -> list[ScoredDocument]:
    """Load a scored file back, re-attaching documents by (source, id) key.

    Each document is scored once: a repeated (source, id) key is rejected.
    """
    by_key = {doc.key: doc for doc in documents}
    seen: set[VerdictKey] = set()
    scored = []
    for lineno, obj in json_lines(path):
        if not isinstance(obj, dict):
            raise SchemaError(f"{path}:{lineno}: scored line must be an object, got {type(obj).__name__}")
        for field_name in ("id", "source", "label", "score", "composite"):
            if field_name not in obj:
                raise SchemaError(f"{path}:{lineno}: missing field {field_name!r}")
        for field_name in ("id", "source"):
            if not isinstance(obj[field_name], str):
                raise SchemaError(f"{path}:{lineno}: field {field_name!r} must be a string")
        key = (obj["source"], obj["id"])
        doc = by_key.get(key)
        if doc is None:
            raise SchemaError(f"{path}:{lineno}: scored line has no corpus document {key}")
        if key in seen:
            raise SchemaError(f"{path}:{lineno}: duplicate scored line for {key}")
        seen.add(key)
        try:
            verdict = SentimentVerdict(SentimentLabel(obj["label"]), float(obj["score"]))
            stated = float(obj["composite"])
        except (TypeError, ValueError, InvariantError) as exc:
            raise SchemaError(f"{path}:{lineno}: {exc}") from exc
        if stated != verdict.composite:
            raise SchemaError(f"{path}:{lineno}: composite inconsistent with verdict")
        scored.append(ScoredDocument(doc, verdict))
    return scored
