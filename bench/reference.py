"""Reference sentiment rule, written apart from ``esgsent.sentiment``.

The benchmark checks the program's verdicts against this code, so it
shares nothing with the program: it reads the shipped word lists itself,
tokenizes with a character scanner instead of regular expressions, and
applies negation by remembering the last negator's position instead of
slicing a window. The rule is the paper's dictionary rule: count
positive and negative hits, flip a hit preceded by a negator within
three tokens, score |p - n| / (p + n), and call a tie or no hit Neutral
with score 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

NEGATION_WINDOW = 3
URL_PREFIXES = ("https://", "http://", "www.")
WEIGHTS = {"positive": 1, "neutral": 0, "negative": -1}


@dataclass(frozen=True)
class WordLists:
    positive: frozenset[str]
    negative: frozenset[str]
    negators: frozenset[str]


def _read_terms(path: Path) -> frozenset[str]:
    terms = set()
    for line in path.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            terms.add(line.lower())
    return frozenset(terms)


def load_word_lists(root: Path) -> WordLists:
    """The lexicon shipped in the source tree under ``root``."""
    lexicon_dir = root / "src" / "esgsent" / "data" / "lexicon"
    return WordLists(
        _read_terms(lexicon_dir / "positive.txt"),
        _read_terms(lexicon_dir / "negative.txt"),
        _read_terms(lexicon_dir / "negators.txt"),
    )


def _is_word_char(c: str) -> bool:
    return c.isalnum() or c == "_"


def _is_token_char(c: str) -> bool:
    return ("a" <= c <= "z") or ("0" <= c <= "9")


def _drop_urls(text: str) -> str:
    out = []
    i, n = 0, len(text)
    while i < n:
        prefix = next((p for p in URL_PREFIXES if text.startswith(p, i)), None)
        end = i + len(prefix) if prefix else i
        if prefix and end < n and not text[end].isspace():
            while end < n and not text[end].isspace():
                end += 1
            out.append(" ")
            i = end
        else:
            out.append(text[i])
            i += 1
    return "".join(out)


def _drop_mentions(text: str) -> str:
    out = []
    i, n = 0, len(text)
    while i < n:
        if text[i] == "@" and i + 1 < n and _is_word_char(text[i + 1]):
            i += 1
            while i < n and _is_word_char(text[i]):
                i += 1
            out.append(" ")
        else:
            out.append(text[i])
            i += 1
    return "".join(out)


def reference_tokens(text: str) -> list[str]:
    """Lowercase word tokens with URLs, @-mentions, '#' and punctuation removed.

    A token is a run of ASCII letters and digits, optionally followed by
    apostrophe-joined letter runs, as in "don't".
    """
    text = _drop_mentions(_drop_urls(text.lower().replace("’", "'"))).replace("#", "")
    tokens = []
    i, n = 0, len(text)
    while i < n:
        if not _is_token_char(text[i]):
            i += 1
            continue
        start = i
        while i < n and _is_token_char(text[i]):
            i += 1
        while i + 1 < n and text[i] == "'" and "a" <= text[i + 1] <= "z":
            i += 1
            while i < n and "a" <= text[i] <= "z":
                i += 1
        tokens.append(text[start:i])
    return tokens


def reference_verdict(tokens: list[str], words: WordLists) -> tuple[str, float]:
    """(label, score) of a token list under the paper's dictionary rule."""
    positives = negatives = 0
    last_negator = -NEGATION_WINDOW - 1
    for i, token in enumerate(tokens):
        if token in words.positive or token in words.negative:
            polarity = 1 if token in words.positive else -1
            if i - last_negator <= NEGATION_WINDOW:
                polarity = -polarity
            if polarity > 0:
                positives += 1
            else:
                negatives += 1
        if token in words.negators:
            last_negator = i
    if positives == negatives:
        return "neutral", 0.0
    label = "positive" if positives > negatives else "negative"
    return label, abs(positives - negatives) / (positives + negatives)


def composite(label: str, score: float) -> float:
    return WEIGHTS[label] * score
