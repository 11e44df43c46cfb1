"""The five-pass regex tokenizer that ``sentiment.tokenize`` must match, kept as its reference.

Imported by the tier-1 differential test. Run as a script, it compares
``tokenize`` with the reference on every code point in two contexts, under
the running Python's Unicode tables, and exits 1 at the first difference:

    PYTHONPATH=src python tests/tokenize_reference.py
"""

from __future__ import annotations

import re
import sys

_URL_RE = re.compile(r"(?:https?://|www\.)\S+")
_MENTION_RE = re.compile(r"@\w+")
_TOKEN_RE = re.compile(r"[a-z0-9]+(?:'[a-z]+)*")

# Each code point goes between token characters in a text without an
# apostrophe, and around one, after '@', '#' and a URL start, and before a
# '’' contraction in a text with one.
CONTEXTS = ("a{c}b {c}9{c}", "@{c}x #{c}y www.{c}z {c}’t x'{c}s")


def reference_tokenize(text: str) -> list[str]:
    cleaned = text.lower().replace("’", "'")
    cleaned = _URL_RE.sub(" ", cleaned)
    cleaned = _MENTION_RE.sub(" ", cleaned)
    cleaned = cleaned.replace("#", "")
    return _TOKEN_RE.findall(cleaned)


def main() -> int:
    from esgsent.sentiment import tokenize

    for code in range(sys.maxunicode + 1):
        for context in CONTEXTS:
            text = context.format(c=chr(code))
            expected, got = reference_tokenize(text), tokenize(text)
            if got != expected:
                print(f"U+{code:04X} in {context!r}: tokenize {got} != reference {expected}")
                return 1
    print(f"tokenize matches the reference on {sys.maxunicode + 1} code points "
          f"in {len(CONTEXTS)} contexts (Python {sys.version.split()[0]})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
