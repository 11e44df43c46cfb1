"""Fixed pure-Python work that measures how fast the machine runs right now.

``run.py`` times this program next to each round of program calls and
scales the round's timings by how much slower than ``CAL_REF_S`` it ran,
so that a slow phase of a shared machine does not read as a slower
program. The work resembles the pipeline's mix (JSON decode and encode,
regex tokenizing, frozen dataclasses, set building, float formatting)
and uses nothing from ``esgsent``, so a change to the program never
changes it.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

ROUNDS = 12_000
TOKEN = re.compile(r"[a-z0-9]+(?:'[a-z]+)*")


@dataclass(frozen=True)
class Record:
    id: str
    text: str
    followers: int


def main() -> int:
    words = [f"w{i % 97}x" for i in range(40)]
    line = json.dumps({"id": "tw-0001", "source": "tweet", "text": " ".join(words), "followers": 123})
    total = 0
    for i in range(ROUNDS):
        obj = json.loads(line)
        record = Record(obj["id"] + str(i), obj["text"], obj["followers"])
        tokens = TOKEN.findall(record.text.lower())
        kept = {t for t in tokens if t.endswith("x")}
        total += len(kept) + len(json.dumps({"id": record.id, "score": i / 7.0, "n": record.followers}))
        total += len(f"{i / 3.0:.6f}")
    return 0 if total > 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
