"""Self-test of the benchmark's own code.

From the repository root: ``python3 bench/selftest.py``. It checks that

* the reference verdict rule gives hand-computed verdicts (the fixtures
  hold no negator) and, run on ``fixtures/``, reproduces
  ``tests/golden/scored.jsonl``;
* the generator gives the same bytes for the same seed, and the text it
  writes tokenizes (under the reference rule) to the verdicts it planted;
* per-layer call counts repeat exactly across two traced runs.

Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from check import digest_tree
from generate import WORKLOADS, generate
from reference import composite, load_word_lists, reference_tokens, reference_verdict
from run import ROOT, WORK_ROOT, span_calls

SAMPLE_DOCS = 2_000


def scoring_text(payload: dict) -> str:
    if payload["source"] == "news" and payload.get("title"):
        return payload["title"]
    return payload["text"]


# (tokens, verdict) worked by hand from the rule: a negator flips a hit up
# to three tokens after it; score |p - n| / (p + n).
HAND_CASES = [
    (["strong"], ("positive", 1.0)),
    (["not", "strong"], ("negative", 1.0)),
    (["not", "x", "y", "strong"], ("negative", 1.0)),
    (["not", "x", "y", "z", "strong"], ("positive", 1.0)),
    (["strong", "weak"], ("neutral", 0.0)),
    (["strong", "strong", "weak"], ("positive", 1 / 3)),
]
HAND_TEXT = "Don't miss @bob's https://x.co/a #Strong, news!"
HAND_TEXT_TOKENS = ["don't", "miss", "s", "strong", "news"]


def check_reference_cases(words) -> list[str]:
    errors = [
        f"reference: {tokens} gives {reference_verdict(tokens, words)}, expected {want}"
        for tokens, want in HAND_CASES
        if reference_verdict(tokens, words) != want
    ]
    if reference_tokens(HAND_TEXT) != HAND_TEXT_TOKENS:
        errors.append(f"reference: {HAND_TEXT!r} tokenizes to {reference_tokens(HAND_TEXT)}")
    return errors


def check_reference_on_fixtures(words) -> list[str]:
    payloads = {}
    for path in sorted((ROOT / "fixtures").glob("*/*.jsonl")):
        for line in path.read_text(encoding="utf-8").splitlines():
            if line.strip():
                payload = json.loads(line)
                payloads[(payload["source"], payload["id"])] = payload
    errors = []
    lines = (ROOT / "tests" / "golden" / "scored.jsonl").read_text(encoding="utf-8").splitlines()
    for line in lines:
        golden = json.loads(line)
        text = scoring_text(payloads[(golden["source"], golden["id"])])
        label, score = reference_verdict(reference_tokens(text), words)
        if (label, score, composite(label, score)) != (golden["label"], golden["score"], golden["composite"]):
            errors.append(f"reference: {golden['id']} gives ({label}, {score}), golden {line}")
    return errors if lines else ["reference: golden scored.jsonl is empty"]


def check_generator(words, work: Path) -> list[str]:
    errors = []
    for name, workload in WORKLOADS.items():
        first, second = work / f"{name}-a", work / f"{name}-b"
        first.mkdir()
        second.mkdir()
        expected = generate(name, 7, first, words)
        generate(name, 7, second, words)
        if digest_tree(first) != digest_tree(second):
            errors.append(f"generator: {name} is not reproducible for one seed")
        if workload.external:
            continue
        checked = 0
        for path in sorted((first / "fixtures").glob("*/*.jsonl")):
            for line in path.read_text(encoding="utf-8").splitlines():
                payload = json.loads(line)
                key = (payload["source"], payload["id"])
                if key not in expected.verdicts or checked >= SAMPLE_DOCS:
                    continue
                checked += 1
                if reference_verdict(reference_tokens(scoring_text(payload)), words) != expected.verdicts[key]:
                    errors.append(f"generator: {name} {key} text does not carry its planted verdict")
    return errors


def check_traced_counts(words, work: Path) -> list[str]:
    workdir = work / "traced"
    workdir.mkdir()
    generate("wide-panel", 1, workdir, words)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    signatures = []
    for _ in range(2):
        shutil.rmtree(workdir / "out", ignore_errors=True)
        subprocess.run(
            [sys.executable, str(ROOT / "bench" / "traced.py"), "--config", "run_config.json",
             "--spans", "spans.json"],
            cwd=workdir, env=env, stdout=subprocess.DEVNULL, check=True, timeout=150,
        )
        trace = json.loads((workdir / "spans.json").read_text(encoding="utf-8"))
        signatures.append((span_calls(trace), trace["counters"]))
    return [] if signatures[0] == signatures[1] else ["traced: call counts differ between two runs"]


def main() -> int:
    words = load_word_lists(ROOT)
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORK_ROOT))
    errors = []
    try:
        errors += check_reference_cases(words)
        errors += check_reference_on_fixtures(words)
        errors += check_generator(words, work)
        errors += check_traced_counts(words, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass
    for error in errors:
        print(error)
    print("selftest: " + ("FAILED" if errors else "ok"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
