"""bench/traced.py on the golden fixtures: what it counts, and the names it cannot find are the ones CI allows."""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import FIXTURES_DIR, GOLDEN_DIR, GOLDEN_TICKERS, REPO_ROOT


def traced_golden_run(tmp: Path, **settings) -> tuple[dict, str]:
    """The spans file and the stdout of one traced golden run, with extra config settings."""
    config = tmp / "config.json"
    config.write_text(json.dumps({
        "tickers": GOLDEN_TICKERS.split(","), "window": "2022-07-20:2022-07-29",
        "fixtures": str(FIXTURES_DIR), "out": str(tmp / "out"), **settings,
    }), encoding="utf-8")
    spans = tmp / "spans.json"
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
    done = subprocess.run([sys.executable, str(REPO_ROOT / "bench" / "traced.py"), "--config", str(config),
                           "--spans", str(spans)], env=env, cwd=tmp, check=True, capture_output=True, text=True)
    return json.loads(spans.read_text(encoding="utf-8")), done.stdout


@pytest.fixture(scope="module")
def traced_run(tmp_path_factory) -> dict:
    """The spans file of one traced golden run."""
    return traced_golden_run(tmp_path_factory.mktemp("traced"))[0]


def test_traced_counts_of_the_golden_run(traced_run):
    counters = traced_run["counters"]
    expected = {"payloads": 35, "docs_fetched": 34, "dup_dropped": 1, "docs_scored": 33, "neutral": 5,
                "docs_scanned": 30}
    assert {name: counters.get(name) for name in expected} == expected


def test_unfound_trace_targets_are_the_line_ci_allows(traced_run):
    workflow = (REPO_ROOT / ".github" / "workflows" / "tier1.yml").read_text(encoding="utf-8")
    (allowed,) = re.findall(r"grep -vxF '  not traced \(name not found\): ([^']*)'", workflow)
    assert ", ".join(traced_run["unpatched"]) == allowed


def test_traced_external_count_is_the_one_run_prints(tmp_path):
    # The tracer counts the scored records whose key is `in` the verdict store that score_corpus gets.
    golden = [json.loads(line) for line in (GOLDEN_DIR / "scored.jsonl").read_text(encoding="utf-8").splitlines()]
    covered = golden[::3]
    rows = [f"{line['id']},{line['source']},neutral,0.5" for line in covered]
    rows += ["nw-none-0720a,news,positive,0.5", "tw-gs-0720a,news,positive,0.5"]  # keys no document has
    verdicts = tmp_path / "verdicts.csv"
    verdicts.write_text("id,source,label,score\n" + "\n".join(rows) + "\n", encoding="utf-8")
    spans, stdout = traced_golden_run(tmp_path, external_verdicts=str(verdicts))
    assert spans["counters"]["docs_scored"] == len(golden) == 33
    assert spans["counters"]["external"] == len(covered) == 11
    assert f"scored 33 documents (11 external) -> {tmp_path / 'out' / 'scored.jsonl'}" in stdout.splitlines()
