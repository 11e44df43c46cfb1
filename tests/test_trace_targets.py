"""bench/traced.py on the golden fixtures: what it counts, and the names it cannot find are the ones CI allows."""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

from conftest import FIXTURES_DIR, GOLDEN_TICKERS, REPO_ROOT


@pytest.fixture(scope="module")
def traced_run(tmp_path_factory) -> dict:
    """The spans file of one traced golden run."""
    tmp = tmp_path_factory.mktemp("traced")
    config = tmp / "config.json"
    config.write_text(json.dumps({
        "tickers": GOLDEN_TICKERS.split(","), "window": "2022-07-20:2022-07-29",
        "fixtures": str(FIXTURES_DIR), "out": str(tmp / "out"),
    }), encoding="utf-8")
    spans = tmp / "spans.json"
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
    subprocess.run([sys.executable, str(REPO_ROOT / "bench" / "traced.py"), "--config", str(config),
                    "--spans", str(spans)], env=env, cwd=tmp, check=True, capture_output=True)
    return json.loads(spans.read_text(encoding="utf-8"))


def test_traced_counts_of_the_golden_run(traced_run):
    counters = traced_run["counters"]
    expected = {"payloads": 35, "docs_fetched": 34, "dup_dropped": 1, "docs_scored": 33, "neutral": 5,
                "docs_scanned": 30}
    assert {name: counters.get(name) for name in expected} == expected


def test_unfound_trace_targets_are_the_line_ci_allows(traced_run):
    workflow = (REPO_ROOT / ".github" / "workflows" / "tier1.yml").read_text(encoding="utf-8")
    (allowed,) = re.findall(r"grep -vxF '  not traced \(name not found\): ([^']*)'", workflow)
    assert ", ".join(traced_run["unpatched"]) == allowed
