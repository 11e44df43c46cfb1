"""Golden outputs: ``run``, ``report`` after ``run`` and ``run --config run_config.json``
write tests/golden byte for byte."""

from __future__ import annotations

import hashlib
import itertools
import json
from datetime import datetime
from pathlib import Path

import pytest

from conftest import GOLDEN_DIR, GOLDEN_TICKERS, REPO_ROOT, run_cli, run_golden_pipeline

GOLDEN_FILES = sorted(p.relative_to(GOLDEN_DIR) for p in GOLDEN_DIR.rglob("*") if p.is_file())


def test_golden_set_has_twelve_files():
    assert len(GOLDEN_FILES) == 12


def assert_matches_golden(out_dir: Path) -> None:
    for rel in GOLDEN_FILES:
        assert (out_dir / rel).read_bytes() == (GOLDEN_DIR / rel).read_bytes(), str(rel)


def test_run_reproduces_golden(tmp_path):
    assert run_golden_pipeline(tmp_path) == 0
    assert_matches_golden(tmp_path)


def test_report_rerun_rewrites_same_bytes(tmp_path):
    assert run_golden_pipeline(tmp_path) == 0
    flags = ["--out", str(tmp_path), "--window", "2022-07-20:2022-07-29", "--tickers", GOLDEN_TICKERS]
    assert run_cli(["report", *flags]) == 0
    assert_matches_golden(tmp_path)


def test_run_config_json_reproduces_golden(tmp_path, monkeypatch):
    # From another working directory, so "fixtures" must resolve against the config file.
    monkeypatch.chdir(tmp_path)
    assert run_cli(["run", "--config", str(REPO_ROOT / "run_config.json"), "--out", str(tmp_path / "out")]) == 0
    assert_matches_golden(tmp_path / "out")


# The sha256 of each JSON-lines golden's lines, sorted: pinned apart from their order, which
# changed from one (timestamp, id) order over all tickers to one block per ticker.
SORTED_LINES_SHA256 = {
    "scored.jsonl": "d7e4345b6e5aaea32bddcb84b4ff3b1bf54799417c788934fa633b6a84a73903",
    "corpus.jsonl": "50eec66ebf468b22e9501a86b3854e40799ef54c11016c094af184feefa446e0",
}


@pytest.mark.parametrize("name", sorted(SORTED_LINES_SHA256))
def test_json_lines_golden_holds_its_lines_in_one_block_per_ticker(name):
    lines = (GOLDEN_DIR / name).read_bytes().splitlines(keepends=True)
    assert hashlib.sha256(b"".join(sorted(lines))).hexdigest() == SORTED_LINES_SHA256[name]
    records = [json.loads(line) for line in lines]
    blocks = [(ticker, list(block)) for ticker, block in itertools.groupby(records, key=lambda r: r["ticker"])]
    assert [ticker for ticker, _ in blocks] == GOLDEN_TICKERS.split(",")
    for _, block in blocks:
        order = [(datetime.fromisoformat(r["timestamp"].replace("Z", "+00:00")), r["id"]) for r in block]
        assert order == sorted(order)
