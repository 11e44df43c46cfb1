"""Golden outputs: ``run``, ``report`` after ``run`` and ``run --config run_config.json``
write tests/golden byte for byte."""

from __future__ import annotations

from pathlib import Path

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
