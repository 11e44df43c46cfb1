"""CLI behaviour: exit codes, flag edge values, the price window, and run vs chained subcommands."""

from __future__ import annotations

import csv
import json
import shutil
from pathlib import Path

import pytest

from conftest import FIXTURES_DIR, run_cli

STAGES = ("ingest", "score", "aggregate", "prices", "analyze", "report")
JULY = "2022-07-20:2022-07-29"


def copy_fixtures(tmp_path: Path, keys=("GS", "AMZN")) -> Path:
    dest = tmp_path / "fixtures"
    for key in keys:
        shutil.copytree(FIXTURES_DIR / key, dest / key)
    return dest


def price_lines(key: str) -> list[str]:
    return (FIXTURES_DIR / key / "prices.csv").read_text(encoding="utf-8").splitlines()


def write_price_lines(fixtures: Path, key: str, lines: list[str]) -> None:
    (fixtures / key / "prices.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")


def flags(fixtures: Path, out: Path, tickers: str = "GS,AMZN", window: str = JULY) -> list[str]:
    return ["--fixtures", str(fixtures), "--out", str(out), "--window", window, "--tickers", tickers]


def stderr_lines(capsys) -> list[str]:
    return capsys.readouterr().err.splitlines()


@pytest.mark.parametrize("flag,value", [("--price-days", "0"), ("--tickers", "")])
def test_falsy_flag_value_is_a_config_error(tmp_path, capsys, flag, value):
    argv = ["run", "--fixtures", str(FIXTURES_DIR), "--out", str(tmp_path), "--window", JULY, flag, value]
    assert run_cli(argv) == 2
    errors = stderr_lines(capsys)
    assert len(errors) == 1 and errors[0].startswith("error[config]: ")
    assert not (tmp_path / "corpus.jsonl").exists()


def test_ticker_without_fixture_dir_is_transport_error(tmp_path, capsys):
    assert run_cli(["run", *flags(FIXTURES_DIR, tmp_path, tickers="GS,NOPE")]) == 3
    errors = stderr_lines(capsys)
    assert len(errors) == 1 and errors[0].startswith("error[transport]: ")


def test_every_ticker_short_of_bars_is_insufficient_data(tmp_path, capsys):
    fixtures = copy_fixtures(tmp_path)
    for key in ("GS", "AMZN"):
        lines = price_lines(key)
        write_price_lines(fixtures, key, [lines[0], lines[-1]])
    assert run_cli(["run", *flags(fixtures, tmp_path / "out")]) == 4
    errors = [line for line in stderr_lines(capsys) if line.startswith("error[")]
    assert errors == ["error[insufficient-data]: no ticker had enough data to analyze"]


def test_one_ticker_with_one_bar_is_noted_once(tmp_path, capsys):
    fixtures = copy_fixtures(tmp_path)
    lines = price_lines("GS")
    write_price_lines(fixtures, "GS", [lines[0], lines[-1]])
    out = tmp_path / "out"
    assert run_cli(["run", *flags(fixtures, out)]) == 0
    notes = [line for line in stderr_lines(capsys) if line.startswith("note[")]
    assert len(notes) == 1 and notes[0].startswith("note[insufficient-data]: GS:")
    rows = {row["ticker"]: row for row in csv.DictReader(open(out / "summary.csv", encoding="utf-8"))}
    assert rows["GS"]["percent_change"] == "" and rows["GS"]["sign_agreement"] == ""
    assert rows["AMZN"]["percent_change"] != ""
    assert not (out / "analysis" / "GS.json").exists()
    assert not (out / "charts" / "GS.svg").exists()


def test_price_series_ends_inside_the_window(tmp_path):
    assert run_cli(["run", *flags(FIXTURES_DIR, tmp_path, tickers="GS", window="2022-07-01:2022-07-10")]) == 0
    fixture_rows = list(csv.DictReader(price_lines("GS")))
    kept = [row for row in fixture_rows if row["Date"] <= "2022-07-10"][-20:]
    written = list(csv.DictReader((tmp_path / "prices" / "GS.csv").read_text(encoding="utf-8").splitlines()))
    assert [row["Date"] for row in written] == [row["Date"] for row in kept]
    assert written[-1]["Date"] == "2022-07-08"
    first, last = float(kept[0]["Open"]), float(kept[-1]["Open"])
    result = json.loads((tmp_path / "analysis" / "GS.json").read_text(encoding="utf-8"))
    assert result["percent_change"] == pytest.approx(100.0 * (last - first) / first, rel=1e-12)


def test_run_equals_chained_subcommands_at_seven_decimals(tmp_path):
    fixtures = copy_fixtures(tmp_path)
    header, *rows = price_lines("GS")
    shifted = []
    for line in rows:
        day, *prices, volume = line.split(",")
        # Adding one constant keeps low <= open, close <= high on every bar.
        shifted.append(",".join([day, *(f"{float(p) + 0.1234567:.7f}" for p in prices), volume]))
    write_price_lines(fixtures, "GS", [header, *shifted])

    run_out, chained_out = tmp_path / "run", tmp_path / "chained"
    assert run_cli(["run", *flags(fixtures, run_out)]) == 0
    for stage in STAGES:
        assert run_cli([stage, *flags(fixtures, chained_out)]) == 0, stage
    compared = ["summary.csv"] + [f"{kind}/{key}.{ext}" for kind, ext in (("analysis", "json"), ("charts", "svg"))
                                  for key in ("GS", "AMZN")]
    for rel in compared:
        assert (run_out / rel).read_bytes() == (chained_out / rel).read_bytes(), rel
