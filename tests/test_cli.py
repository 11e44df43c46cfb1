"""CLI behaviour: exit codes, flag edge values, the price window, and report re-run on what run wrote."""

from __future__ import annotations

import csv
import gc
import json
import os
import random
import re
import shutil
import stat
import subprocess
import sys
import tracemalloc
from collections import Counter
from datetime import datetime, timedelta
from pathlib import Path
from typing import Optional

import pytest

import esgsent
from esgsent import cli
from esgsent.config import RunConfig
from esgsent.sentiment import SentimentLabel, SentimentVerdict, read_scored
from conftest import (AWKWARD_STRINGS, FIXTURES_DIR, GOLDEN_TICKERS, INT_DIGIT_LIMIT, JULY_WINDOW, REPO_ROOT, make_doc,
                      needs_int_digit_limit, run_cli, run_golden_pipeline, scored_of)

JULY = "2022-07-20:2022-07-29"
# What report says of a scored line that is not in the one form run writes.
FORM = "not a line in the form 'run' writes"
# What report writes for GS and AMZN.
REPORT_FILES = ["aggregates.csv", "summary.csv"] + [
    f"{kind}/{key}.{ext}" for kind, ext in (("analysis", "json"), ("charts", "svg")) for key in ("GS", "AMZN")
]


def copy_fixtures(tmp_path: Path, keys=("GS", "AMZN")) -> Path:
    dest = tmp_path / "fixtures"
    for key in keys:
        shutil.copytree(FIXTURES_DIR / key, dest / key)
    return dest


def price_lines(key: str) -> list[str]:
    return (FIXTURES_DIR / key / "prices.csv").read_text(encoding="utf-8").splitlines()


def write_price_lines(fixtures: Path, key: str, lines: list[str]) -> None:
    (fixtures / key / "prices.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")


def report_flags(out: Path, tickers: str = "GS,AMZN", window: str = JULY) -> list[str]:
    return ["--out", str(out), "--window", window, "--tickers", tickers]


def flags(fixtures: Path, out: Path, tickers: str = "GS,AMZN", window: str = JULY) -> list[str]:
    return ["--fixtures", str(fixtures), *report_flags(out, tickers, window)]


def stderr_lines(capsys) -> list[str]:
    return capsys.readouterr().err.splitlines()


@pytest.mark.parametrize("flag,value", [("--price-days", "0"), ("--tickers", "")])
def test_falsy_flag_value_is_a_config_error(tmp_path, capsys, flag, value):
    argv = ["run", "--fixtures", str(FIXTURES_DIR), "--out", str(tmp_path), "--window", JULY, flag, value]
    assert run_cli(argv) == 2
    errors = stderr_lines(capsys)
    assert len(errors) == 1 and errors[0].startswith("error[config]: ")
    assert not (tmp_path / "corpus.jsonl").exists()


def test_a_ticker_key_with_a_path_is_a_config_error_and_writes_nothing(tmp_path, monkeypatch, capsys):
    # Unchecked, "../../GS" would read ./GS/ outside --fixtures and write ./GS.* outside --out.
    shutil.copytree(FIXTURES_DIR / "GS", tmp_path / "A" / "B" / "GS")
    shutil.copytree(FIXTURES_DIR / "GS", tmp_path / "GS")
    monkeypatch.chdir(tmp_path)
    before = sorted(tmp_path.rglob("*"))
    assert run_cli(["run", *flags(Path("A/B"), Path("out"), tickers="GS,../../GS")]) == 2
    errors = stderr_lines(capsys)
    assert len(errors) == 1 and errors[0].startswith("error[config]: tickers (from --tickers): "), errors
    assert sorted(tmp_path.rglob("*")) == before


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
    rows = {row["ticker"]: row for row in csv.DictReader((out / "summary.csv").read_text(encoding="utf-8").splitlines())}
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


def test_report_after_run_rewrites_the_same_bytes_at_seven_decimals(tmp_path):
    fixtures = copy_fixtures(tmp_path)
    header, *rows = price_lines("GS")
    shifted = []
    for line in rows:
        day, *prices, volume = line.split(",")
        # Adding one constant keeps low <= open, close <= high on every bar.
        shifted.append(",".join([day, *(f"{float(p) + 0.1234567:.7f}" for p in prices), volume]))
    write_price_lines(fixtures, "GS", [header, *shifted])

    out = tmp_path / "out"
    assert run_cli(["run", *flags(fixtures, out)]) == 0
    written = {rel: (out / rel).read_bytes() for rel in REPORT_FILES}
    for rel in REPORT_FILES:
        (out / rel).unlink()
    assert run_cli(["report", *report_flags(out)]) == 0
    for rel in REPORT_FILES:
        assert (out / rel).read_bytes() == written[rel], rel


def test_run_writes_every_file_with_the_mode_of_the_umask(tmp_path):
    # esgsent reads the umask when it is imported, so each run is a new process that inherits it.
    env = {**os.environ, "PYTHONPATH": str(Path(esgsent.__file__).parent.parent)}
    argv = [sys.executable, "-m", "esgsent", "run", *flags(FIXTURES_DIR, tmp_path)]
    written = {"corpus.jsonl", "scored.jsonl", "prices/GS.csv", "prices/AMZN.csv", *REPORT_FILES}
    umask = os.umask(0o022)
    try:
        for _ in range(2):  # The second run finds every file there with mode 0644.
            subprocess.run(argv, env=env, check=True, capture_output=True)
            modes = {path.relative_to(tmp_path).as_posix(): stat.S_IMODE(path.stat().st_mode)
                     for path in tmp_path.rglob("*") if path.is_file()}
            assert modes == dict.fromkeys(written, 0o644)
    finally:
        os.umask(umask)


def file_ids(out: Path) -> dict[str, tuple[int, int, bytes]]:
    """(inode, mtime, bytes) of every file under out."""
    return {path.relative_to(out).as_posix(): (path.stat().st_ino, path.stat().st_mtime_ns, path.read_bytes())
            for path in out.rglob("*") if path.is_file()}


def test_report_with_the_same_flags_leaves_every_file_in_place(tmp_path):
    assert run_cli(["run", *flags(FIXTURES_DIR, tmp_path)]) == 0
    before = file_ids(tmp_path)
    assert run_cli(["report", *report_flags(tmp_path)]) == 0
    assert file_ids(tmp_path) == before
    assert set(REPORT_FILES) <= set(before)


# 0.3,-0.3 leaves both classes as they are; 0.7,-0.3 makes AMZN (mean 0.616667) Neutral.
@pytest.mark.parametrize("value,changed", [("0.3,-0.3", set()), ("0.7,-0.3", {"aggregates.csv", "summary.csv"})])
def test_report_under_other_thresholds_writes_what_run_writes_and_keeps_charts_and_analyses(tmp_path, value, changed):
    out, fresh = tmp_path / "out", tmp_path / "fresh"
    thresholds = ["--thresholds", value]
    assert run_cli(["run", *flags(FIXTURES_DIR, out)]) == 0
    before = file_ids(out)
    assert run_cli(["report", *report_flags(out), *thresholds]) == 0
    assert run_cli(["run", *flags(FIXTURES_DIR, fresh), *thresholds]) == 0
    after = file_ids(out)
    for rel in REPORT_FILES:
        assert after[rel][-1] == (fresh / rel).read_bytes(), rel
    assert {rel for rel in after if after[rel] != before[rel]} == changed
    assert all(after[rel][-1] != before[rel][-1] for rel in changed)


def test_report_reads_no_corpus(tmp_path):
    assert run_cli(["run", *flags(FIXTURES_DIR, tmp_path)]) == 0
    written = {rel: (tmp_path / rel).read_bytes() for rel in REPORT_FILES}
    (tmp_path / "corpus.jsonl").unlink()
    for rel in REPORT_FILES:
        (tmp_path / rel).unlink()
    assert run_cli(["report", *report_flags(tmp_path)]) == 0
    for rel in REPORT_FILES:
        assert (tmp_path / rel).read_bytes() == written[rel], rel


def test_report_keeps_only_the_configured_tickers(tmp_path, capsys):
    assert run_cli(["run", *flags(FIXTURES_DIR, tmp_path, tickers="GS,AMZN,TSLA,HSBC")]) == 0
    capsys.readouterr()
    assert run_cli(["report", "--out", str(tmp_path), "--window", JULY, "--tickers", "GS"]) == 0
    assert "affinity ranking: GS\n" in capsys.readouterr().out
    for name in ("aggregates.csv", "summary.csv"):
        rows = list(csv.DictReader((tmp_path / name).read_text(encoding="utf-8").splitlines()))
        assert [row["ticker"] for row in rows] == ["GS"], name


def test_report_keeps_only_documents_inside_the_window(tmp_path):
    narrow = "2022-07-25:2022-07-29"
    full, fresh = tmp_path / "full", tmp_path / "fresh"
    assert run_cli(["run", *flags(FIXTURES_DIR, full)]) == 0
    before = (full / "analysis" / "GS.json").read_bytes()
    # The price files stay those of the full window: both windows end on 29 July.
    assert run_cli(["report", *report_flags(full, window=narrow)]) == 0
    assert run_cli(["run", *flags(FIXTURES_DIR, fresh, window=narrow)]) == 0
    for rel in REPORT_FILES:
        assert (full / rel).read_bytes() == (fresh / rel).read_bytes(), rel
    assert (full / "analysis" / "GS.json").read_bytes() != before


def test_a_configured_ticker_without_documents_in_the_window_gets_a_neutral_row(tmp_path):
    # GS has a document on 29 July, AMZN none.
    last_day = "2022-07-29:2022-07-29"
    fresh, full = tmp_path / "fresh", tmp_path / "full"
    assert run_cli(["run", *flags(FIXTURES_DIR, fresh, window=last_day)]) == 0
    assert run_cli(["run", *flags(FIXTURES_DIR, full)]) == 0
    assert run_cli(["report", *report_flags(full, window=last_day)]) == 0
    for out in (fresh, full):
        rows = (out / "aggregates.csv").read_text(encoding="utf-8").splitlines()
        assert rows[1] == "AMZN,0,0.000000,0.000000,Neutral", out
        assert rows[2].startswith("GS,1,"), out


def test_report_on_a_bad_last_scored_line_fails_before_writing_any_file(tmp_path, capsys):
    assert run_cli(["run", *flags(FIXTURES_DIR, tmp_path)]) == 0
    scored = tmp_path / "scored.jsonl"
    *lines, last = scored.read_text(encoding="utf-8").splitlines(keepends=True)
    scored.write_text("".join(lines) + json.dumps({**json.loads(last), "score": 1.5}) + "\n", encoding="utf-8")
    before = file_ids(tmp_path)
    capsys.readouterr()
    # These thresholds change aggregates.csv and summary.csv, so a report that wrote would show.
    assert run_cli(["report", *report_flags(tmp_path), "--thresholds", "0.7,-0.3"]) == 2
    assert stderr_lines(capsys) == [f"error[schema]: {scored}:{len(lines) + 1}: sentiment score 1.5 outside [0, 1]"]
    assert file_ids(tmp_path) == before


def test_report_on_a_narrower_window_keeps_what_a_fresh_run_keeps(tmp_path, capsys):
    # Tweet "dup" is posted on 15 July and again on 22 July: its earliest copy lies before 20 July.
    fixtures = copy_fixtures(tmp_path, keys=("GS",))
    with (fixtures / "GS" / "tweets.jsonl").open("a", encoding="utf-8") as handle:
        for day in (15, 22):
            handle.write(json.dumps({"id": "dup", "source": "tweet", "timestamp": f"2022-07-{day}T09:00:00Z",
                                     "ticker": "GS", "text": "Goldman Sachs posts strong ESG results"}) + "\n")
    full, fresh = tmp_path / "full", tmp_path / "fresh"
    assert run_cli(["run", *flags(fixtures, full, tickers="GS", window="2022-07-01:2022-07-31")]) == 0
    capsys.readouterr()
    assert run_cli(["report", *report_flags(full, tickers="GS")]) == 0
    assert "GS: n=9 " in capsys.readouterr().out
    assert run_cli(["run", *flags(fixtures, fresh, tickers="GS")]) == 0
    assert "GS: n=9 " in capsys.readouterr().out
    for rel in ("aggregates.csv", "summary.csv", "analysis/GS.json", "charts/GS.svg"):
        assert (full / rel).read_bytes() == (fresh / rel).read_bytes(), rel
    assert '"id": "dup"' not in (fresh / "scored.jsonl").read_text(encoding="utf-8")


def test_a_tickers_outputs_do_not_depend_on_the_other_tickers(tmp_path, capsys):
    # Tweet "shared" is filed under GS on 21 July and under AMZN on 23 July: each ticker's copy counts.
    fixtures = copy_fixtures(tmp_path)
    for ticker, day in (("GS", 21), ("AMZN", 23)):
        with (fixtures / ticker / "tweets.jsonl").open("a", encoding="utf-8") as handle:
            handle.write(json.dumps({"id": "shared", "source": "tweet", "timestamp": f"2022-07-{day}T09:00:00Z",
                                     "ticker": ticker, "text": "strong ESG results praised"}) + "\n")
    alone, joint = tmp_path / "alone", tmp_path / "joint"
    assert run_cli(["run", *flags(fixtures, alone, tickers="AMZN")]) == 0
    assert "AMZN: n=9 " in capsys.readouterr().out
    assert run_cli(["run", *flags(fixtures, joint)]) == 0
    assert "AMZN: n=9 " in capsys.readouterr().out

    def amzn_row(out: Path) -> str:
        (row,) = [line for line in (out / "aggregates.csv").read_text(encoding="utf-8").splitlines()
                  if line.startswith("AMZN,")]
        return row

    amzn_files = ("analysis/AMZN.json", "prices/AMZN.csv", "charts/AMZN.svg")
    for rel in amzn_files:
        assert (joint / rel).read_bytes() == (alone / rel).read_bytes(), rel
    assert amzn_row(joint) == amzn_row(alone)
    assert run_cli(["report", *report_flags(joint, tickers="AMZN")]) == 0
    for rel in (*amzn_files, "aggregates.csv", "summary.csv"):
        assert (joint / rel).read_bytes() == (alone / rel).read_bytes(), rel


def output_tree(out: Path) -> dict[str, bytes]:
    return {path.relative_to(out).as_posix(): path.read_bytes() for path in sorted(out.rglob("*")) if path.is_file()}


def golden_run_tree(fixtures: Path, out: Path, *extra: str) -> dict[str, bytes]:
    """The output tree of the golden run's flags, and any extra ones, on other fixtures."""
    assert run_cli(["run", "--fixtures", str(fixtures), "--out", str(out), "--window", JULY,
                    "--tickers", GOLDEN_TICKERS, *extra]) == 0
    return output_tree(out)


def test_prices_times_two_change_only_the_price_files_and_the_charts_price_labels(tmp_path):
    # Doubling a float is exact, so every percent change, return and r is the same float.
    fixtures = tmp_path / "fixtures"
    shutil.copytree(FIXTURES_DIR, fixtures)
    for path in fixtures.glob("*/prices.csv"):
        header, *rows = path.read_text(encoding="utf-8").splitlines()
        assert header == "Date,Open,High,Low,Close,Adj Close,Volume"
        doubled = []
        for row in rows:
            day, *prices, volume = row.split(",")
            doubled.append(",".join([day, *(repr(2 * float(price)) for price in prices), volume]))
        path.write_text("\n".join([header, *doubled]) + "\n", encoding="utf-8")
    base = golden_run_tree(FIXTURES_DIR, tmp_path / "base")
    scaled = golden_run_tree(fixtures, tmp_path / "scaled")
    assert sorted(scaled) == sorted(base)
    assert sum(rel.startswith("charts/") for rel in base) == 4
    for rel in base:
        if rel.startswith("charts/"):
            before, after = base[rel].decode().splitlines(), scaled[rel].decode().splitlines()
            labels = [i for i, line in enumerate(before) if line.lstrip().startswith('<text x="4" ')]
            changed = [i for i, (old, new) in enumerate(zip(before, after, strict=True)) if old != new]
            assert len(labels) == 5 and changed == labels, rel
        elif not rel.startswith("prices/"):
            assert scaled[rel] == base[rel], rel


@pytest.mark.parametrize("seed", [1, 2])
def test_shuffled_fixture_lines_give_the_same_output_tree(tmp_path, seed):
    # Every document line, and every price row after its header, in a seeded random order.
    rng = random.Random(seed)
    fixtures = tmp_path / "fixtures"
    shutil.copytree(FIXTURES_DIR, fixtures)
    moved = 0
    for path in sorted(fixtures.glob("*/*")):
        lines = path.read_text(encoding="utf-8").splitlines()
        head = lines[:1] if path.name == "prices.csv" else []
        body = lines[len(head):]
        rng.shuffle(body)
        moved += body != lines[len(head):]
        path.write_text("\n".join(head + body) + "\n", encoding="utf-8")
    assert moved >= 10
    assert golden_run_tree(fixtures, tmp_path / "shuffled") == golden_run_tree(FIXTURES_DIR, tmp_path / "base")


SWAPPED = {"Affine": "Averse", "Averse": "Affine", "Neutral": "Neutral",
           "Concordant": "Discordant", "Discordant": "Concordant", "Indeterminate": "Indeterminate"}


def test_a_lexicon_with_its_polarities_swapped_negates_every_composite(tmp_path):
    lexicon = tmp_path / "swapped"
    lexicon.mkdir()
    shipped = REPO_ROOT / "src" / "esgsent" / "data" / "lexicon"
    for name, source in (("positive", "negative"), ("negative", "positive"), ("negators", "negators")):
        shutil.copy(shipped / f"{source}.txt", lexicon / f"{name}.txt")
    base = golden_run_tree(FIXTURES_DIR, tmp_path / "base")
    swapped = golden_run_tree(FIXTURES_DIR, tmp_path / "swapped-out", "--lexicon", str(lexicon))
    assert sorted(swapped) == sorted(base)
    for rel in base:
        if rel == "corpus.jsonl" or rel.startswith(("prices/", "charts/")):
            assert swapped[rel] == base[rel], rel
    pairs = [(json.loads(a), json.loads(b))
             for a, b in zip(base["scored.jsonl"].splitlines(), swapped["scored.jsonl"].splitlines(), strict=True)]
    assert any(a["composite"] for a, _ in pairs)
    for a, b in pairs:
        assert b["composite"] == -a["composite"], a
        # Only the verdict's sign moves: the key, the timestamp and the score stay.
        assert {**b, "label": None, "composite": None} == {**a, "label": None, "composite": None}, a

    def rows(rel: str) -> list[tuple[dict[str, str], dict[str, str]]]:
        """Each ticker's row of a CSV in both runs; summary.csv ranks the tickers by mean composite."""
        a, b = ({row["ticker"]: row for row in csv.DictReader(tree[rel].decode().splitlines())}
                for tree in (base, swapped))
        assert sorted(a) == sorted(b) == sorted(GOLDEN_TICKERS.split(",")), rel
        return [(a[ticker], b[ticker]) for ticker in a]

    for a, b in rows("aggregates.csv"):
        assert (b["n_docs"], b["classification"]) == (a["n_docs"], SWAPPED[a["classification"]])
        assert float(b["sum_composite"]) == -float(a["sum_composite"])
        assert float(b["mean_composite"]) == -float(a["mean_composite"])
    for a, b in rows("summary.csv"):
        assert (b["n_docs"], b["percent_change"]) == (a["n_docs"], a["percent_change"])
        assert (b["classification"], b["sign_agreement"]) == (SWAPPED[a["classification"]], SWAPPED[a["sign_agreement"]])
        assert float(b["mean_composite"]) == -float(a["mean_composite"])
    analyses = [rel for rel in base if rel.startswith("analysis/")]
    assert len(analyses) == 4
    for rel in analyses:
        a, b = json.loads(base[rel]), json.loads(swapped[rel])
        assert a["pearson_r"] is not None, rel
        assert b == {**a, "mean_composite": -a["mean_composite"], "pearson_r": -a["pearson_r"],
                     "sign_agreement": SWAPPED[a["sign_agreement"]]}, rel


def test_duplicates_and_records_out_of_scope_change_no_output_file(tmp_path):
    # For each document record, a copy one second later with negative text, and fresh ids
    # under another ticker, on the day after the window and ten days before it.
    fixtures = tmp_path / "fixtures"
    shutil.copytree(FIXTURES_DIR, fixtures)
    added = kept = 0
    for path in sorted(fixtures.glob("*/*.jsonl")):
        records = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line.strip()]
        kept += len(records)
        with open(path, "a", encoding="utf-8") as handle:
            for record in records:
                later = datetime.fromisoformat(record["timestamp"].replace("Z", "+00:00")) + timedelta(seconds=1)
                for extra in (
                    {**record, "timestamp": later.isoformat(), "text": "toxic spill fraud probe",
                     **({"title": "bank fined"} if "title" in record else {})},
                    {**record, "id": f"{record['id']}-other", "ticker": "ZZZZ"},
                    {**record, "id": f"{record['id']}-late", "timestamp": "2022-07-30T12:00:00Z"},
                    {**record, "id": f"{record['id']}-early", "timestamp": "2022-07-10T12:00:00Z"},
                ):
                    handle.write(json.dumps(extra) + "\n")
                    added += 1
    assert added == 4 * kept > 100
    assert golden_run_tree(fixtures, tmp_path / "padded") == golden_run_tree(FIXTURES_DIR, tmp_path / "base")


@needs_int_digit_limit
def test_an_integer_past_the_digit_limit_is_one_schema_error_naming_file_and_line(tmp_path, capsys):
    fixtures = copy_fixtures(tmp_path)
    path = fixtures / "GS" / "tweets.jsonl"
    lines = path.read_text(encoding="utf-8").splitlines()
    lines.insert(1, lines[0][:-1] + ', "x": ' + "7" * (INT_DIGIT_LIMIT + 1) + "}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert run_cli(["run", *flags(fixtures, tmp_path / "out")]) == 2
    errors = stderr_lines(capsys)
    assert len(errors) == 1 and errors[0].startswith(f"error[schema]: {path}:2: malformed JSON: "), errors
    assert f"value has {INT_DIGIT_LIMIT + 1} digits" in errors[0]


def test_a_run_that_fails_part_way_leaves_both_json_lines_files(tmp_path, monkeypatch, capsys):
    fixtures, out = tmp_path / "fixtures", tmp_path / "out"
    write_wide_fixtures(fixtures, ["W0", "W1"], copies=30)
    assert run_cli(["run", *flags(fixtures, out, tickers="W0,W1")]) == 0
    before = [(out / name).read_bytes() for name in ("corpus.jsonl", "scored.jsonl")]
    with open(fixtures / "W1" / "tweets.jsonl", "a", encoding="utf-8") as handle:
        handle.write(NO_TEXT + "\n")
    n_tweets = len((fixtures / "W1" / "tweets.jsonl").read_text(encoding="utf-8").splitlines()) - 1
    # The sizes of the temporary files as each ticker's fetch begins.
    sizes, fetch = [], cli.fetch_documents

    def fetch_noting_the_temporary_files(*args, **kwargs):
        sizes.append(sorted(path.stat().st_size for path in out.glob("*.tmp")))
        return fetch(*args, **kwargs)

    monkeypatch.setattr(cli, "fetch_documents", fetch_noting_the_temporary_files)
    capsys.readouterr()
    assert run_cli(["run", *flags(fixtures, out, tickers="W0,W1")]) == 2
    errors = stderr_lines(capsys)
    assert errors == [f"error[schema]: {fixtures / 'W1' / 'tweets.jsonl'}:{n_tweets + 1}: "
                      "document payload missing required field(s): text"], errors
    # W1 fails after W0's 1,000 and more lines have gone to each temporary file.
    at_first, at_last = sizes
    assert at_first == [0, 0] and min(at_last) > 100_000, sizes
    assert [(out / name).read_bytes() for name in ("corpus.jsonl", "scored.jsonl")] == before
    assert not list(out.rglob("*.tmp"))


def test_a_bad_line_in_the_last_tickers_news_leaves_every_file_of_the_earlier_run(tmp_path, capsys):
    fixtures, out = copy_fixtures(tmp_path), tmp_path / "out"
    assert run_cli(["run", *flags(fixtures, out)]) == 0
    before = file_ids(out)
    news = fixtures / "AMZN" / "news.jsonl"
    with open(news, "a", encoding="utf-8") as handle:
        handle.write('{"id": "bad",\n')
    n_lines = len(news.read_text(encoding="utf-8").splitlines())
    capsys.readouterr()
    # A narrower window would write a different corpus.
    assert run_cli(["run", *flags(fixtures, out, window="2022-07-25:2022-07-29")]) == 2
    errors = stderr_lines(capsys)
    assert len(errors) == 1 and errors[0].startswith(f"error[schema]: {news}:{n_lines}: malformed JSON: "), errors
    assert file_ids(out) == before
    assert not list(out.rglob("*.tmp"))


def test_a_missing_price_fixture_leaves_every_file_of_the_earlier_run(tmp_path, capsys):
    tickers = "AMZN,GS,HSBC,TSLA"
    fixtures, out = copy_fixtures(tmp_path, keys=tickers.split(",")), tmp_path / "out"
    assert run_cli(["run", *flags(fixtures, out, tickers=tickers)]) == 0
    before = file_ids(out)
    (fixtures / "HSBC" / "prices.csv").unlink()
    capsys.readouterr()
    # A narrower window would write a different corpus and other analyses of AMZN and GS, which come first.
    assert run_cli(["run", *flags(fixtures, out, tickers=tickers, window="2022-07-25:2022-07-29")]) == 3
    assert stderr_lines(capsys) == [f"error[transport]: no price fixture for HSBC under {fixtures}"]
    assert file_ids(out) == before
    assert not list(out.rglob("*.tmp"))


def test_a_ticker_key_of_250_characters_runs(tmp_path):
    # Each output name fits in 255 bytes, analysis/<key>.json the longest, and so must each temporary name.
    key = "K" * 250
    fixtures, out = tmp_path / "fixtures", tmp_path / "out"
    write_wide_fixtures(fixtures, [key], copies=1)
    assert run_cli(["run", *flags(fixtures, out, tickers=key)]) == 0
    assert set(file_ids(out)) == {"corpus.jsonl", "scored.jsonl", "aggregates.csv", "summary.csv",
                                  f"analysis/{key}.json", f"charts/{key}.svg", f"prices/{key}.csv"}


def test_report_narrows_the_stored_prices_to_the_window_end_and_price_days(tmp_path):
    narrow = ["--window", "2022-07-20:2022-07-25", "--price-days", "5"]
    full, fresh = tmp_path / "full", tmp_path / "fresh"
    assert run_cli(["run", *flags(FIXTURES_DIR, full, window="2022-07-01:2022-07-31")]) == 0
    assert run_cli(["report", "--out", str(full), "--tickers", "GS,AMZN", *narrow]) == 0
    assert run_cli(["run", "--fixtures", str(FIXTURES_DIR), "--out", str(fresh), "--tickers", "GS,AMZN", *narrow]) == 0
    for rel in REPORT_FILES:
        assert (full / rel).read_bytes() == (fresh / rel).read_bytes(), rel
    # The stored series is 20 bars up to 29 July; the fresh one is 5 bars up to 25 July.
    assert len((full / "prices" / "GS.csv").read_text(encoding="utf-8").splitlines()) == 1 + 20
    assert (fresh / "prices" / "GS.csv").read_text(encoding="utf-8").splitlines()[-1].startswith("2022-07-25,")


@pytest.mark.parametrize("argv,key,value", [
    (["--lexicon", "missing"], "lexicon", "missing"),
    (["--external-verdicts", "missing"], "external_verdicts", "missing"),
    (["--fixtures", "missing"], "fixtures", "missing"),
    (["--strict"], "strict", True),
], ids=["--lexicon", "--external-verdicts", "--fixtures", "--strict"])
def test_report_rejects_a_run_only_flag_but_ignores_the_config_key(tmp_path, capsys, argv, key, value):
    assert run_cli(["run", *flags(FIXTURES_DIR, tmp_path)]) == 0
    written = {rel: (tmp_path / rel).read_bytes() for rel in REPORT_FILES}
    capsys.readouterr()
    with pytest.raises(SystemExit) as exit_info:
        run_cli(["report", *report_flags(tmp_path), *argv])
    assert exit_info.value.code == 2
    assert f"unrecognized arguments: {' '.join(argv)}" in capsys.readouterr().err
    # A run_config.json written for run may still set the key; report reads the stored scores and prices.
    config = tmp_path / "config.json"
    config.write_text(json.dumps({key: value}), encoding="utf-8")
    assert run_cli(["report", *report_flags(tmp_path), "--config", str(config)]) == 0
    for rel in REPORT_FILES:
        assert (tmp_path / rel).read_bytes() == written[rel], rel


@pytest.mark.parametrize("stage", ["report", "run"])
def test_help_shows_the_run_config_defaults(capsys, monkeypatch, stage):
    monkeypatch.setenv("COLUMNS", "120")
    with pytest.raises(SystemExit) as exit_info:
        run_cli([stage, "--help"])
    assert exit_info.value.code == 0
    text = capsys.readouterr().out
    assert "(default 20)" in text and "(default 0.15,-0.15)" in text


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # Each would add milliseconds to every command, and so would tempfile, which atomic_open does
    # without; -S keeps site's own imports out.
    code = "import sys; sys.path.insert(0, sys.argv[1]); import esgsent.cli; print(*sys.modules)"
    result = subprocess.run([sys.executable, "-S", "-c", code, str(Path(esgsent.__file__).parent.parent)],
                            check=True, capture_output=True, encoding="utf-8")
    loaded = set(result.stdout.split())
    assert "esgsent.cli" in loaded
    assert not loaded & {"dataclasses", "inspect", "tempfile"}


@pytest.mark.parametrize("make_path", [lambda tmp: tmp / "missing.csv", lambda tmp: tmp])
def test_unreadable_external_verdicts_is_one_io_error(tmp_path, capsys, make_path):
    argv = ["run", *flags(FIXTURES_DIR, tmp_path / "out"), "--external-verdicts", str(make_path(tmp_path))]
    assert run_cli(argv) == 2
    errors = stderr_lines(capsys)
    assert len(errors) == 1 and errors[0].startswith("error[io]: "), errors


def test_a_lexicon_term_behind_a_byte_order_mark_is_one_invariant_error(tmp_path, capsys):
    lexicon = tmp_path / "lexicon"
    shutil.copytree(Path(esgsent.__file__).parent / "data" / "lexicon", lexicon)
    positive = lexicon / "positive.txt"
    positive.write_text("\ufeffable\n" + positive.read_text(encoding="utf-8"), encoding="utf-8")
    assert run_cli(["run", *flags(FIXTURES_DIR, tmp_path / "out"), "--lexicon", str(lexicon)]) == 2
    assert stderr_lines(capsys) == ["error[invariant]: bad lexicon entry in positive_terms: '\\ufeffable'"]


@pytest.mark.parametrize("kind", ["prices", "external verdicts"])
def test_a_csv_header_behind_a_byte_order_mark_is_named_in_the_error(tmp_path, capsys, kind):
    fixtures = copy_fixtures(tmp_path)
    if kind == "prices":
        path, header = fixtures / "GS" / "prices.csv", "Date,Open,High,Low,Close,Adj Close,Volume"
        extra = []
    else:
        path, header = tmp_path / "verdicts.csv", "id,source,label,score"
        path.write_text("id,source,label,score\nt1,tweet,positive,0.5\n", encoding="utf-8")
        extra = ["--external-verdicts", str(path)]
    path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    assert run_cli(["run", *flags(fixtures, tmp_path / "out"), *extra]) == 2
    assert stderr_lines(capsys) == [f"error[schema]: {path}: the file starts with a byte-order mark (U+FEFF); "
                                    f"expected header {header}, got {header} after it"]


@pytest.mark.parametrize("flag", ["--lexicon", "--external-verdicts"])
def test_a_bad_scoring_input_fails_before_any_file_is_written(tmp_path, capsys, flag):
    out = tmp_path / "out"
    assert run_cli(["run", *flags(FIXTURES_DIR, out)]) == 0
    before = {path: path.read_bytes() for path in out.rglob("*") if path.is_file()}
    (tmp_path / "verdicts.csv").write_text("id,label\n", encoding="utf-8")
    value, error = {
        "--lexicon": (tmp_path / "nolex", f"error[schema]: lexicon file missing: {tmp_path / 'nolex' / 'positive.txt'}"),
        "--external-verdicts": (tmp_path / "verdicts.csv",
                                f"error[schema]: {tmp_path / 'verdicts.csv'}: expected header id,source,label,score, "
                                "got id,label"),
    }[flag]
    capsys.readouterr()
    # A narrower window would write a different corpus.
    assert run_cli(["run", *flags(FIXTURES_DIR, out, window="2022-07-25:2022-07-29"), flag, str(value)]) == 2
    assert stderr_lines(capsys) == [error]
    assert {path: path.read_bytes() for path in out.rglob("*") if path.is_file()} == before


@pytest.mark.parametrize(
    "rows,n_external",
    [
        (None, 0),
        ([], 0),
        # Only a (source, id) key of the corpus counts.
        (["tw-gs-0720a,tweet,negative,0.5", "tw-gs-0720a,news,positive,0.5", "tw-none,tweet,positive,0.5"], 1),
    ],
)
def test_score_counts_the_documents_with_an_external_verdict(tmp_path, capsys, rows, n_external):
    out = tmp_path / "out"
    argv = ["run", *flags(FIXTURES_DIR, out)]
    if rows is not None:
        (tmp_path / "verdicts.csv").write_text("\n".join(["id,source,label,score", *rows]) + "\n", encoding="utf-8")
        argv += ["--external-verdicts", str(tmp_path / "verdicts.csv")]
    assert run_cli(argv) == 0
    n_docs = len((out / "corpus.jsonl").read_text(encoding="utf-8").splitlines())
    assert f"scored {n_docs} documents ({n_external} external) -> " in capsys.readouterr().out


def test_an_external_verdict_with_an_empty_id_is_one_schema_error(tmp_path, capsys):
    # No document has an empty id, so such a row could never be used.
    path = tmp_path / "verdicts.csv"
    path.write_text("id,source,label,score\ntw-gs-0720a,tweet,negative,0.5\n,tweet,positive,0.5\n", encoding="utf-8")
    capsys.readouterr()
    assert run_cli(["run", *flags(FIXTURES_DIR, tmp_path / "out"), "--external-verdicts", str(path)]) == 2
    assert stderr_lines(capsys) == [f"error[schema]: {path}:3: id must be non-empty"]


def test_run_prints_each_stage_line_in_order(tmp_path, capsys):
    # The corpus line comes once the corpus file exists, before the scored count; the
    # aggregates line once aggregates.csv is written, after every ticker's analysis.
    out = tmp_path / "out"
    assert run_golden_pipeline(out) == 0
    assert capsys.readouterr().out.splitlines() == [
        "GS: 9 documents", "AMZN: 8 documents", "TSLA: 9 documents", "HSBC: 7 documents",
        f"corpus -> {out / 'corpus.jsonl'}",
        f"scored 33 documents (0 external) -> {out / 'scored.jsonl'}",
        "AMZN: n=8 sum=4.933333 mean=0.616667 Affine",
        "GS: n=9 sum=7.600000 mean=0.844444 Affine",
        "HSBC: n=7 sum=-3.500000 mean=-0.500000 Averse",
        "TSLA: n=9 sum=2.700000 mean=0.300000 Affine",
        "affinity ranking: GS > AMZN > TSLA > HSBC",
        f"GS: 20 trading days -> {out / 'prices' / 'GS.csv'}",
        "GS: change=+7.55% mean=+0.8444 r=+0.9258 Concordant (8 aligned days)",
        f"AMZN: 20 trading days -> {out / 'prices' / 'AMZN.csv'}",
        "AMZN: change=+10.34% mean=+0.6167 r=+0.9501 Concordant (7 aligned days)",
        f"TSLA: 20 trading days -> {out / 'prices' / 'TSLA.csv'}",
        "TSLA: change=+10.98% mean=+0.3000 r=+0.8411 Concordant (7 aligned days)",
        f"HSBC: 20 trading days -> {out / 'prices' / 'HSBC.csv'}",
        "HSBC: change=+5.48% mean=-0.5000 r=-0.9535 Discordant (7 aligned days)",
        f"aggregates -> {out / 'aggregates.csv'}",
        f"summary -> {out / 'summary.csv'}",
        f"charts  -> {out / 'charts'}",
    ]


def test_run_flips_a_negated_hit_and_scores_news_on_its_headline(tmp_path):
    # No golden document holds a negated hit, and every golden news title has its text's polarity.
    fixtures = tmp_path / "fixtures"
    (fixtures / "GS").mkdir(parents=True)
    records = {
        "tweets": [("t-not", "tweet", "ESG plan is not good", None),
                   ("t-far", "tweet", "not that plan was good", None)],
        "news": [("n-mixed", "news", "Heavy losses at the bank this quarter", "Great quarter for the bank")],
    }
    for name, rows in records.items():
        lines = []
        for hour, (doc_id, source, text, title) in enumerate(rows):
            record = {"id": doc_id, "source": source, "timestamp": f"2022-07-21T1{hour}:00:00Z", "ticker": "GS",
                      "text": text, **({} if title is None else {"title": title})}
            lines.append(json.dumps(record) + "\n")
        (fixtures / "GS" / f"{name}.jsonl").write_text("".join(lines), encoding="utf-8")
    write_price_lines(fixtures, "GS", [price_lines("GS")[0], "2022-07-20,300.00,305.00,299.00,304.00,304.00,1000",
                                       "2022-07-21,304.00,306.00,301.00,302.00,302.00,1000"])
    out = tmp_path / "out"
    assert run_cli(["run", *flags(fixtures, out, tickers="GS")]) == 0
    verdicts = {line["id"]: (line["label"], line["score"], line["composite"])
                for line in map(json.loads, (out / "scored.jsonl").read_text(encoding="utf-8").splitlines())}
    assert verdicts == {
        # "not" one token before "good" flips it; four tokens before, it is outside NEGATION_WINDOW.
        "t-not": ("negative", 1.0, -1.0),
        "t-far": ("positive", 1.0, 1.0),
        # A news record is scored on its title, not on its text.
        "n-mixed": ("positive", 1.0, 1.0),
    }


@pytest.mark.parametrize(
    "stage,name",
    [
        ("report", "out/scored.jsonl"),
        ("report", "out/prices/GS.csv"),
        ("run", "fixtures/GS/tweets.jsonl"),
        ("run", "fixtures/GS/prices.csv"),
        ("run", "lexicon/negators.txt"),
        ("run", "verdicts.csv"),
        ("run", "config.json"),
    ],
)
def test_non_utf8_input_is_one_io_error_naming_the_file(tmp_path, capsys, stage, name):
    fixtures, out = copy_fixtures(tmp_path), tmp_path / "out"
    assert run_cli(["run", *flags(fixtures, out)]) == 0
    shutil.copytree(REPO_ROOT / "src" / "esgsent" / "data" / "lexicon", tmp_path / "lexicon")
    (tmp_path / "verdicts.csv").write_text("id,source,label,score\n", encoding="utf-8")
    (tmp_path / "config.json").write_text("{}\n", encoding="utf-8")
    with open(tmp_path / name, "ab") as handle:
        handle.write(b"\xff\n")
    capsys.readouterr()
    argv = [stage, *report_flags(out), "--config", str(tmp_path / "config.json")]
    if stage == "run":  # report takes no fixture or scoring flags
        argv += ["--fixtures", str(fixtures), "--lexicon", str(tmp_path / "lexicon"),
                 "--external-verdicts", str(tmp_path / "verdicts.csv")]
    assert run_cli(argv) == 2
    errors = stderr_lines(capsys)
    expected = f"error[io]: {tmp_path / name}: 'utf-8' codec can't decode"
    assert len(errors) == 1 and errors[0].startswith(expected), errors


@pytest.mark.parametrize(
    "stage,name,record,problem",
    [
        ("run", "fixtures/GS/tweets.jsonl", '{"id": "bad", "source": "tweet"}',
         "document payload missing required field(s): timestamp, ticker, text"),
        ("run", "fixtures/GS/news.jsonl",
         '{"id": "bad", "source": "news", "timestamp": "July", "ticker": "GS", "text": "x"}',
         "document 'bad': bad timestamp 'July'"),
        ("run", "fixtures/GS/tweets.jsonl",
         '{"id": "bad", "source": "tweet", "timestamp": "2022-07-21T10:00:00Z", "ticker": "GS", "text": 5}',
         "document 'bad': text must be a string, got 5"),
        # Without the check, writing corpus.jsonl fails with a UnicodeEncodeError traceback.
        ("run", "fixtures/GS/tweets.jsonl",
         '{"id": "bad", "source": "tweet", "timestamp": "2022-07-21T10:00:00Z", "ticker": "GS", "text": "\\ud800 x"}',
         "document 'bad': text holds a lone surrogate, which UTF-8 cannot encode"),
        ("run", "fixtures/GS/tweets.jsonl",
         '{"id": "bad\\udfff", "source": "tweet", "timestamp": "2022-07-21T10:00:00Z", "ticker": "GS", "text": "x"}',
         "document 'bad\\udfff': id holds a lone surrogate, which UTF-8 cannot encode"),
        ("run", "fixtures/GS/tweets.jsonl",
         '{"id": "bad", "source": "tweet", "timestamp": "2022-07-21T10:00:00Z", "ticker": "GS\\ud83d", "text": "x"}',
         "document 'bad': ticker holds a lone surrogate, which UTF-8 cannot encode"),
        ("run", "fixtures/GS/news.jsonl",
         '{"id": "bad", "source": "news", "timestamp": "2022-07-21T10:00:00Z", "ticker": "GS", "text": "x", '
         '"title": "caf\\u00e9 \\udbff"}',
         "document 'bad': title holds a lone surrogate, which UTF-8 cannot encode"),
        # The fixture file and line are named once.
        ("run", "fixtures/GS/tweets.jsonl", '{"id": "bad",',
         "malformed JSON: Expecting property name enclosed in double quotes: line 1 column 14 (char 13)"),
        ("report", "out/scored.jsonl", "scored", FORM),
    ],
)
def test_bad_record_is_one_schema_error_naming_file_and_line(tmp_path, capsys, stage, name, record, problem):
    fixtures, out = copy_fixtures(tmp_path), tmp_path / "out"
    assert run_cli(["run", *flags(fixtures, out)]) == 0
    path = tmp_path / name
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join([*lines[:2], "\n", record + "\n", *lines[2:]]), encoding="utf-8")
    capsys.readouterr()
    assert run_cli([stage, *(flags(fixtures, out) if stage == "run" else report_flags(out))]) == 2
    errors = stderr_lines(capsys)
    assert errors == [f"error[schema]: {path}:4: {problem}"], errors


NO_TEXT = '{"id": "bad", "source": "tweet", "timestamp": "2022-07-21T10:00:00Z", "ticker": "GS"}'


@pytest.mark.parametrize(
    "tweets,news,line",
    [
        # A schema error on line 1 wins over bad JSON on line 2.
        ([NO_TEXT, '{"id": "worse",'], [], 1),
        # tweets.jsonl is read before news.jsonl, whatever the kind of error.
        (["", "", NO_TEXT], ['{"id": "worse",'], 3),
    ],
)
def test_the_first_bad_fixture_line_in_read_order_is_the_error(tmp_path, capsys, tweets, news, line):
    fixtures, out = copy_fixtures(tmp_path), tmp_path / "out"
    for name, head in (("tweets.jsonl", tweets), ("news.jsonl", news)):
        path = fixtures / "GS" / name
        path.write_text("".join(row + "\n" for row in head) + path.read_text(encoding="utf-8"), encoding="utf-8")
    assert run_cli(["run", *flags(fixtures, out)]) == 2
    problem = "document payload missing required field(s): text"
    assert stderr_lines(capsys) == [f"error[schema]: {fixtures / 'GS' / 'tweets.jsonl'}:{line}: {problem}"]


METADATA = {"author": {"name": "ana", "ids": [7, None]}, "followers": 12, "place": "Paris", "url": "https://x.example/a"}


def append_tweet(fixtures: Path, **fields) -> None:
    """Append a GS tweet in the window with all four metadata fields, as json.dumps escapes it."""
    record = {"id": "meta", "source": "tweet", "timestamp": "2022-07-21T10:00:00Z", "ticker": "GS",
              "text": "green bond growth", **METADATA, **fields}
    with open(fixtures / "GS" / "tweets.jsonl", "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record) + "\n")


def corpus_records(out: Path) -> list[dict]:
    return [json.loads(line) for line in (out / "corpus.jsonl").read_text(encoding="utf-8").splitlines()]


def test_strict_run_accepts_record_metadata_and_writes_none_of_it(tmp_path, capsys):
    fixtures, out = copy_fixtures(tmp_path), tmp_path / "out"
    append_tweet(fixtures)
    assert run_cli(["run", *flags(fixtures, out), "--strict"]) == 0
    assert "note[schema]" not in capsys.readouterr().err
    records = corpus_records(out)
    assert {"id": "meta", "source": "tweet", "timestamp": "2022-07-21T10:00:00Z", "ticker": "GS",
            "text": "green bond growth"} in records
    assert not any(record.keys() & METADATA.keys() for record in records)


@pytest.mark.parametrize("name,value", [
    ("author", {"\ud800": ["ok", "\udc00"]}),
    ("author", "\udfff"),
    ("place", "\ud83d"),
    ("url", "https://x.example/\ude00"),
])
def test_a_lone_surrogate_in_a_dropped_field_is_accepted(tmp_path, name, value):
    fixtures, out = copy_fixtures(tmp_path), tmp_path / "out"
    append_tweet(fixtures, **{name: value})
    assert run_cli(["run", *flags(fixtures, out), "--strict"]) == 0
    assert "meta" in [record["id"] for record in corpus_records(out)]


def test_report_without_a_scored_file_is_one_schema_error_naming_run(tmp_path, capsys):
    out = tmp_path / "out"
    out.mkdir()
    assert run_cli(["report", *report_flags(out)]) == 2
    assert stderr_lines(capsys) == [f"error[schema]: scored file not found: {out / 'scored.jsonl'} (run 'run' first)"]


def test_report_without_a_price_file_notes_the_ticker_naming_run(tmp_path, capsys):
    assert run_cli(["run", *flags(FIXTURES_DIR, tmp_path)]) == 0
    (tmp_path / "prices" / "GS.csv").unlink()
    capsys.readouterr()
    assert run_cli(["report", *report_flags(tmp_path)]) == 0
    assert stderr_lines(capsys) == [
        f"note[insufficient-data]: GS: no price data at {tmp_path / 'prices' / 'GS.csv'} (run 'run' first)"]
    # As a fresh run leaves a noted ticker: no analysis and no chart of the earlier run stay.
    assert [path.name for path in (tmp_path / "analysis").iterdir()] == ["AMZN.json"]
    assert [path.name for path in (tmp_path / "charts").iterdir()] == ["AMZN.svg"]


def test_report_that_ends_in_insufficient_data_leaves_every_file_in_place(tmp_path, capsys):
    assert run_cli(["run", *flags(FIXTURES_DIR, tmp_path)]) == 0
    before = file_ids(tmp_path)
    capsys.readouterr()
    # No document lies in this window, and the prices kept up to its end are too few.
    assert run_cli(["report", *report_flags(tmp_path, window="2022-07-01:2022-07-04")]) == 4
    captured = capsys.readouterr()
    errors = [line for line in captured.err.splitlines() if line.startswith("error[")]
    assert errors == ["error[insufficient-data]: no ticker had enough data to analyze"]
    assert not [line for line in captured.out.splitlines() if line.startswith("aggregates ->")]
    assert file_ids(tmp_path) == before


def test_repeated_scored_line_is_one_schema_error(tmp_path, capsys):
    assert run_cli(["run", *flags(FIXTURES_DIR, tmp_path)]) == 0
    scored = tmp_path / "scored.jsonl"
    lines = scored.read_text(encoding="utf-8").splitlines(keepends=True)
    with open(scored, "a", encoding="utf-8") as handle:
        handle.write(lines[0])
    capsys.readouterr()
    assert run_cli(["report", *report_flags(tmp_path)]) == 2
    errors = stderr_lines(capsys)
    assert errors == [f"error[schema]: {scored}:{len(lines) + 1}: duplicate scored line for "
                      f"{tuple(json.loads(lines[0])[k] for k in ('ticker', 'source', 'id'))}"], errors


def write_awkward_fixtures(fixtures: Path) -> None:
    """GS fixtures of one tweet per awkward id, a day apart from 20 July, with GS's prices."""
    (fixtures / "GS").mkdir(parents=True)
    shutil.copy(FIXTURES_DIR / "GS" / "prices.csv", fixtures / "GS")
    texts = ["green bond growth", "toxic spill probe", "clean audit praised"]
    with open(fixtures / "GS" / "tweets.jsonl", "w", encoding="utf-8") as handle:
        for i, doc_id in enumerate(AWKWARD_STRINGS):
            handle.write(json.dumps({"id": doc_id, "source": "tweet", "timestamp": f"2022-07-{20 + i}T10:00:00Z",
                                     "ticker": "GS", "text": texts[i % 3]}) + "\n")


def test_ids_that_run_escapes_read_back_through_report(tmp_path):
    fixtures, out = tmp_path / "fixtures", tmp_path / "out"
    write_awkward_fixtures(fixtures)
    assert run_cli(["run", *flags(fixtures, out, tickers="GS")]) == 0
    scored = (out / "scored.jsonl").read_text(encoding="utf-8")
    assert "\\\"" in scored and "\\\\" in scored and "\\u0000" in scored
    assert [sd.id for sd in read_scored(out / "scored.jsonl")] == AWKWARD_STRINGS
    written = output_tree(out)
    assert run_cli(["report", *report_flags(out, tickers="GS")]) == 0
    assert output_tree(out) == written


def test_a_json_line_in_another_form_after_written_ones_is_the_form_error(tmp_path, capsys):
    fixtures, out = tmp_path / "fixtures", tmp_path / "out"
    write_awkward_fixtures(fixtures)
    assert run_cli(["run", *flags(fixtures, out, tickers="GS")]) == 0
    scored = out / "scored.jsonl"
    # Split at \n only: an id holds U+2028, which splitlines would split at.
    lines = [line + "\n" for line in scored.read_text(encoding="utf-8").split("\n")[:-1]]
    assert len(lines) == len(AWKWARD_STRINGS)
    # The last line's fields in reverse order: JSON that decodes to the same object.
    reordered = json.dumps(dict(reversed(json.loads(lines[-1]).items())), ensure_ascii=False) + "\n"
    assert json.loads(reordered) == json.loads(lines[-1])
    scored.write_text("".join([*lines[:-1], reordered]), encoding="utf-8")
    capsys.readouterr()
    assert run_cli(["report", *report_flags(out, tickers="GS")]) == 2
    assert stderr_lines(capsys) == [f"error[schema]: {scored}:{len(lines)}: {FORM}"]


def test_non_finite_price_is_one_invariant_error(tmp_path, capsys):
    fixtures = copy_fixtures(tmp_path)
    lines = price_lines("GS")
    write_price_lines(fixtures, "GS", [*lines[:-1], "2022-07-29,inf,inf,312.38,316.16,316.16,2244000"])
    assert run_cli(["run", *flags(fixtures, tmp_path / "out")]) == 2
    errors = stderr_lines(capsys)
    path = fixtures / "GS" / "prices.csv"
    assert errors == [f"error[invariant]: {path}: 2022-07-29: open price inf is not finite"], errors


@pytest.mark.parametrize(
    "mangle,message",
    [
        (lambda obj: 5, FORM),
        (lambda obj: [obj], FORM),
        (lambda obj: "id source label score composite", FORM),
        (lambda obj: {**obj, "source": ["tweet"]}, FORM),
        (lambda obj: {**obj, "id": 5}, FORM),
        (lambda obj: {**obj, "ticker": 5}, FORM),
        (lambda obj: {**obj, "source": "blog"}, "unknown source 'blog'"),
        (lambda obj: {**obj, "id": ""}, "field 'id' must be non-empty"),
        (lambda obj: {k: v for k, v in obj.items() if k != "timestamp"}, FORM),
        (lambda obj: {**obj, "timestamp": "July"}, "document 'tw-gs-0720a': bad timestamp 'July'"),
        (lambda obj: {**obj, "timestamp": "2022-07-20T00:15:00"},
         "document 'tw-gs-0720a': timestamp '2022-07-20T00:15:00' lacks a UTC offset"),
        (lambda obj: {**obj, "label": "bullish"}, "'bullish' is not a valid SentimentLabel"),
        (lambda obj: {**obj, "score": 1.5}, "sentiment score 1.5 outside [0, 1]"),
        (lambda obj: {**obj, "score": -0.25}, "sentiment score -0.25 outside [0, 1]"),
        (lambda obj: {**obj, "score": "high"}, FORM),
        (lambda obj: {**obj, "composite": "high"}, FORM),
        (lambda obj: {**obj, "composite": obj["composite"] + 0.5}, "composite inconsistent with verdict"),
    ],
    ids=["int", "list", "str", "source-list", "id-int", "ticker-int", "source-unknown", "id-empty",
         "timestamp-missing", "timestamp-text", "timestamp-naive", "label-unknown", "score-above-1",
         "score-below-0", "score-text", "composite-text", "composite-mismatch"],
)
def test_malformed_scored_line_is_one_schema_error(tmp_path, capsys, mangle, message):
    assert run_cli(["run", *flags(FIXTURES_DIR, tmp_path)]) == 0
    scored = tmp_path / "scored.jsonl"
    first, *rest = scored.read_text(encoding="utf-8").splitlines(keepends=True)
    scored.write_text(json.dumps(mangle(json.loads(first))) + "\n" + "".join(rest), encoding="utf-8")
    capsys.readouterr()
    assert run_cli(["report", *report_flags(tmp_path)]) == 2
    errors = stderr_lines(capsys)
    assert errors == [f"error[schema]: {scored}:1: {message}"], errors


@pytest.fixture
def collector_state():
    """Puts back the collector's enabled state and debug flags after the test."""
    enabled, debug = gc.isenabled(), gc.get_debug()
    yield
    gc.set_debug(debug)
    (gc.enable if enabled else gc.disable)()


def write_wide_fixtures(dest: Path, tickers: list[str], copies: int, extra: Optional[dict] = None) -> int:
    """Every shipped document payload, `copies` times for each of the tickers, and GS's prices for each.

    `extra` fields, when given, go into every payload. Returns the number of document payloads written.
    """
    payloads = {
        name: [json.loads(line) for path in sorted(FIXTURES_DIR.glob(f"*/{name}"))
               for line in path.read_text(encoding="utf-8").splitlines() if line.strip()]
        for name in ("tweets.jsonl", "news.jsonl")
    }
    for ticker in tickers:
        (dest / ticker).mkdir(parents=True)
        shutil.copy(FIXTURES_DIR / "GS" / "prices.csv", dest / ticker / "prices.csv")
        for name, records in payloads.items():
            lines = [json.dumps({**record, **(extra or {}), "ticker": ticker, "id": f"{record['id']}-{ticker}-{copy}"})
                     for copy in range(copies) for record in records]
            (dest / ticker / name).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return len(tickers) * copies * sum(map(len, payloads.values()))


def write_verdicts(fixtures: Path, path: Path) -> int:
    """An external verdict for every (source, id) key of the document payloads under `fixtures`; returns their count."""
    keys = {(record["id"], record["source"]) for payloads in sorted(fixtures.glob("*/*.jsonl"))
            for record in map(json.loads, payloads.read_text(encoding="utf-8").splitlines())}
    path.write_text("id,source,label,score\n" + "".join(f"{i},{source},neutral,0.5\n" for i, source in sorted(keys)),
                    encoding="utf-8")
    return len(keys)


def cyclic_garbage(argv: list[list[str]]) -> dict[str, int]:
    """Objects, by type, that only the cyclic collector frees after the commands run."""
    gc.disable()
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for args in argv:
            assert run_cli(args) == 0
        gc.collect()
        return dict(sorted(Counter(type(obj).__name__ for obj in gc.garbage).items()))
    finally:
        gc.set_debug(0)
        gc.garbage.clear()


# The same tickers on every side of a comparison: json.dumps(..., indent=2) leaves one encoder cycle per
# analysis file it writes, so the cyclic garbage of a command grows with its tickers, not with its documents.
CYCLE_TICKERS = [f"W{i}" for i in range(4)]


def test_commands_form_no_cycle_per_document(tmp_path, collector_state):
    # A cycle per document would make the collector's passes, and what they leave to free, grow with the corpus.
    def argv(name: str, copies: int) -> tuple[list[list[str]], int]:
        fixtures, out = tmp_path / name / "fixtures", tmp_path / name / "out"
        n_docs = write_wide_fixtures(fixtures, CYCLE_TICKERS, copies)
        common = ["--out", str(out), "--window", JULY, "--tickers", ",".join(CYCLE_TICKERS)]
        return [["run", "--fixtures", str(fixtures), *common], ["report", *common]], n_docs
    small_argv, n_small = argv("small", copies=1)
    wide_argv, n_wide = argv("wide", copies=10)
    assert n_wide == 10 * n_small
    cyclic_garbage(small_argv)  # first calls may fill caches once
    assert cyclic_garbage(wide_argv) == cyclic_garbage(small_argv)


def test_external_verdicts_and_unknown_fields_form_no_cycle_per_document(tmp_path, capsys, collector_state):
    # The replay-external path: every document scored from a verdict CSV that grows with the corpus,
    # and every payload carrying a field counted into the per-file unknown-field note.
    def argv(name: str, copies: int) -> tuple[list[list[str]], int]:
        fixtures, out = tmp_path / name / "fixtures", tmp_path / name / "out"
        write_wide_fixtures(fixtures, CYCLE_TICKERS, copies, extra={"lang": "en"})
        n_docs = write_verdicts(fixtures, tmp_path / name / "verdicts.csv")
        common = ["--out", str(out), "--window", JULY, "--tickers", ",".join(CYCLE_TICKERS)]
        return [["run", "--fixtures", str(fixtures), "--external-verdicts", str(tmp_path / name / "verdicts.csv"),
                 *common], ["report", *common]], n_docs
    small_argv, n_small = argv("small", copies=1)
    wide_argv, n_wide = argv("wide", copies=10)
    assert n_wide == 10 * n_small
    cyclic_garbage(small_argv)  # first calls may fill caches once
    small, wide = cyclic_garbage(small_argv), cyclic_garbage(wide_argv)
    out, err = capsys.readouterr()
    assert len(re.findall(r"scored (\d+) documents \(\1 external\)", out)) == 3  # every document, every run
    assert err.count("ignored unknown field(s) lang") == 2 * 3 * len(CYCLE_TICKERS)  # each ticker's two files, per run
    assert wide == small


def test_run_holds_one_tickers_documents_at_a_time(tmp_path):
    # The same records for each of four tickers: a run that held every ticker's documents
    # at once peaked 2.2 times as high as on one of them, one ticker at a time 1.1 times.
    tickers = [f"W{i}" for i in range(4)]
    write_wide_fixtures(tmp_path / "fixtures", tickers, copies=10)

    def traced_peak(keys: list[str]) -> int:
        argv = ["run", "--fixtures", str(tmp_path / "fixtures"), "--out", str(tmp_path / f"out{len(keys)}"),
                "--window", JULY, "--tickers", ",".join(keys)]
        assert run_cli(argv) == 0  # first calls may fill caches once
        tracemalloc.start()
        try:
            assert run_cli(argv) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    one, four = traced_peak(tickers[:1]), traced_peak(tickers)
    assert four < 1.6 * one, (one, four, four / one)


def test_the_per_day_table_holds_a_composite_in_under_16_bytes():
    # On Pythons 3.10 to 3.13, a list per day held a pointer to a float object of its own, 32.1 B a
    # composite; an array('d') holds the 8 bytes of the value, 8.6 B with its growth slack.
    rng = random.Random(5)
    labels = list(SentimentLabel)
    scored = [
        scored_of(make_doc(f"t{i}", ticker=("GS", "AMZN")[i % 2], day=JULY_WINDOW.start + timedelta(days=i % 10)),
                  SentimentVerdict(rng.choice(labels), rng.random()))
        for i in range(20_000)
    ]
    config = RunConfig(tickers=("GS", "AMZN"), window=JULY_WINDOW)
    table = {ticker: {} for ticker in config.tickers}
    tracemalloc.start()
    try:
        cli._fold(config, table, scored)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert sorted(table["GS"]) == [JULY_WINDOW.start + timedelta(days=d) for d in range(0, 10, 2)]
    kept = [composite for days in table.values() for composites in days.values() for composite in composites]
    assert sorted(kept) == sorted(sd.verdict.composite for sd in scored)
    assert held / len(scored) < 16, held / len(scored)
