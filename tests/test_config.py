"""Config keys: one parser per key, shared by the config file and the flags."""

from __future__ import annotations

import argparse
import json
from datetime import date
from pathlib import Path

import pytest

from esgsent.aggregation import AffinityThresholds
from esgsent.cli import build_parser
from esgsent.config import PARSERS, RunConfig, resolve_config

from conftest import INT_DIGIT_LIMIT, needs_int_digit_limit, run_cli


def config_of(*argv: str) -> RunConfig:
    return resolve_config(build_parser().parse_args(["run", *argv]))


def write_config(tmp_path: Path, **values) -> Path:
    path = tmp_path / "cfg" / "config.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(values), encoding="utf-8")
    return path


def test_every_subcommand_has_one_flag_per_config_key():
    parser = build_parser()
    (subcommands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    keys = {"--" + key.replace("_", "-") for key in PARSERS}
    assert set(RunConfig._fields) == set(PARSERS)
    # report neither reads fixtures nor scores, so it has no flag that chooses how.
    expected = {"report": keys - {"--fixtures", "--strict", "--lexicon", "--external-verdicts"}, "run": keys}
    for name, sub in subcommands.choices.items():
        flags = {opt for action in sub._actions for opt in action.option_strings if opt.startswith("--")}
        assert flags - {"--help", "--config"} == expected[name], name


def test_file_paths_resolve_against_the_file_and_flag_paths_against_the_cwd(tmp_path):
    path = write_config(tmp_path, fixtures="fx", out="o", lexicon="lex",
                        external_verdicts=str(tmp_path / "v.csv"))
    config = config_of("--config", str(path))
    assert config.fixtures == path.parent / "fx"
    assert config.out == path.parent / "o"
    assert config.lexicon == path.parent / "lex"
    assert config.external_verdicts == tmp_path / "v.csv"
    flagged = config_of("--config", str(path), "--out", "o", "--lexicon", "lex")
    assert flagged.out == Path("o") and flagged.lexicon == Path("lex")
    assert flagged.fixtures == path.parent / "fx"


def test_flags_win_over_the_file(tmp_path):
    path = write_config(tmp_path, tickers=["GS"], price_days=5, thresholds="0.2,-0.2", strict=False,
                        window="2022-07-20:2022-07-29")
    from_file = config_of("--config", str(path))
    assert from_file.tickers == ("GS",) and from_file.price_days == 5 and not from_file.strict
    flagged = config_of("--config", str(path), "--tickers", "amzn", "--price-days", "7",
                        "--thresholds", "0.1,-0.3", "--strict")
    assert flagged.tickers == ("AMZN",)
    assert flagged.price_days == 7
    assert flagged.thresholds == AffinityThresholds(0.1, -0.3)
    assert flagged.strict is True
    assert flagged.window == from_file.window


def test_unset_keys_take_the_run_config_defaults(tmp_path):
    config = config_of("--config", str(write_config(tmp_path, window="2022-07-20:2022-07-29")))
    default = RunConfig()
    assert (config.tickers, config.price_days, config.thresholds, config.strict) == (
        default.tickers, default.price_days, default.thresholds, default.strict)
    assert config.lexicon is None and config.external_verdicts is None


@pytest.mark.parametrize("file_value,flag_value", [
    ("GS,AMZN", "GS,AMZN"),
    (["GS", "AMZN"], "gs, amzn"),
    ([" gs", "Amzn"], " gs,AMZN "),
])
def test_tickers_accept_the_flag_text_and_a_list(tmp_path, file_value, flag_value):
    assert config_of("--config", str(write_config(tmp_path, tickers=file_value))).tickers == ("GS", "AMZN")
    assert config_of("--tickers", flag_value).tickers == ("GS", "AMZN")


def test_ticker_keys_may_hold_dots_carets_dashes_and_equals(tmp_path):
    keys = ("BRK-B", "0005.HK", "^GSPC", "EURUSD=X")
    assert config_of("--config", str(write_config(tmp_path, tickers=["brk-b", *keys[1:]]))).tickers == keys
    assert config_of("--tickers", ",".join(keys)).tickers == keys


def test_text_forms_from_the_file_equal_the_flags(tmp_path):
    path = write_config(tmp_path, window="2022-07-01:2022-07-10", price_days="30", thresholds="0.3,-0.1",
                        strict=True)
    config = config_of("--config", str(path))
    assert config.window.start == date(2022, 7, 1) and config.window.end == date(2022, 7, 10)
    assert config.price_days == 30
    assert config.thresholds == AffinityThresholds(0.3, -0.1)
    assert config.strict is True
    flagged = config_of("--window", "2022-07-01:2022-07-10", "--price-days", "30",
                        "--thresholds", "0.3,-0.1", "--strict")
    assert (flagged.window, flagged.price_days, flagged.thresholds, flagged.strict) == (
        config.window, config.price_days, config.thresholds, config.strict)


BAD_VALUES = [
    # (key, value in the config file, flag argv or None when the flag has no such form,
    #  the message after the key and source, or None to check only that prefix)
    ("strict", "false", None, None),
    ("strict", 1, None, None),
    ("lexicon", "", ["--lexicon", ""], None),
    ("external_verdicts", "", ["--external-verdicts", ""], None),
    ("fixtures", None, ["--fixtures", " "], None),
    ("price_days", 2.9, ["--price-days", "2.9"], None),
    ("price_days", True, ["--price-days", "true"], None),
    ("price_days", 1, ["--price-days", "1"], None),
    ("price_days", "", ["--price-days", ""], None),
    ("price_days", "2_0", ["--price-days", "2_0"], "expected an integer, got '2_0'"),
    ("price_days", " 20 ", ["--price-days", " 20 "], "expected an integer, got ' 20 '"),
    ("price_days", "\u0662\u0660", ["--price-days", "\u0662\u0660"], None),
    ("price_days", "+20", ["--price-days", "+20"], None),
    ("tickers", "GS,,AMZN", ["--tickers", "GS,,AMZN"], None),
    ("tickers", ["GS", "gs"], ["--tickers", "GS,gs"], None),
    ("tickers", [], ["--tickers", ""], None),
    ("tickers", [{"key": "GS", "display_name": "Goldman Sachs"}], None, None),
    ("tickers", ["GS", "../../GS"], ["--tickers", "GS,../../GS"], None),
    ("tickers", ["GS,X"], None, None),
    ("tickers", ["A<B"], ["--tickers", "A<B"], None),
    ("tickers", ["."], ["--tickers", "."], None),
    ("tickers", ["-X"], ["--tickers=-X"], None),
    ("window", {"start": "2022-07-20", "end": "2022-07-29"}, None, None),
    ("window", "2022-07-29:2022-07-20", ["--window", "2022-07-29:2022-07-20"],
     "window start 2022-07-29 is after end 2022-07-20"),
    ("thresholds", [0.15, -0.15], None, None),
    ("thresholds", {"affine_min": 0.15, "averse_max": -0.15}, None, None),
    ("thresholds", "0.15", ["--thresholds", "0.15"], None),
    ("thresholds", "-0.15,0.15", ["--thresholds=-0.15,0.15"], None),
]


@pytest.mark.parametrize("key,file_value,flag_argv,message", BAD_VALUES)
def test_a_bad_value_is_one_config_error_naming_key_and_source(tmp_path, capsys, key, file_value, flag_argv,
                                                                message):
    out = tmp_path / "out"
    path = write_config(tmp_path, **{key: file_value})
    cases = [(["--config", str(path)], str(path))]
    if flag_argv is not None:
        cases.append((flag_argv, flag_argv[0].split("=")[0]))
    for argv, source in cases:
        assert run_cli(["run", *argv, "--out", str(out)]) == 2, source
        errors = capsys.readouterr().err.splitlines()
        assert len(errors) == 1 and errors[0].startswith(f"error[config]: {key} (from {source}): "), errors
        if message is not None:
            assert errors[0] == f"error[config]: {key} (from {source}): {message}"
        assert not out.exists()


@pytest.mark.parametrize("value", ["o\ud800", "o\udcff"])
@pytest.mark.parametrize("key", ["fixtures", "out", "lexicon", "external_verdicts", "config"])
def test_a_path_with_a_lone_surrogate_is_one_config_error(tmp_path, monkeypatch, capsys, key, value):
    # Unchecked, the first file call on it raised UnicodeEncodeError: a traceback and exit 1.
    monkeypatch.chdir(tmp_path)
    flag = "--" + key.replace("_", "-")
    cases = [([flag, value], flag)]
    if key != "config":
        path = write_config(tmp_path, **{key: value})
        cases.append((["--config", str(path)], str(path)))
    before = sorted(tmp_path.rglob("*"))
    for argv, source in cases:
        assert run_cli(["run", *argv, "--window", "2022-07-20:2022-07-29"]) == 2, source
        assert capsys.readouterr().err.splitlines() == [
            f"error[config]: {key} (from {source}): path {value!r} holds a lone surrogate, which UTF-8 cannot encode"]
        assert sorted(tmp_path.rglob("*")) == before


def test_unknown_key_is_one_config_error(tmp_path, capsys):
    path = write_config(tmp_path, tickers=["GS"], ticker=["AMZN"])
    assert run_cli(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error[config]: config {path} has unknown key(s): ticker"]


def test_unknown_flag_is_a_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exit_info:
        run_cli(["run", "--bogus", "GS", "--out", str(tmp_path / "out")])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --bogus GS" in capsys.readouterr().err


@pytest.mark.parametrize("flag,value", [("--price", "5"), ("--tick", "GS")])
def test_flag_prefix_is_a_usage_error(tmp_path, capsys, flag, value):
    with pytest.raises(SystemExit) as exit_info:
        run_cli(["report", flag, value, "--out", str(tmp_path / "out")])
    assert exit_info.value.code == 2
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err


@pytest.mark.parametrize("body", ['["GS"]', '{"tickers": '])
def test_config_file_that_is_not_a_json_object_is_a_config_error(tmp_path, capsys, body):
    path = tmp_path / "config.json"
    path.write_text(body, encoding="utf-8")
    assert run_cli(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    errors = capsys.readouterr().err.splitlines()
    assert len(errors) == 1 and errors[0].startswith(f"error[config]: config {path} ")


@needs_int_digit_limit
def test_a_config_integer_past_the_digit_limit_is_one_config_error(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text('{"tickers": "GS",\n "price_days": ' + "2" * (INT_DIGIT_LIMIT + 1) + "}", encoding="utf-8")
    assert run_cli(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    errors = capsys.readouterr().err.splitlines()
    assert len(errors) == 1 and errors[0].startswith(f"error[config]: config {path} is not valid JSON: "), errors
    assert f"value has {INT_DIGIT_LIMIT + 1} digits" in errors[0]


@pytest.mark.parametrize("text", ["2022-07-20:2022-07-29", "0001-01-01:9999-12-31", "2022-07-20:2022-07-20"])
def test_window_of_yyyy_mm_dd_dates_accepted(text):
    start, end = text.split(":")
    window = config_of("--window", text).window
    assert (window.start, window.end) == (date.fromisoformat(start), date.fromisoformat(end))


@pytest.mark.parametrize("start", ["20220720", "2022W293", "2022-W29", "2022-W29-3", "2022-7-20", "2022-07-20T00:00"])
@pytest.mark.parametrize("side", ["start", "end"])
def test_window_of_other_date_forms_is_a_config_error_on_every_python(tmp_path, capsys, start, side):
    text = f"{start}:2022-07-29" if side == "start" else f"2022-07-01:{start}"
    try:
        date.fromisoformat(start)  # from Python 3.11 on the first four read as 20 July
        reason = "expected START:END dates as YYYY-MM-DD"
    except ValueError:
        reason = "expected START:END ISO dates"
    out = tmp_path / "out"
    assert run_cli(["run", "--window", text, "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error[config]: window (from --window): bad window {text!r}: {reason}"]
    assert not out.exists()
