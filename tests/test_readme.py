"""README drift: its stage table and exit-code table match the parser and the error classes."""

from __future__ import annotations

import argparse
import itertools
import re

import pytest

from esgsent.cli import build_parser
from esgsent.config import PARSERS, RunConfig
from esgsent.errors import PipelineError
from esgsent.corpus import Document
from esgsent.sentiment import default_lexicon, read_scored, score_corpus
from esgsent.util import atomic_open

from conftest import REPO_ROOT, run_cli

SUBCOMMANDS = ["report", "run"]


def readme_table(heading: str) -> list[list[str]]:
    """The cells of each body row of the first table under a README heading."""
    section = (REPO_ROOT / "README.md").read_text(encoding="utf-8").split(f"\n## {heading}\n")[1].split("\n## ")[0]
    lines = section.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("|"))
    rows = list(itertools.takewhile(lambda line: line.startswith("|"), lines[start:]))
    return [[cell.strip() for cell in row.strip("|").split("|")] for row in rows[2:]]


def subparsers() -> dict[str, argparse.ArgumentParser]:
    (action,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def parser_subcommands() -> list[str]:
    return list(subparsers())


def test_parser_has_the_two_subcommands():
    assert parser_subcommands() == SUBCOMMANDS


@pytest.mark.parametrize("name", ["ingest", "score", "aggregate", "prices", "analyze"])
def test_a_deleted_subcommand_is_a_usage_error(capsys, name):
    with pytest.raises(SystemExit) as exit_info:
        run_cli([name])
    assert exit_info.value.code == 2
    assert f"invalid choice: '{name}'" in capsys.readouterr().err


def test_readme_stage_table_lists_the_subcommands():
    assert [row[0] for row in readme_table("Stages")] == [f"`{name}`" for name in parser_subcommands()]


def subcommand_flags(name: str) -> set[str]:
    return {flag for action in subparsers()[name]._actions for flag in action.option_strings}


def test_readme_configuration_table_lists_each_config_key_with_its_flag_and_default():
    rows = readme_table("Configuration")
    assert [key for key, *_ in rows] == [f"`{key}`" for key in PARSERS]
    run_flags = subcommand_flags("run")
    run_only = run_flags - subcommand_flags("report")
    for (_, flag, _, default), name in zip(rows, PARSERS):
        option = "--" + name.replace("_", "-")
        assert option in run_flags
        assert flag == f"`{option}`" + (" (`run` only)" if option in run_only else ""), flag
        # A default in backticks is a literal, which the key's parser reads as RunConfig's default.
        literal = re.fullmatch(r"`([^`]*)`", default)
        if literal:
            text = {"true": True, "false": False}.get(literal[1], literal[1])
            assert PARSERS[name](text) == RunConfig._field_defaults[name], name


def test_readme_exit_code_table_lists_each_error_class():
    documented = {
        (int(code), category)
        for code, categories, _ in readme_table("Exit codes")
        for category in re.findall(r"`([^`]+)`", categories)
    }
    assert documented == {(cls.exit_code, cls.category) for cls in PipelineError.__subclasses__()}


def test_readme_example_scored_line_reads_back(tmp_path):
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8").replace("\n", " ")
    (line,) = re.findall(r'`(\{"id": [^`]*\})`', readme)
    path = tmp_path / "scored.jsonl"
    path.write_text(line + "\n", encoding="utf-8")
    (sd,) = read_scored(path)
    doc = Document(sd.id, sd.source, sd.timestamp, sd.ticker, "text")
    with atomic_open(tmp_path / "corpus.jsonl", path) as (corpus, scored):
        score_corpus([doc], default_lexicon(), {sd.key: sd.verdict}, corpus, scored)
    assert path.read_text(encoding="utf-8") == line + "\n"
