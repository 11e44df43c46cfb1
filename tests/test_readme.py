"""README drift: its stage table and exit-code table match the parser and the error classes."""

from __future__ import annotations

import argparse
import itertools
import re

import pytest

from esgsent.cli import build_parser
from esgsent.errors import PipelineError
from esgsent.corpus import Document
from esgsent.sentiment import default_lexicon, read_scored, score_corpus

from conftest import REPO_ROOT, run_cli

SUBCOMMANDS = ["report", "run"]


def readme_table(heading: str) -> list[list[str]]:
    """The cells of each body row of the first table under a README heading."""
    section = (REPO_ROOT / "README.md").read_text(encoding="utf-8").split(f"\n## {heading}\n")[1].split("\n## ")[0]
    lines = section.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("|"))
    rows = list(itertools.takewhile(lambda line: line.startswith("|"), lines[start:]))
    return [[cell.strip() for cell in row.strip("|").split("|")] for row in rows[2:]]


def parser_subcommands() -> list[str]:
    (action,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return list(action.choices)


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
    score_corpus([doc], default_lexicon(), {sd.key: sd.verdict}, tmp_path / "corpus.jsonl", path)
    assert path.read_text(encoding="utf-8") == line + "\n"
