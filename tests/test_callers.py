"""Nothing ships that no caller uses: each module-level function and class of
``esgsent`` is referenced in the package outside its own definition."""

from __future__ import annotations

import ast

from conftest import REPO_ROOT

# Imported by bench/throughput.py alone, which times them on their own; a name
# leaves this list once the package calls it or the benchmark stops needing it.
BENCH_ONLY = {"filter_window", "parse_document_line", "serialize_document"}


def unreferenced(package) -> set[str]:
    """The module-level functions and classes no code of the package refers
    to, by name or as an attribute, outside their own definitions."""
    defined, referenced = set(), set()
    for path in sorted(package.glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = stmt.name if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) else None
            if owner:
                defined.add(owner)
            for node in ast.walk(stmt):
                name = node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None
                if name and name != owner:
                    referenced.add(name)
    return defined - referenced


def test_every_function_and_class_has_a_caller_but_the_benchmarks_own():
    assert unreferenced(REPO_ROOT / "src" / "esgsent") == BENCH_ONLY
