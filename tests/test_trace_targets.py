"""The names bench/traced.py patches: those it cannot find are the ones CI allows."""

from __future__ import annotations

import importlib.util
import re

from esgsent import aggregation, analysis, cli, corpus, market, sentiment, transport, util

from conftest import REPO_ROOT

MODULES = {m.__name__.rsplit(".", 1)[-1]: m
           for m in (aggregation, analysis, cli, corpus, market, sentiment, transport, util)}


def load_traced():
    spec = importlib.util.spec_from_file_location("traced", REPO_ROOT / "bench" / "traced.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def unfound_targets(patches: list[tuple[str, str, str]]) -> list[str]:
    """The targets Tracer.patch would list as not found, looked up the same way but left unpatched."""
    missing = []
    for module_name, attr, _ in patches:
        owner = MODULES[module_name]
        *path, name = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        if owner is None or not hasattr(owner, name):
            missing.append(f"{module_name}.{attr}")
    return missing


def test_unfound_trace_targets_are_the_line_ci_allows():
    workflow = (REPO_ROOT / ".github" / "workflows" / "tier1.yml").read_text(encoding="utf-8")
    (allowed,) = re.findall(r"grep -vxF '  not traced \(name not found\): ([^']*)'", workflow)
    assert ", ".join(unfound_targets(load_traced().PATCHES)) == allowed
