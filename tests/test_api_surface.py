"""Every public definition of the program has a caller in the program.

A public top-level function or class, or a public method or property, of
`src/ritkit/*.py` or `bench/*.py` (the bench self-tests excepted) must be
named somewhere in those files outside its own definition, as a plain name
or an attribute. A helper that only tests reach fails here; tests do not
count as callers.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).parent.parent
SOURCES = sorted((ROOT / "src" / "ritkit").glob("*.py")) + sorted(
    p for p in (ROOT / "bench").glob("*.py") if p.name != "test_bench.py"
)


def _referenced(node: ast.AST) -> Counter:
    names: Counter = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            names[sub.attr] += 1
    return names


def _definitions(tree: ast.Module):
    """(qualified name, node) of public top-level and class-level definitions."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)) and not member.name.startswith("_"):
                        yield f"{node.name}.{member.name}", member


def unreferenced() -> list[str]:
    trees = {path: ast.parse(path.read_text(encoding="utf-8"), str(path)) for path in SOURCES}
    everywhere: Counter = Counter()
    for tree in trees.values():
        everywhere += _referenced(tree)
    missing = []
    for path, tree in trees.items():
        for qualified, node in _definitions(tree):
            if everywhere[node.name] - _referenced(node)[node.name] == 0:
                missing.append(f"{path.relative_to(ROOT)}: {qualified}")
    return missing


def test_sources_are_found():
    assert any(p.name == "cli.py" for p in SOURCES) and any(p.name == "run.py" for p in SOURCES)


def test_every_public_definition_has_a_caller():
    assert unreferenced() == []
