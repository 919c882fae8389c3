"""The sources and the tests parse as the oldest Python that pyproject.toml admits, and the sources import nothing they leave unused."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "vrsp").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def test_pyproject_floor_is_the_one_checked():
    assert 'requires-python = ">=3.10"' in (ROOT / "pyproject.toml").read_text(encoding="utf-8")


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_source_parses_as_python_3_10(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


# Function and comprehension bodies: a name they bind hides the module's own.
_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _bound_in(scope: ast.AST) -> set[str]:
    """The names that a function or comprehension binds itself: arguments, targets, nested definitions."""
    bound = set()
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            bound.add(node.id)
        elif isinstance(node, ast.arg):
            bound.add(node.arg)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif not isinstance(node, _SCOPES):
            stack.extend(ast.iter_child_nodes(node))
    return bound


def _module_reads(node: ast.AST, local: frozenset[str] = frozenset()) -> set[str]:
    """The module-level names read under ``node``: loads that no enclosing function binds."""
    reads = set()
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load) and child.id not in local:
            reads.add(child.id)
        reads |= _module_reads(child, local | _bound_in(child) if isinstance(child, _SCOPES) else local)
    return reads


def _names_used(tree: ast.Module) -> set[str]:
    """Every module-level name that ``tree`` uses: in code, in annotations (string ones too) and in ``__all__``."""
    used = _module_reads(tree)
    for node in ast.walk(tree):
        annotations = []
        if isinstance(node, ast.arg):
            annotations = [node.annotation]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations = [node.returns]
        elif isinstance(node, ast.AnnAssign):
            annotations = [node.annotation]
        elif isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
        for part in (n for a in annotations if a is not None for n in ast.walk(a)):
            if isinstance(part, ast.Name):
                used.add(part.id)
            elif isinstance(part, ast.Constant) and isinstance(part.value, str):
                used |= _names_used(ast.parse(part.value, mode="eval"))
    return used


def _module_imports(body: list[ast.stmt]) -> dict[str, int]:
    """The names bound by the imports among a module's own statements, each with its line."""
    bound = {}
    for node in body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, (ast.If, ast.Try)):
            nested = [*node.body, *node.orelse, *getattr(node, "finalbody", [])]
            nested += [stmt for handler in getattr(node, "handlers", []) for stmt in handler.body]
            bound.update(_module_imports(nested))
    return bound


def _unused_imports(source: str) -> dict[str, int]:
    tree = ast.parse(source)
    used = _names_used(tree)
    return {name: line for name, line in _module_imports(tree.body).items() if name not in used}


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "vrsp").glob("*.py")), ids=lambda p: p.name)
def test_module_imports_are_used(path):
    unused = _unused_imports(path.read_text(encoding="utf-8"))
    assert not unused, f"{path.name}: unused imports (name: line) {unused}"


def test_the_import_check_sees_through_a_local_of_the_same_name():
    source = """
from __future__ import annotations
import os
from itertools import combinations, product
from typing import Sequence
__all__ = ["os"]

def pairs(xs: "Sequence[int]"):
    product = list(combinations(xs, 2))
    return product
"""
    assert _unused_imports(source) == {"product": 4}
