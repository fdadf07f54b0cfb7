"""Every name a package module imports, and every private function or class
it defines at top level, is used in that module.

A deletion that leaves its import behind (a removed class still imported by
its former consumer, say), or a helper whose last caller went, fails here.
Standard-library ``ast`` only: a name counts as used when it is loaded
anywhere in the module, including inside a string annotation.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "assertforge"


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name an import statement binds, with the line that binds it."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def private_definitions(tree: ast.Module) -> dict[str, int]:
    """Each top-level function or class whose name starts with ``_``, with its line."""
    return {node.name: node.lineno for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.name.startswith("_")}


def used_names(tree: ast.Module) -> set[str]:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for ann in annotations:
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                used |= used_names(ast.parse(ann.value, mode="eval"))
    return used


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = used_names(tree)
    unused = {name: line for name, line in imported_names(tree).items() if name not in used}
    assert unused == {}, f"{path.name} imports names it never uses (name: line): {unused}"


def test_an_unused_import_is_found():
    tree = ast.parse("from .dataset import EvalCase, GoldenSolution\n"
                     "import json\n"
                     "def f(case: 'EvalCase') -> None:\n"
                     "    return json.dumps(1)\n")
    assert set(imported_names(tree)) - used_names(tree) == {"GoldenSolution"}


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_uses_every_private_helper_it_defines(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = used_names(tree)
    unused = {name: line for name, line in private_definitions(tree).items() if name not in used}
    assert unused == {}, f"{path.name} defines private helpers it never uses (name: line): {unused}"


def test_an_unused_private_helper_is_found():
    tree = ast.parse("def _render_rows(rows):\n"
                     "    return rows\n"
                     "class _Kept:\n"
                     "    pass\n"
                     "def render(counts) -> '_Kept':\n"
                     "    return counts\n")
    assert set(private_definitions(tree)) - used_names(tree) == {"_render_rows"}
