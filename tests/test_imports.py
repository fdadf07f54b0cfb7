"""Every name a package module imports, and every private function or class
it defines at top level, is used in that module; every public one is used
somewhere in the package; every exception class in ``errors.py`` is named by
some ``except`` clause in it; every name a docstring writes in double
backticks is one the package still has.

A deletion that leaves its import behind (a removed class still imported by
its former consumer, say), or a helper whose last caller went, fails here.
Standard-library ``ast`` only: a name counts as used when it is loaded
anywhere in the module, including inside a string annotation.
"""

import ast
import keyword
import re
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


def public_definitions(tree: ast.Module) -> list[tuple[str, ast.stmt]]:
    """Each top-level function, class or constant whose name does not start
    with ``_``, with its statement. A click command or group is left out: the
    entry point, not a load, reaches it."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not any(isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute)
                       and d.func.attr in ("command", "group") for d in node.decorator_list):
                found.append((node.name, node))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [(t.id, node) for t in targets if isinstance(t, ast.Name)]
    return [(name, node) for name, node in found if not name.startswith("_")]


def dead_public_names(modules: dict[str, ast.Module]) -> set[str]:
    """``module.name`` of each public definition that no top-level statement
    of any module loads, other than the definition itself. A load after a dot,
    as in ``tm.nll``, counts."""
    loads = [(stmt, used_names(stmt) | {n.attr for n in ast.walk(stmt)
                                        if isinstance(n, ast.Attribute)})
             for tree in modules.values() for stmt in tree.body]
    return {f"{module}.{name}"
            for module, tree in modules.items()
            for name, node in public_definitions(tree)
            if not any(name in names for stmt, names in loads if stmt is not node)}


def package_modules() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            for path in sorted(PACKAGE.glob("*.py"))}


def test_package_uses_every_public_name_it_defines():
    assert dead_public_names(package_modules()) == set(), (
        "public names nothing in the package loads")


def test_a_dead_public_name_is_found():
    a = ast.parse("RATE = 2\n"
                  "def used(x):\n"
                  "    return x * RATE\n"
                  "def only_itself(n):\n"
                  "    return only_itself(n - 1)\n"
                  "class Kept:\n"
                  "    pass\n"
                  "@main.command()\n"
                  "def cmd():\n"
                  "    pass\n")
    b = ast.parse("from . import a\n"
                  "def run() -> 'Kept':\n"
                  "    return a.used(1)\n")
    assert dead_public_names({"a": a, "b": b}) == {"a.only_itself", "b.run"}


def uncaught_error_classes(errors: ast.Module, modules) -> set[str]:
    """Each class ``errors`` defines that no ``except`` clause of ``modules``
    names, alone or in a tuple; ``errors.SchemaError`` names ``SchemaError``."""
    caught = set()
    for tree in modules:
        for node in ast.walk(tree):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
                caught |= {t.id if isinstance(t, ast.Name) else t.attr for t in types
                           if isinstance(t, (ast.Name, ast.Attribute))}
    return {node.name for node in errors.body if isinstance(node, ast.ClassDef)} - caught


def test_package_catches_every_error_class_it_defines():
    modules = package_modules()
    assert uncaught_error_classes(modules["errors"], modules.values()) == set(), (
        "error classes no except clause names: raise AssertForgeError or DomainError instead")


def test_an_error_class_no_except_names_is_found():
    errors = ast.parse("class BaseError(Exception):\n    pass\n"
                       "class Alone(BaseError):\n    pass\n"
                       "class InTuple(BaseError):\n    pass\n"
                       "class Dotted(BaseError):\n    pass\n"
                       "class OnlyRaised(BaseError):\n    pass\n")
    user = ast.parse("from . import errors\n"
                     "try:\n    run()\n"
                     "except Alone:\n    pass\n"
                     "except (ValueError, InTuple) as exc:\n    raise OnlyRaised(str(exc))\n"
                     "except errors.Dotted:\n    pass\n"
                     "except BaseError:\n    pass\n"
                     "except:\n    pass\n")
    assert uncaught_error_classes(errors, [errors, user]) == {"OnlyRaised"}


_DOC_NAME = re.compile(r"``([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)``")
_FILE_NAME = re.compile(r"\.(jsonl?|csv|py|s?v)$")


def docstring_names(tree: ast.Module) -> set[str]:
    """Each ``name`` or ``dotted.name`` a docstring of ``tree`` writes in
    double backticks. A file name such as ``results.jsonl``, and any other
    backticked text, is left out."""
    return {name for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            for name in _DOC_NAME.findall(ast.get_docstring(node, clean=False) or "")
            if not _FILE_NAME.search(name)}


def held_names(tree: ast.Module) -> set[str]:
    """Every name ``tree`` defines, binds or loads, and every string constant it holds."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.arg):
            names.add(node.arg)
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names |= {node.asname or node.name, *node.name.split(".")}
        elif isinstance(node, ast.keyword) and node.arg:
            names.add(node.arg)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def stale_docstring_names(modules: dict[str, ast.Module]) -> set[str]:
    """``module: name`` of each backticked docstring name that is not a name or
    string constant of any module, a module name or a Python keyword; a
    dotted name is stale unless it is held whole or each of its parts is."""
    held = set(modules) | set(keyword.kwlist)
    for tree in modules.values():
        held |= held_names(tree)
    return {f"{module}: {name}" for module, tree in modules.items()
            for name in docstring_names(tree)
            if name not in held and not all(part in held for part in name.split("."))}


def test_package_docstrings_name_only_what_the_package_has():
    assert stale_docstring_names(package_modules()) == set(), (
        "docstrings name what the package no longer defines")


def test_a_stale_docstring_name_is_found():
    a = ast.parse('"""Reads ``KEY`` and ``b.kept``, not ``gone_helper`` or ``b.Gone``;\n'
                  '``None``, ``(kind, text)``, ``split.json`` and ``out.jsonl`` pass."""\n'
                  "from . import b\n"
                  "def f(key='KEY'):\n"
                  '    """Calls ``b.kept(key)`` through ``f``, and ``helper``."""\n'
                  "    return b.kept(key)\n")
    b = ast.parse("def kept(x):\n    return x\n")
    assert stale_docstring_names({"a": a, "b": b}) == {
        "a: gone_helper", "a: b.Gone", "a: helper"}


# ``pyproject.toml`` declares ``requires-python = ">=3.10"``.
@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_parses_as_python_3_10(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


def test_python_3_11_syntax_is_found():
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))


_NEWER_REGEX = re.compile(r"[*+?}]\+|\(\?>")


def newer_regex_syntax(pattern: str) -> list[str]:
    """The possessive quantifiers and atomic groups in ``pattern``, which
    Python's ``re`` reads only from 3.11 on; an escaped character counts as a
    plain one."""
    return _NEWER_REGEX.findall(re.sub(r"\\.", "x", pattern))


def test_corpus_patterns_use_no_python_3_11_regex_syntax():
    from assertforge import corpus

    patterns = [v.pattern for v in vars(corpus).values() if isinstance(v, re.Pattern)]
    assert len(patterns) >= 2
    assert [p for p in patterns if newer_regex_syntax(p)] == []


def test_python_3_11_regex_syntax_is_found():
    assert newer_regex_syntax(r"(?:a|b)*+(c++|d?+|e{2}+)") == ["*+", "++", "?+", "}+"]
    assert newer_regex_syntax(r"(?>ab)\*+\++\?+") == ["(?>"]
