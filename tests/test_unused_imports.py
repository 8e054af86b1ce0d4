"""No module under ``src/repro`` imports a name it never uses.

Every module is parsed (package ``__init__`` files, which import in order
to re-export, excepted), and each name an import binds must appear
somewhere else in its module: in code, or in a string that parses as an
expression (a quoted annotation such as ``"FaultPlan | None"``, an entry
of ``__all__``).  A name listed in ``__all__`` is therefore a re-export,
and an import on a line marked ``# noqa: F401`` is kept for its side
effect (the experiment modules' ``@register`` decorations).  Docstrings
do not count as uses.
"""

from __future__ import annotations

import ast
import pathlib

import pytest

import repro

_PACKAGE = pathlib.Path(repro.__file__).resolve().parent
_MODULES = sorted(
    path for path in _PACKAGE.rglob("*.py") if path.name != "__init__.py"
)


def _imports(tree: ast.Module, lines: list[str]):
    """Yield ``(line, bound name)`` for every import not marked noqa."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        span = lines[node.lineno - 1 : node.end_lineno]
        if any("noqa: F401" in line for line in span):
            continue
        for alias in node.names:
            if alias.name != "*":
                yield node.lineno, alias.asname or alias.name.split(".")[0]


def _names_in(text: str) -> set[str]:
    """The names a string mentions when it parses as an expression."""
    try:
        expression = ast.parse(text.strip(), mode="eval")
    except SyntaxError:
        return set()
    return {
        node.id for node in ast.walk(expression) if isinstance(node, ast.Name)
    }


def _used_names(tree: ast.Module) -> set[str]:
    docstrings = {
        id(node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    }
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and id(node) not in docstrings
        ):
            used |= _names_in(node.value)
    return used


def unused_imports(path: pathlib.Path) -> list[str]:
    """``"line: name"`` for each name ``path`` imports and never uses."""
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source, filename=str(path))
    used = _used_names(tree)
    return [
        f"{line}: {name}"
        for line, name in _imports(tree, source.splitlines())
        if name not in used
    ]


def test_the_sweep_covers_the_package():
    names = {path.name for path in _MODULES}
    assert {"network.py", "registry.py", "channel.py"} <= names
    assert "__init__.py" not in names


@pytest.mark.parametrize(
    "path", _MODULES, ids=lambda path: str(path.relative_to(_PACKAGE))
)
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def test_the_check_flags_what_it_should(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text(
        '"""Mentions Mapping only in its docstring."""\n'
        "from __future__ import annotations\n"
        "import os\n"
        "import typing\n"
        "from collections.abc import Mapping, Sequence\n"
        "from json import dumps  # noqa: F401\n"
        "from pathlib import Path\n"
        "if typing.TYPE_CHECKING:\n"
        "    from decimal import Decimal\n"
        "__all__ = ['Path']\n"
        "def f(x: 'Decimal | None') -> Sequence:\n"
        "    return x\n"
    )
    assert unused_imports(module) == ["3: os", "5: Mapping"]
