"""No module of the library imports a name it never uses."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "profact"


def used_names(tree):
    """Every name the module reads, also inside quoted annotations."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        for annotation in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
                used |= used_names(ast.parse(annotation.value, mode="eval"))
    return used


def unused_imports(source):
    """The names bound by the module's imports that nothing reads, with
    the line of each import."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds a
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = used_names(tree)
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_sees_unused_and_quoted_names():
    source = (
        "from __future__ import annotations\n"
        "import itertools, os.path\n"
        "from .base import compose, identity, BaseObject\n"
        "def f(x: 'BaseObject') -> int:\n"
        "    return compose(x, os.path)\n"
    )
    assert unused_imports(source) == [(2, "itertools"), (3, "identity")]
