"""Every name a module of the package imports is read in that module.

A name listed in the module's ``__all__`` is a re-export, and so is one
imported on a line marked ``# noqa: F401``; ``__future__`` imports are
compiler directives. Each module is only parsed, never imported.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "selfcite"


def unused_imports(source: str) -> list[str]:
    """The names ``source`` imports at any depth and never reads, in order."""
    tree = ast.parse(source)
    lines = source.splitlines()
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported.update(ast.literal_eval(node.value))
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            name = alias.asname or alias.name.partition(".")[0]
            if name not in read and name not in exported \
                    and "# noqa: F401" not in lines[alias.lineno - 1]:
                unused.append(name)
    return unused


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_every_import_is_read(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unread_imports_are_found():
    source = (
        "from __future__ import annotations\n"
        "from array import array\n"
        "from itertools import (\n"
        "    chain,\n"
        "    compress,\n"
        "    count,  # noqa: F401\n"
        ")\n"
        "import numpy as np\n"
        "import os.path\n"
        "__all__ = ['Kept']\n"
        "from x import Kept\n"
        "def f():\n"
        "    import json\n"
        "    return chain(os.path.sep)\n"
    )
    assert unused_imports(source) == ["array", "compress", "np", "json"]
