"""Every top-level import in the package is used."""

import ast
from pathlib import Path

import pytest

import fwmqkd

MODULES = sorted(Path(fwmqkd.__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names the top-level imports of a module bind and nothing reads.

    A name is read where the code loads it or where __all__ lists it.  An
    import on a line marked noqa: F401 re-exports its names on purpose.
    """
    tree = ast.parse(source)
    lines = source.splitlines()
    bound = [alias.asname or alias.name.split(".")[0]
             for node in tree.body
             if isinstance(node, ast.Import)
             or isinstance(node, ast.ImportFrom) and node.module != "__future__"
             for alias in node.names
             if "noqa: F401" not in lines[alias.lineno - 1]]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read |= {item.value for item in ast.walk(node.value) if isinstance(item, ast.Constant)}
    return [name for name in bound if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_top_level_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_an_unused_import_is_found():
    source = ("from __future__ import annotations\n"
              "import contextlib\n"
              "import json, os.path\n"
              "from math import inf, pi as PI\n"
              "from .x import kept  # noqa: F401\n"
              "from .y import listed\n"
              "__all__ = ['listed']\n"
              "print(json.dumps(os.sep), PI)\n")
    assert unused_imports(source) == ["contextlib", "inf"]
