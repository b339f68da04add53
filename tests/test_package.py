import ast
from pathlib import Path

import refnet

ROOT = Path(__file__).resolve().parents[1]
SCANNED = ("src/refnet", "tests", "demos")


def test_every_exported_name_resolves():
    assert [n for n in refnet.__all__ if not hasattr(refnet, n)] == []


def unread_imports(tree):
    """Names the module's imports bind and no expression reads, leaving out
    ``__future__`` imports and the names the module lists in ``__all__``."""
    bound, read, exported = {}, set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    bound[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
            exported |= set(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in bound.items()
                  if name not in read | exported)


def test_no_module_imports_a_name_it_never_reads():
    unread = [f"{path.relative_to(ROOT)}:{line}: {name}"
              for top in SCANNED for path in sorted((ROOT / top).glob("*.py"))
              for line, name in unread_imports(ast.parse(path.read_text()))]
    assert unread == []


def test_the_import_guard_sees_an_unread_name():
    tree = ast.parse("from __future__ import annotations\n"
                     "import os.path\nimport numpy as np\n"
                     "from a import b, c\n__all__ = ['c']\nos.sep\n")
    assert unread_imports(tree) == [(3, "np"), (4, "b")]
