"""No module imports a name it never uses.

Every module of the package and of the test suite is parsed with ``ast``.
A name an import binds counts as used when it is read anywhere in the
module (including inside string annotations, which ``from __future__ import
annotations`` leaves as strings) or listed in ``__all__``.  ``from
__future__`` imports are skipped.
"""

from __future__ import annotations

import ast

import pytest

from conftest import REPO_ROOT

MODULES = sorted(
    [*(REPO_ROOT / "src" / "qft_forge").glob("*.py"), *(REPO_ROOT / "tests").glob("*.py")]
)


def imported_names(tree: ast.Module):
    """(bound name, line) for every import outside ``from __future__``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def used_names(tree: ast.Module):
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            root = node
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name):
                used.add(root.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # a string annotation such as "Node" or "Optional[int]"
            try:
                used |= used_names(ast.parse(node.value, mode="eval"))
            except SyntaxError:
                pass
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = used_names(tree)
    unused = [f"{name} (line {line})" for name, line in imported_names(tree) if name not in used]
    assert not unused, f"{path.name} imports names it never uses: {', '.join(unused)}"


def test_an_unused_import_is_caught():
    tree = ast.parse("import os\nfrom typing import List, Optional\nx: 'List[int]' = []\n")
    assert sorted(n for n, _ in imported_names(tree) if n not in used_names(tree)) == [
        "Optional",
        "os",
    ]
