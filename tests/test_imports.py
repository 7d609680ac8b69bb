"""No module imports a name it never uses, and the package defines nothing
it never reads.

Every module of the package and of the test suite is parsed with ``ast``.
A name an import binds counts as used when it is read anywhere in the
module (including inside string annotations, which ``from __future__ import
annotations`` leaves as strings) or listed in ``__all__``.  ``from
__future__`` imports are skipped.

A ``def``, ``class`` or module-level assignment in the package counts as
read when some module of the package reads its name as a ``Name``, an
``Attribute``, an imported name or a keyword argument; ``__all__`` entries
do not count.  Dunders are exempt, and so is ``cli._Parser.error``, which
argparse calls.

A field of a package dataclass counts as read when some module of the
package reads its name as a ``Name`` or an ``Attribute``; passing it as a
keyword argument only writes it.
"""

from __future__ import annotations

import ast

import pytest

from conftest import REPO_ROOT

PACKAGE = sorted((REPO_ROOT / "src" / "qft_forge").glob("*.py"))
MODULES = sorted([*PACKAGE, *(REPO_ROOT / "tests").glob("*.py")])

# read from outside the package: argparse calls the parser's error hook
CALLED_FROM_OUTSIDE = {"cli._Parser.error"}


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


def definitions(tree: ast.Module, module: str):
    """(qualified name, name, line) for every def and class at any depth,
    and every name a module-level assignment binds."""
    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield f"{prefix}.{child.name}", child.name, child.lineno
                yield from walk(child, f"{prefix}.{child.name}")
            else:
                yield from walk(child, prefix)

    yield from walk(tree, module)
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for name in (n for target in targets for n in ast.walk(target)):
                if isinstance(name, ast.Name):
                    yield f"{module}.{name.id}", name.id, node.lineno


def read_names(tree: ast.Module):
    reads = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            reads.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            reads.add(node.attr)
        elif isinstance(node, ast.alias):
            reads.add(node.name.split(".")[-1])
        elif isinstance(node, ast.keyword) and node.arg is not None:
            reads.add(node.arg)
    return reads


def dead_definitions(sources):
    """Definitions in ``sources`` (module name -> source text) read by none of them."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    reads = set().union(*map(read_names, trees.values()))
    return sorted(
        f"{qualified} (line {line})"
        for module, tree in trees.items()
        for qualified, name, line in definitions(tree, module)
        if name not in reads
        and not (name.startswith("__") and name.endswith("__"))
        and qualified not in CALLED_FROM_OUTSIDE
    )


def test_every_definition_is_read():
    dead = dead_definitions({path.stem: path.read_text(encoding="utf-8") for path in PACKAGE})
    assert not dead, f"defined but never read in the package: {', '.join(dead)}"


def test_a_dead_definition_is_caught():
    sources = {
        "a": "LIMIT = 3\nUNUSED = 4\n__all__ = ['UNUSED']\n"
        "class Box:\n    def used(self):\n        return LIMIT\n    def spare(self):\n"
        "        pass\n    def __repr__(self):\n        return ''\n",
        "b": "from a import Box\nBox().used()\ndef call(limit):\n    pass\ncall(limit=1)\n",
    }
    assert dead_definitions(sources) == ["a.Box.spare (line 7)", "a.UNUSED (line 2)"]


def is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def dead_fields(sources):
    """Dataclass fields in ``sources`` (module name -> source text) that none
    of them reads as a name or an attribute."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    reads = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.add(node.attr)
    return sorted(
        f"{module}.{cls.name}.{stmt.target.id} (line {stmt.lineno})"
        for module, tree in trees.items()
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef) and is_dataclass(cls)
        for stmt in cls.body
        if isinstance(stmt, ast.AnnAssign)
        and isinstance(stmt.target, ast.Name)
        and stmt.target.id not in reads
    )


def test_every_dataclass_field_is_read():
    dead = dead_fields({path.stem: path.read_text(encoding="utf-8") for path in PACKAGE})
    assert not dead, f"dataclass fields never read in the package: {', '.join(dead)}"


def test_a_dead_field_is_caught():
    sources = {
        "a": "from dataclasses import dataclass\n"
        "@dataclass(frozen=True)\nclass Pair:\n    left: int\n    right: int = 0\n"
        "@dataclass\nclass Plain:\n    spare: int\n"
        "class NotData:\n    extra: int\n",
        "b": "from a import Pair, Plain\nprint(Pair(left=1, right=2).left)\nPlain(spare=3)\n",
    }
    assert dead_fields(sources) == ["a.Pair.right (line 5)", "a.Plain.spare (line 8)"]
