"""Every module-level name in the package is read somewhere in the package.

A function, class or assignment at module level that no module loads (as a
name, an attribute or an import) is dead code, or a stale name left behind
after a refactor.  Docstrings and comments do not count as reads.
"""

import ast
from pathlib import Path

import flowrank

PACKAGE = Path(flowrank.__file__).resolve().parent


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _defined(tree: ast.Module):
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield stmt.name
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            for target in targets:
                for node in ast.walk(target):
                    if isinstance(node, ast.Name):
                        yield node.id


def _read(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def test_every_module_level_name_is_read():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}
    read = {name for tree in trees.values() for name in _read(tree)}
    defined = [(module, name) for module, tree in trees.items() for name in _defined(tree) if not _is_dunder(name)]
    assert len(defined) > 150  # the walk found the package's definitions
    assert [f"{module}: {name}" for module, name in defined if name not in read] == []
