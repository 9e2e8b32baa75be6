"""Every module-level function in bsroots has a caller, is exported, or is a test oracle.

A function counts as used when some code in `src/bsroots` outside its own body
names it, or when the package's `__all__` lists it.  A test oracle has no
caller in the package by design and says so in its docstring.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "bsroots"


def _exported(trees) -> set[str]:
    names = set()
    for tree in trees.values():
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                names.update(ast.literal_eval(node.value))
    return names


def _references(trees, name: str, own_body: ast.AST) -> int:
    skip = {id(node) for node in ast.walk(own_body)}
    count = 0
    for tree in trees.values():
        for node in ast.walk(tree):
            if id(node) in skip:
                continue
            if isinstance(node, ast.Name) and node.id == name:
                count += 1
            elif isinstance(node, ast.Attribute) and node.attr == name:
                count += 1
    return count


def unused_functions() -> list[str]:
    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.glob("*.py"))
    }
    exported = _exported(trees)
    unused = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, ast.FunctionDef) or node.name in exported:
                continue
            if "oracle" in (ast.get_docstring(node) or ""):
                continue
            if not _references(trees, node.name, node):
                unused.append(f"{module}:{node.name}")
    return unused


def test_every_function_is_used():
    assert unused_functions() == []
