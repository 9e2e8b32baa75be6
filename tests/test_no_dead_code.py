"""Every function and method in bsroots has a caller, is exported, or is a test oracle.

A module-level function counts as used when some code in `src/bsroots` outside
its own body names it, or when the package's `__all__` lists it.  A test
oracle has no caller in the package by design and says so in its docstring.

A method (other than a dunder) counts as used when some code in `src/bsroots`,
`tests/` or `demos/` outside its own body names it as an attribute (`x.name`).
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "bsroots"


def _parse(directory: Path) -> dict[str, ast.Module]:
    return {
        f"{directory.name}/{path.name}": ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(directory.glob("*.py"))
    }


def _exported(trees) -> set[str]:
    names = set()
    for tree in trees.values():
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                names.update(ast.literal_eval(node.value))
    return names


def _references(trees, name: str, own_body: ast.AST, kinds=(ast.Name, ast.Attribute)) -> int:
    skip = {id(node) for node in ast.walk(own_body)}
    count = 0
    for tree in trees.values():
        for node in ast.walk(tree):
            if id(node) in skip or not isinstance(node, kinds):
                continue
            if getattr(node, "id", None) == name or getattr(node, "attr", None) == name:
                count += 1
    return count


def unused_functions() -> list[str]:
    trees = _parse(PACKAGE)
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


def unused_methods() -> list[str]:
    package = _parse(PACKAGE)
    everywhere = {**package, **_parse(ROOT / "tests"), **_parse(ROOT / "demos")}
    unused = []
    for module, tree in package.items():
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if not isinstance(node, ast.FunctionDef) or node.name.startswith("__"):
                    continue
                if not _references(everywhere, node.name, node, kinds=ast.Attribute):
                    unused.append(f"{module}:{cls.name}.{node.name}")
    return unused


def test_every_function_is_used():
    assert unused_functions() == []


def test_every_method_is_used():
    assert unused_methods() == []
