"""Each function, class, method and module-level name of bsroots is used, exported or an oracle.

A module-level function counts as used when some code in `src/bsroots` outside
its own body names it, or when the package's `__all__` lists it.  A test
oracle has no caller in the package by design and says so in its docstring.

A module-level class counts as used on the same terms as a module-level
function: some code in `src/bsroots` outside its own body names it, or
`__all__` lists it.

A module-level name bound by assignment (other than a dunder) counts as used
on the same terms as a module-level function: some code in `src/bsroots`
outside its own statement names it, or `__all__` lists it.

A method (other than a dunder) counts as used when some code in `src/bsroots`,
`tests/` or `demos/` outside its own body names it as an attribute (`x.name`).

A name bound by a module-level import counts as used when its own module
names it, or lists it in that module's `__all__`.
"""

import ast
from collections import Counter
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


def _counts(nodes, attributes_only: bool = False) -> Counter:
    """How often each identifier is named (`x`) or used as an attribute (`y.x`)."""
    counts = Counter()
    for node in nodes:
        if isinstance(node, ast.Attribute):
            counts[node.attr] += 1
        elif isinstance(node, ast.Name) and not attributes_only:
            counts[node.id] += 1
    return counts


def _everything(trees):
    return (node for tree in trees.values() for node in ast.walk(tree))


def _references(total: Counter, name: str, own_body: ast.AST, attributes_only=False) -> int:
    """References to name outside own_body: every tree's count less the body's own."""
    return total[name] - _counts(ast.walk(own_body), attributes_only)[name]


def unused_definitions(kind=ast.FunctionDef) -> list[str]:
    trees = _parse(PACKAGE)
    exported = _exported(trees)
    total = _counts(_everything(trees))
    unused = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, kind) or node.name in exported:
                continue
            if "oracle" in (ast.get_docstring(node) or ""):
                continue
            if not _references(total, node.name, node):
                unused.append(f"{module}:{node.name}")
    return unused


def _assigned_names(node: ast.stmt) -> list[str]:
    """The names a module-level assignment binds, dunders left out."""
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return []
    names = [n.id for target in targets for n in ast.walk(target) if isinstance(n, ast.Name)]
    return [name for name in names if not (name.startswith("__") and name.endswith("__"))]


def unused_assignments() -> list[str]:
    trees = _parse(PACKAGE)
    exported = _exported(trees)
    total = _counts(_everything(trees))
    return [
        f"{module}:{name}"
        for module, tree in trees.items()
        for node in tree.body
        for name in _assigned_names(node)
        if name not in exported and not _references(total, name, node)
    ]


def unused_methods() -> list[str]:
    package = _parse(PACKAGE)
    everywhere = {**package, **_parse(ROOT / "tests"), **_parse(ROOT / "demos")}
    total = _counts(_everything(everywhere), attributes_only=True)
    unused = []
    for module, tree in package.items():
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if not isinstance(node, ast.FunctionDef) or node.name.startswith("__"):
                    continue
                if not _references(total, node.name, node, attributes_only=True):
                    unused.append(f"{module}:{cls.name}.{node.name}")
    return unused


def unused_imports() -> list[str]:
    unused = []
    for module, tree in _parse(PACKAGE).items():
        named = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        named |= _exported({module: tree})
        for node in tree.body:
            if isinstance(node, ast.Import):
                bound = [alias.asname or alias.name.partition(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound = [alias.asname or alias.name for alias in node.names]
            else:
                continue
            unused += [f"{module}:{name}" for name in bound if name not in named]
    return unused


def test_every_function_is_used():
    assert unused_definitions() == []


def test_every_module_level_class_is_used():
    assert unused_definitions(ast.ClassDef) == []


def test_every_method_is_used():
    assert unused_methods() == []


def test_every_module_level_assignment_is_used():
    assert unused_assignments() == []


def test_every_import_is_used():
    assert unused_imports() == []
