"""Static checks on the library source, with the standard-library ast module.

No linter is a dependency, so these rules are checked here: every import in
src/ellipcmr is used, every name a module lists in __all__ is defined, and
every module-level private name is referenced outside its own definition.
"""

import ast
from pathlib import Path

import pytest

SRC = sorted((Path(__file__).resolve().parent.parent / "src" / "ellipcmr").glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _imported(tree):
    """(bound name, line) of every import in the module, at any depth."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                yield (a.asname or a.name.split(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                yield (a.asname or a.name), node.lineno


def _exports(tree):
    """Names listed in a top-level __all__ = [...]."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return [elt.value for elt in node.value.elts]
    return []


def _bindings(tree):
    """(name, statement) of every module-level def, class and assignment target."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for t in targets:
                yield from ((n.id, node) for n in ast.walk(t) if isinstance(n, ast.Name))


def _defined(tree):
    """Names bound at module level: defs, classes, assignments and imports."""
    names = {name for name, _ in _bindings(tree)}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(a.asname or a.name.split(".")[0] for a in node.names)
    return names


def test_source_files_found():
    assert {p.name for p in SRC} >= {"__init__.py", "theta.py", "cli.py"}


# the package __init__ imports its public names without using them
@pytest.mark.parametrize("path", [p for p in SRC if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = _tree(path)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used.update(_exports(tree))
    unused = [f"{name} (line {line})" for name, line in _imported(tree) if name not in used]
    assert not unused, f"{path.name}: unused imports {unused}"


@pytest.mark.parametrize("path", SRC, ids=lambda p: p.name)
def test_all_names_defined(path):
    tree = _tree(path)
    missing = sorted(set(_exports(tree)) - _defined(tree))
    assert not missing, f"{path.name}: __all__ lists undefined names {missing}"


def _references(nodes):
    """Names read in the given nodes: bare names, attributes and imported names."""
    refs = set()
    for root in nodes:
        for n in ast.walk(root):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                refs.add(n.id)
            elif isinstance(n, ast.Attribute):
                refs.add(n.attr)
            elif isinstance(n, ast.ImportFrom):
                refs.update(a.name for a in n.names)
    return refs


@pytest.mark.parametrize("path", SRC, ids=lambda p: p.name)
def test_private_names_referenced(path):
    """A private name that nothing in the package reads is dead code."""
    trees = {p: _tree(p) for p in SRC}
    elsewhere = _references(t for p, t in trees.items() if p != path)
    own = trees[path].body
    dead = [name for name, node in _bindings(trees[path])
            if name.startswith("_") and not name.startswith("__") and name not in elsewhere
            and name not in _references(other for other in own if other is not node)]
    assert not dead, f"{path.name}: private names nothing references {dead}"
