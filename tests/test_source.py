"""Static checks on the library source, with the standard-library ast module.

No linter is a dependency, so these rules are checked here: every import in
src/ellipcmr is used, every name a module lists in __all__ is defined, every
module-level private name is referenced outside its own definition, no
nested function keeps state in a container of its enclosing function, no
cli verify suite loops over its points, no library function calls a
callable it is given once per point in a loop, integer inputs are
checked in one place, only the truncation rule and the theta ladders
choose truncation orders, and only the known walks read the nome ladder.
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


_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _own_nodes(fn):
    """The nodes of fn's body, not descending into the functions it defines."""
    stack = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, _FUNCTIONS):
            stack.extend(ast.iter_child_nodes(node))


def _bound_names(fn):
    """{name: line} of the parameters of fn and the names its own body assigns."""
    names = {a.arg: fn.lineno for a in ast.walk(fn.args) if isinstance(a, ast.arg)}
    for node in _own_nodes(fn):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.setdefault(node.id, node.lineno)
    return names


def _stored_containers(fn):
    """Names whose container fn mutates: subscript stores and .clear() / .update() calls."""
    for node in _own_nodes(fn):
        if (isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del))
                and isinstance(node.value, ast.Name)):
            yield node.value.id
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr in ("clear", "update") and isinstance(node.func.value, ast.Name)):
            yield node.func.value.id


def closure_stores(tree):
    """(line, name) of each container bound in a function and mutated by a function nested in it.

    That is the memo pattern: state kept between calls of the nested function.
    """
    hits = set()
    for outer in ast.walk(tree):
        if not isinstance(outer, _FUNCTIONS):
            continue
        bound = _bound_names(outer)
        for inner in ast.walk(outer):
            if inner is outer or not isinstance(inner, _FUNCTIONS):
                continue
            local = _bound_names(inner)
            hits.update((bound[name], name) for name in _stored_containers(inner)
                        if name in bound and name not in local)
    return sorted(hits)


@pytest.mark.parametrize("path", SRC, ids=lambda p: p.name)
def test_no_state_in_closures(path):
    """A nested function that stores into its enclosing function's container is a hidden cache."""
    hits = closure_stores(_tree(path))
    assert not hits, f"{path.name}: closures store into {[f'{n} (line {l})' for l, n in hits]}"


_LOOPS = (ast.For, ast.AsyncFor, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def suite_loops(tree):
    """(line, suite) of each for loop or comprehension in a module-level _suite_* function.

    A verify suite hands all its points to the library in one call, so a loop over
    points or configurations in a suite is the per-point path coming back.
    """
    return sorted((node.lineno, fn.name) for fn in tree.body
                  if isinstance(fn, ast.FunctionDef) and fn.name.startswith("_suite_")
                  for node in ast.walk(fn) if isinstance(node, _LOOPS))


def test_suite_loops_are_seen():
    tree = ast.parse("def _suite_a(dom):\n    return max(f(x) for x in xs)\n"
                     "def _suite_b(dom):\n    for x in xs:\n        f(x)\n"
                     "def _helper(dom):\n    return [f(x) for x in xs]\n")
    assert suite_loops(tree) == [(2, "_suite_a"), (4, "_suite_b")]


def test_no_loops_in_verify_suites():
    """Each cli verify suite makes its library calls on all its points at once."""
    hits = suite_loops(_tree(next(p for p in SRC if p.name == "cli.py")))
    assert not hits, f"cli.py: loops in verify suites {[f'{n} (line {l})' for l, n in hits]}"


def parameter_calls_in_loops(tree):
    """(line, name) of each call of a function's own parameter inside a loop or comprehension
    in that function's body (nested functions included).

    A function given a callable (a field, a test function, an integrand) calls it once
    on all its points, so a call in a loop is the per-point path coming back.
    """
    hits = set()
    for fn in ast.walk(tree):
        if not isinstance(fn, _FUNCTIONS):
            continue
        params = {a.arg for a in ast.walk(fn.args) if isinstance(a, ast.arg)}
        hits.update((n.lineno, n.func.id)
                    for loop in ast.walk(fn) if isinstance(loop, _LOOPS + (ast.While,))
                    for n in ast.walk(loop)
                    if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
                    and n.func.id in params)
    return sorted(hits)


def test_parameter_calls_in_loops_are_seen():
    tree = ast.parse("def a(f, xs):\n    return sum(f(x) for x in xs)\n"
                     "def b(f, xs):\n    def inner():\n        for x in xs:\n            f(x)\n"
                     "def c(f, xs):\n    while xs:\n        f(xs.pop())\n"
                     "def d(f, xs):\n    return f(xs), [g(x) for x in xs]\n"
                     "g = lambda h, xs: [h(x) for x in xs]\n")
    assert parameter_calls_in_loops(tree) == [(2, "f"), (6, "f"), (9, "f"), (12, "h")]


def test_no_parameter_calls_in_loops():
    """Library functions call the callables they are given once, on all points (cli
    option types parse one text field at a time and are out of scope)."""
    hits = [f"{p.name}:{line} ({name})" for p in SRC if p.name != "cli.py"
            for line, name in parameter_calls_in_loops(_tree(p))]
    assert not hits, f"callable parameters called in loops: {hits}"


def integer_checks(tree):
    """Lines that name numbers.Integral or np.integer, or import from numbers."""
    return sorted({n.lineno for n in ast.walk(tree)
                   if isinstance(n, ast.Attribute) and n.attr in ("Integral", "integer")
                   or isinstance(n, ast.ImportFrom) and n.module == "numbers"})


def test_integer_checks_are_seen():
    tree = ast.parse("import numbers\nok = isinstance(n, numbers.Integral)\n"
                     "from numbers import Integral\nok = isinstance(n, (int, np.integer))\n"
                     "n = int(x)\n")
    assert integer_checks(tree) == [2, 3, 4]


def test_one_integer_check():
    """Integer inputs go through domain._check_integers, the one place that names the type."""
    hits = [f"{p.name}:{line}" for p in SRC if p.name != "domain.py"
            for line in integer_checks(_tree(p))]
    assert not hits, f"integer checks outside domain._check_integers: {hits}"


def policy_uses(tree):
    """Lines that call n_terms or read DEFAULT_POLICY (a bare import, as the package
    __init__'s re-export, reads nothing)."""
    return sorted({n.lineno for n in ast.walk(tree)
                   if isinstance(n, ast.Attribute) and n.attr in ("n_terms", "DEFAULT_POLICY")
                   or isinstance(n, ast.Name) and n.id == "DEFAULT_POLICY"})


def test_policy_uses_are_seen():
    tree = ast.parse("from .domain import DEFAULT_POLICY\nnt = DEFAULT_POLICY.n_terms(p)\n"
                     "nt = domain.DEFAULT_POLICY\nnt = TruncationPolicy().n_terms(p, s)\n"
                     "pol = DEFAULT_POLICY\nnt = n_terms\n")
    assert policy_uses(tree) == [2, 3, 4, 5]


def test_truncation_orders_chosen_in_one_place():
    """Only domain.py (the rule) and theta.py (the ladders and the independent
    cross-check series) choose truncation orders; every other product walks
    theta._nome_ladder."""
    hits = [f"{p.name}:{line}" for p in SRC if p.name not in ("domain.py", "theta.py")
            for line in policy_uses(_tree(p))]
    assert not hits, f"truncation orders chosen outside domain.py and theta.py: {hits}"


def _reads(nodes, name):
    """Whether any of the nodes is the bare name or an attribute of that name."""
    return any(isinstance(n, ast.Name) and n.id == name
               or isinstance(n, ast.Attribute) and n.attr == name for n in nodes)


def ladder_walks(tree):
    """Names of the functions whose own body names _blocks, the nome-ladder walk of theta
    (module-level code counts as <module>, a lambda as <lambda>)."""
    scopes = [tree] + [fn for fn in ast.walk(tree) if isinstance(fn, _FUNCTIONS)]
    return sorted({getattr(fn, "name", "<lambda>" if isinstance(fn, ast.Lambda) else "<module>")
                   for fn in scopes if _reads(_own_nodes(fn), "_blocks")})


def test_ladder_walks_are_seen():
    tree = ast.parse("def _blocks(p, z):\n    return []\n"
                     "def a(z):\n    for n, pn in _blocks(p, z):\n        pass\n"
                     "def b(z):\n    def inner():\n        return list(theta._blocks(p, z))\n"
                     "c = lambda z: _blocks(p, z)\nwalk = _blocks\n")
    assert ladder_walks(tree) == ["<lambda>", "<module>", "a", "inner"]


def test_one_ladder_walk_per_kind():
    """Only theta._product (the products), theta._ladder (the log-derivative jet and its
    tau series) and wp1's cosine series, the independent cross-check, walk the nome
    ladder in blocks; a second per-level walk of the same terms is a forked kernel."""
    hits = [f"{p.name}:{name}" for p in SRC for name in ladder_walks(_tree(p))]
    assert hits == ["theta.py:_ladder", "theta.py:_product", "theta.py:wp1"], hits


def ladder_readers(tree):
    """Names of the module-level functions that name _nome_ladder, theta's ladder of
    levels, anywhere in their body, nested functions included (other module-level
    code, classes included, counts as <module>)."""
    tops = [n for n in tree.body if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
    rest = (n for node in tree.body if node not in tops for n in ast.walk(node))
    return sorted({fn.name for fn in tops if _reads(ast.walk(fn), "_nome_ladder")}
                  | ({"<module>"} if _reads(rest, "_nome_ladder") else set()))


def test_ladder_readers_are_seen():
    tree = ast.parse("def _nome_ladder(p, z):\n    return [], []\n"
                     "def a(z):\n    def inner():\n        return _nome_ladder(p, z)\n"
                     "    return inner()\n"
                     "def b(z):\n    return theta._nome_ladder(p, z)[1]\n"
                     "def c(z):\n    return _blocks(p, z)\n"
                     "walk = _nome_ladder\n")
    assert ladder_readers(tree) == ["<module>", "a", "b"]


def test_direct_ladder_readers():
    """Only theta._blocks (the levels that _product, _ladder and wp1 walk), log_theta_q
    (its blocks of principal logs) and gamma.elliptic_gamma (its p- and q-ladders)
    read theta._nome_ladder; any other reader is a walk test_one_ladder_walk_per_kind
    does not see."""
    hits = [f"{p.name}:{name}" for p in SRC for name in ladder_readers(_tree(p))]
    assert hits == ["gamma.py:elliptic_gamma", "theta.py:_blocks", "theta.py:log_theta_q"], hits
