"""Every name a library module imports or a function assigns is used.

A function that moves to another module can leave its imports behind,
an edit can leave a local that nothing reads, a record can carry a
field that nothing reads, and a default can outlive every caller that
varies it; this catches all four.  `__init__` only re-exports, so it is
exempt from the import check.
"""

import ast
from pathlib import Path

import cmintersect

PACKAGE = Path(cmintersect.__file__).resolve().parent
# The only allowed unused imports: perfbench names them in `intersection`.
# perfbench/test_perfbench.py reads intersection.hilbert_symbol, which no
# engine path calls any more, and the tracer spans
# intersection.enumerate_candidate_primes, which lives in `cm_fields`.
# Both go with the benchmark's own fix (ROADMAP item 1), and then so do
# these.
KEPT = {("intersection", "hilbert_symbol"),
        ("intersection", "enumerate_candidate_primes")}


def _unused_imports(tree: ast.Module) -> list[str]:
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_library_modules_use_every_name_they_import():
    unused = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "__init__":
            continue
        unused |= {(path.stem, name) for name in _unused_imports(ast.parse(path.read_text()))}
    assert sorted(unused - KEPT) == []
    # an allowance outlives its reason once the import is used or gone
    assert KEPT <= unused


def test_the_guard_sees_an_unused_import():
    tree = ast.parse("from fractions import Fraction\nimport math\nmath.gcd(1, 2)\n")
    assert _unused_imports(tree) == ["Fraction"]


# nodes that open a scope of their own; their assignments are not the function's
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def _own_nodes(func):
    stack = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, SCOPES):
            stack.extend(ast.iter_child_nodes(node))


def _unused_locals(tree: ast.Module) -> list[tuple[str, str]]:
    # (function, name) for every name a function assigns and neither it nor
    # a closure nested inside it reads; `_` is the placeholder, so exempt
    unused = []
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        assigned, outer = [], set()
        for node in _own_nodes(func):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                assigned.append(node.id)
            elif isinstance(node, ast.ExceptHandler) and node.name:
                assigned.append(node.name)
            elif isinstance(node, (ast.Global, ast.Nonlocal)):
                outer.update(node.names)
        read = {node.id for node in ast.walk(func)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        unused += sorted({(func.name, name) for name in assigned
                          if name not in read | outer and name != "_"})
    return unused


def test_library_functions_read_every_name_they_assign():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        unused += [(path.stem, *item) for item in _unused_locals(ast.parse(path.read_text()))]
    assert unused == []


def test_the_guard_sees_an_unused_local():
    tree = ast.parse(
        "def f(z):\n"
        "    a, b = z\n"
        "    c = d = 0\n"
        "    for _ in z:\n"
        "        c += 1\n"
        "    try:\n"
        "        pass\n"
        "    except ValueError as exc:\n"
        "        pass\n"
        "    def g():\n"
        "        e = 1\n"
        "        return a + c\n"
        "    return g\n")
    assert _unused_locals(tree) == [("f", "b"), ("f", "d"), ("f", "exc"), ("g", "e")]


def _unread_record_fields(trees) -> list[tuple[str, str]]:
    # (class, field) for every field of a `Record` subclass that no
    # module reads as an attribute
    fields, read = [], set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and any(
                    isinstance(base, ast.Name) and base.id == "Record" for base in node.bases):
                fields += [(node.name, item.target.id) for item in node.body
                           if isinstance(item, ast.AnnAssign)]
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return [(cls, name) for cls, name in fields if name not in read]


def test_library_records_read_every_field():
    trees = [ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))]
    assert _unread_record_fields(trees) == []


def test_the_guard_sees_an_unread_field():
    tree = ast.parse(
        "class Point(Record):\n"
        "    x: int\n"
        "    y: int = 0\n"
        "    z: int = 0\n"
        "class Other(tuple):\n"
        "    w: int\n"
        "def norm(p):\n"
        "    p.z = 1\n"
        "    return p.x\n")
    assert _unread_record_fields([tree]) == [("Point", "y"), ("Point", "z")]


# The console script and `python -m cmintersect` call `main()`; the tests
# pass argv and out.  No library call does, so cli.main is exempt.
EXEMPT_DEFAULTS = {("cli.main", "argv"), ("cli.main", "out")}


def _unvaried_defaults(trees: dict) -> list[tuple[str, str]]:
    # (module.owner, name) for every default of a function parameter or a
    # `Record` field that no call in `trees` leaves at its default, or no
    # call gives another value: a setting with one value in use is a
    # constant.  Callees are matched by bare name.  The check cannot see a
    # callable passed to `starmap` or `map`, and it does not count a call
    # that spreads `*args` or `**kwargs`.
    owners = {}  # bare name -> (module.owner, [(position or None, name)])
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and any(
                    isinstance(base, ast.Name) and base.id == "Record" for base in node.bases):
                fields = [item for item in node.body if isinstance(item, ast.AnnAssign)]
                params = [(i, item.target.id) for i, item in enumerate(fields)
                          if item.value is not None]
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                positional = [a.arg for a in args.posonlyargs + args.args]
                if positional[:1] in (["self"], ["cls"]):
                    positional = positional[1:]  # a method, called through its instance
                first = len(positional) - len(args.defaults)
                params = [(i, name) for i, name in enumerate(positional) if i >= first]
                params += [(None, a.arg) for a, default in zip(args.kwonlyargs, args.kw_defaults)
                           if default is not None]
            else:
                continue
            if params:
                owners[node.name] = (f"{module}.{node.name}", params)
    uses = {(owner, name): set() for owner, params in owners.values() for _, name in params}
    for tree in trees.values():
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            callee = getattr(call.func, "id", getattr(call.func, "attr", None))
            if callee not in owners or any(isinstance(a, ast.Starred) for a in call.args) \
                    or any(k.arg is None for k in call.keywords):
                continue
            owner, params = owners[callee]
            keywords = {k.arg for k in call.keywords}
            for position, name in params:
                uses[owner, name].add(name in keywords
                                      or position is not None and position < len(call.args))
    return sorted(key for key, given in uses.items() if given != {True, False})


def test_library_defaults_are_left_out_and_given():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    unvaried = set(_unvaried_defaults(trees))
    assert sorted(unvaried - EXEMPT_DEFAULTS) == []
    # an exemption outlives its reason once a library call varies the default
    assert EXEMPT_DEFAULTS <= unvaried


def test_the_guard_sees_a_default_with_one_value_in_use():
    tree = ast.parse(
        "class Point(Record):\n"
        "    x: int\n"
        "    y: int = 0\n"
        "    z: int = 0\n"
        "def scale(p, k=1, *, exact=True):\n"
        "    return Point(p.x * k, p.y)\n"
        "class Box:\n"
        "    def grow(self, by=1):\n"
        "        return by\n"
        "origin = Point(0)\n"
        "scale(origin, 2)\n"
        "scale(origin, k=3, exact=False)\n"
        "scale(*origin)\n"
        "Box().grow()\n"
        "Box().grow(2)\n")
    assert _unvaried_defaults({"m": tree}) == [("m.Point", "z"), ("m.scale", "k")]
