"""Every name a library module imports or a function assigns is used.

A function that moves to another module can leave its imports behind,
an edit can leave a local that nothing reads, and a record can carry a
field that nothing reads; this catches all three.  `__init__` only
re-exports, so it is exempt from the import check.
"""

import ast
from pathlib import Path

import cmintersect

PACKAGE = Path(cmintersect.__file__).resolve().parent
# The only allowed unused import: perfbench/test_perfbench.py reads
# intersection.hilbert_symbol, which no engine path calls any more.  It
# goes with the tracer test's fix (ROADMAP item 1), and then so does this.
KEPT = {("intersection", "hilbert_symbol")}


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
