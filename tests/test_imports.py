"""Every name a library module imports is used in that module.

A function that moves to another module can leave its imports behind;
this catches them.  `__init__` only re-exports, so it is exempt.
"""

import ast
from pathlib import Path

import cmintersect

PACKAGE = Path(cmintersect.__file__).resolve().parent
# perfbench/test_perfbench.py reads intersection.hilbert_symbol
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
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "__init__":
            continue
        for name in _unused_imports(ast.parse(path.read_text())):
            if (path.stem, name) not in KEPT:
                unused.append(f"{path.stem}.{name}")
    assert unused == []


def test_the_guard_sees_an_unused_import():
    tree = ast.parse("from fractions import Fraction\nimport math\nmath.gcd(1, 2)\n")
    assert _unused_imports(tree) == ["Fraction"]
