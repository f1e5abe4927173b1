"""Every library function the perfbench tracer rebinds still exists and is seen.

`Tracer.install` looks each listed name up with a plain `getattr`, so a
deleted or renamed function breaks `perfbench/run.py --trace 1` only
when that command runs.  The tracer module imports only the standard
library, so it is loaded here by its file path.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import cmintersect

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_a_library_function():
    tracing = _load_tracing()
    listed = [(mod, fn) for table in (tracing.SPANNED, tracing.COUNTED)
              for mod, fns in table.items() for fn in fns]
    assert listed
    missing = [f"{mod}.{fn}" for mod, fn in listed
               if not callable(getattr(importlib.import_module(f"cmintersect.{mod}"),
                                       fn, None))]
    assert missing == []


def test_tracer_installed_after_import_sees_the_row_layer():
    # worker.py installs the tracer right after `import cmintersect`, when
    # `quadratic_orders`, `local_roots` and the row layer are registered but
    # have not run; the tracer only wraps modules in sys.modules, so a
    # forward from the package alone reads 0, and `enumerate_fu` reads
    # `discriminant_of` through the module, so it sees the wrapper
    code = (
        "import importlib.util, json, sys; import cmintersect as cm; "
        "spec = importlib.util.spec_from_file_location('perfbench_tracing', sys.argv[1]); "
        "tracing = importlib.util.module_from_spec(spec); spec.loader.exec_module(tracing); "
        "tracer = tracing.Tracer(); tracer.install(); "
        "field = cm.validate(cm.CMFieldParams(5, 0, 1, 1, 1)); "
        "cm.intersection_number(field, 2); cm.enumerate_candidate_primes(field); "
        "tracer.restore(); "
        "names = ('intersection_number', 'enumerate_candidate_primes', 'build_query', 'scrJ', "
        "'discriminant_of', 'frakI'); "
        "print(json.dumps([tracer.layer_totals()['calls'], "
        "[n for n in names if hasattr(getattr(cm, n), '__wrapped__')]]))")
    package_root = str(Path(cmintersect.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-c", code, str(TRACING)], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=package_root))
    assert proc.returncode == 0, proc.stderr
    calls, still_wrapped = json.loads(proc.stdout)
    for name in ("intersection.intersection_number", "intersection.enumerate_candidate_primes",
                 "embedding_counts.build_query", "embedding_counts.scrJ",
                 "embedding_counts.vanishing_test", "cm_fields.enumerate_fu",
                 "quadratic_orders.discriminant_of", "quadratic_orders.count_invertible_ideals",
                 "local_roots.frakI"):
        assert calls[name] > 0, name
    # `restore` reaches the package's row-layer names too
    assert still_wrapped == []
