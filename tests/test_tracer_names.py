"""Every library function the perfbench tracer rebinds still exists.

`Tracer.install` looks each listed name up with a plain `getattr`, so a
deleted or renamed function breaks `perfbench/run.py --trace 1` only
when that command runs.  The tracer module imports only the standard
library, so it is loaded here by its file path.
"""

import importlib
import importlib.util
from pathlib import Path

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
