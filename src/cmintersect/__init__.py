"""Exact arithmetic intersection numbers for primitive quartic CM fields.

The top-level entry points are `validate` (field input), together with
`intersection_number`, `enumerate_candidate_primes`, and
`special_case_value`.  Everything is exact: unbounded integers and
`fractions.Fraction` throughout.  Each closed form but the pair count
`scrJ` has a brute-force oracle in `cmintersect.oracles`, which this
package does not import; for `scrJ` only the ideal counts have one.

`import cmintersect` executes only `_record`, `integers` and
`cm_fields`, which hold `validate` and the candidate-prime screen.
`quadratic_orders`, `local_roots` and the row layer, `embedding_counts`
and `intersection` (and with them `fractions`), are registered with
`importlib.util.LazyLoader` and run on first attribute access.  The
package reads their names from those modules on every access, so a
tracer that rebinds them there is seen here.  The registrations come
before the eager `from .cm_fields import ...`: `cm_fields`' `from .
import quadratic_orders` then reads the bound package attribute and
does not execute the module, whereas `from .quadratic_orders import x`
or `import cmintersect.quadratic_orders` would (importlib reads the
module's `__spec__`).
"""

import importlib.util
import sys

from .integers import (INFINITY, factorize, hilbert_symbol, is_prime,
                       kronecker, padic_val, perfect_square_root)

__version__ = "0.1.0"

_LAZY = {
    "quadratic_orders": ("QuadDiscriminant", "count_invertible_ideals",
                         "discriminant_of", "rho2", "two_power_factor"),
    "local_roots": ("count_roots_mod_pk", "frakI"),
    "embedding_counts": ("EXACT", "UPPER_BOUND", "CountResult", "ScrJQuery",
                         "build_query", "scrJ", "t_pair", "vanishing_test"),
    "intersection": ("ContributionRow", "IntersectionReport",
                     "intersection_number", "mu_ell", "special_case_value"),
}
_HOME = {name: module for module, names in _LAZY.items() for name in names}


def _lazy(name: str):
    # importlib's documented LazyLoader recipe
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


quadratic_orders = _lazy("quadratic_orders")
local_roots = _lazy("local_roots")
embedding_counts = _lazy("embedding_counts")
intersection = _lazy("intersection")

from .cm_fields import (BadRealDiscriminant, CMFieldData,  # noqa: E402
                        CMFieldParams, DeltaContext, FieldValidationError,
                        IndexHypothesisViolated, IntegralityViolation,
                        NContext, NotPrimitive, NotTotallyImaginary,
                        congruence_constant, enumerate_candidate_primes,
                        enumerate_delta, enumerate_fu, enumerate_n, validate)


def __getattr__(name: str):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[home], name)
