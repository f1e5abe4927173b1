"""Exact arithmetic intersection numbers for primitive quartic CM fields.

The top-level entry points are `validate` (field input), together with
`intersection_number`, `enumerate_candidate_primes`, and
`special_case_value`.  Everything is exact: unbounded integers and
`fractions.Fraction` throughout.  Each closed form has a brute-force
oracle in `cmintersect.oracles`, which this package does not import.
"""

from .cm_fields import (BadRealDiscriminant, CMFieldData, CMFieldParams,
                        DeltaContext, FieldValidationError,
                        HalfIntegerDiscriminant, IntegralityViolation,
                        NContext, NotPrimitive, NotTotallyImaginary,
                        congruence_constant, enumerate_delta, enumerate_fu,
                        enumerate_n, t_pair, validate)
from .embedding_counts import (EXACT, UPPER_BOUND, CountResult, ScrJQuery,
                               build_query, scrJ, vanishing_test)
from .integers import (INFINITY, Factorization, factorize, hilbert_symbol,
                       is_prime, kronecker, padic_val, perfect_square_root)
from .intersection import (ContributionRow, IndexHypothesisViolated,
                           IntersectionReport, enumerate_candidate_primes,
                           intersection_number, mu_ell, special_case_value)
from .local_roots import count_roots_mod_pk, frakI
from .quadratic_orders import (QuadDiscriminant, count_all_ideals,
                               count_invertible_ideals, discriminant_of,
                               rho2, rho_simplified, two_power_factor)

__version__ = "0.1.0"
