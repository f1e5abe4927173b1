"""Assembly of the intersection-number sum and its companion reports.

The coefficient of log(ell) is a finite triple sum over branches
(delta, n, f_u); each summand is C_delta * mu * (local root-count product)
* (embedding-pair count).  The result is exact when the field data is
monogenic, no enumerated delta is divisible by ell, and every pair count
was exact; otherwise it is an upper bound, with a global factor of two
exactly when some enumerated delta is divisible by ell.

`enumerate_candidate_primes` and `IndexHypothesisViolated` live in
`cm_fields`, which runs without this row-layer module; both are
re-exported here.
"""

from __future__ import annotations

import math
from fractions import Fraction

from ._record import Record
from .cm_fields import (CMFieldData, IndexHypothesisViolated, NContext,
                        enumerate_delta, enumerate_fu, enumerate_n)
# unused here; perfbench's tracer spans intersection.enumerate_candidate_primes
from .cm_fields import enumerate_candidate_primes  # noqa: F401
from .embedding_counts import EXACT, UPPER_BOUND, build_query, scrJ
from .integers import _split, factorize, is_prime
# unused here; perfbench/test_perfbench.py reads intersection.hilbert_symbol
from .integers import hilbert_symbol  # noqa: F401
from .local_roots import frakI
from .quadratic_orders import count_invertible_ideals, discriminant_of

MODE_MONOGENIC = "monogenic"
MODE_INDEX_BOUND = "index-bound"


class ContributionRow(Record):
    delta: int
    n: int
    f_u: int
    C_delta: int
    mu: Fraction
    frakI: int
    scrJ_value: int
    scrJ_exactness: str
    product: Fraction


class IntersectionReport(Record):
    value: Fraction            # coefficient of log(ell)
    exactness: str
    mode: str
    ell: int
    rows: tuple[ContributionRow, ...]
    warnings: tuple[str, ...]


def mu_ell(nctx: NContext, ell: int) -> Fraction:
    """v_ell(N) when ell divides both d_u and d_x, else (v_ell(N) + 1)/2."""
    if nctx.N == 0:  # a hand-built branch; `_split` would never return
        raise ValueError("0 has no finite p-adic valuation")
    if not is_prime(ell):
        raise ValueError(f"{ell} is not prime")
    return _mu(nctx, ell)


def _mu(nctx: NContext, ell: int) -> Fraction:
    # `mu_ell` for a prime ell its caller has already checked
    v = _split(nctx.N, ell)[1]
    if nctx.d_u % ell == 0 and nctx.d_x % ell == 0:
        return Fraction(v)
    return Fraction(v + 1, 2)


def _check_index_hypothesis(field: CMFieldData, ell: int) -> None:
    index = field.params.index_bound
    if index % ell == 0:
        raise IndexHypothesisViolated(
            f"index bound {index} is divisible by ell = {ell}")
    # the first divisor found is the smallest prime factor; the search
    # stops at D/4, so a huge index bound is never factored
    bound = field.params.D // 4
    for p in range(2, min(bound, math.isqrt(index)) + 1):
        if index % p == 0:
            break
    else:
        p = index  # prime, or free of primes <= D/4
    if 1 < p <= bound:
        raise IndexHypothesisViolated(
            f"index bound {index} is divisible by {p} <= D/4")


def intersection_number(field: CMFieldData, ell: int) -> IntersectionReport:
    """Exact value or flagged upper bound of the log(ell) coefficient."""
    if not is_prime(ell):
        raise ValueError(f"{ell} is not prime")
    mode = MODE_MONOGENIC if field.params.index_bound == 1 else MODE_INDEX_BOUND
    if mode == MODE_INDEX_BOUND:
        _check_index_hypothesis(field, ell)
    rows = []
    warnings = []
    ell_divides_delta = False
    all_exact = True
    for dctx in enumerate_delta(field):
        if dctx.delta % ell == 0:
            ell_divides_delta = True
        for nctx in enumerate_n(field, dctx, ell):
            mu = _mu(nctx, ell)
            for f_u in enumerate_fu(nctx, ell):
                weight = frakI(nctx, f_u, ell)
                query = build_query(nctx, f_u, ell)
                if query.t.denominator != 1:
                    warnings.append(
                        f"non-integral pairing value t at "
                        f"(delta={dctx.delta}, n={nctx.n}, f_u={f_u}): {query.t}")
                result = scrJ(query)
                if result.exactness != EXACT:
                    all_exact = False
                product = dctx.C_delta * mu * weight * result.value
                rows.append(ContributionRow(
                    delta=dctx.delta, n=nctx.n, f_u=f_u,
                    C_delta=dctx.C_delta, mu=mu, frakI=weight,
                    scrJ_value=result.value,
                    scrJ_exactness=result.exactness,
                    product=product))
    value = sum((row.product for row in rows), Fraction(0))
    if not all_exact:
        warnings.append(
            "some embedding-pair counts are only upper bounds "
            "(ideal norm shares a factor with an order conductor)")
    if ell_divides_delta:
        value *= 2
        warnings.append(
            "ell divides an enumerated delta: value is twice the branch sum "
            "and only an upper bound")
    if mode == MODE_INDEX_BOUND:
        warnings.append("non-trivial index bound: value is an upper bound")
    exact = (mode == MODE_MONOGENIC) and not ell_divides_delta and all_exact
    return IntersectionReport(
        value=value,
        exactness=EXACT if exact else UPPER_BOUND,
        mode=mode, ell=ell, rows=tuple(rows), warnings=tuple(warnings))


def special_case_value(field: CMFieldData, ell: int):
    """Simplified sum valid when every d_u is fundamental and ell misses delta.

    Returns None unless the hypotheses hold for every enumerated branch;
    the branch constant here is 1/C_delta, 1/2 (not 2) when 4 delta = D,
    following the simplified statement's own convention.  Every d_u has
    conductor 1, so its ideals are all invertible and
    `count_invertible_ideals` counts them all.  Only branches whose
    support holds no prime but ell are summed (`vanishing_test`'s rule),
    with weight 2^#{p | d_u, p | N, p != ell}.  The others add 0: a
    support prime p != ell dividing d_u is the statement's own zero, and
    one prime to d_u has (d_u/p) = -1 with v_p(N/ell) odd, a factor 0
    of the ideal count.
    """
    if not is_prime(ell):
        raise ValueError(f"{ell} is not prime")
    if field.params.index_bound != 1:
        return None
    deltas = enumerate_delta(field)
    if any(dctx.delta % ell == 0 for dctx in deltas):
        return None
    total = Fraction(0)
    for dctx in deltas:
        c_delta = Fraction(1, dctx.C_delta)
        for nctx in enumerate_n(field, dctx, ell):
            disc = discriminant_of(nctx.d_u)
            if disc.f != 1:
                return None
            if any(p != ell for p in nctx.support):
                continue
            shared = sum(1 for p, _ in factorize(disc.d)
                         if p != ell and nctx.N % p == 0)
            total += (c_delta * _mu(nctx, ell) * 2**shared
                      * count_invertible_ideals(disc, nctx.N // ell))
    return total
