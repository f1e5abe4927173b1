"""Assembly of the intersection-number sum and its companion reports.

The coefficient of log(ell) is a finite triple sum over branches
(delta, n, f_u); each summand is C_delta * mu * (local root-count product)
* (embedding-pair count).  The result is exact when the field data is
monogenic, no enumerated delta is divisible by ell, and every pair count
was exact; otherwise it is an upper bound, with a global factor of two
exactly when some enumerated delta is divisible by ell.
"""

from __future__ import annotations

import math
from fractions import Fraction

from ._record import Record
from .cm_fields import (CMFieldData, NContext, _n_contexts, enumerate_delta,
                        enumerate_fu, enumerate_n)
from .embedding_counts import EXACT, UPPER_BOUND, build_query, scrJ
from .integers import is_prime, padic_val
# unused here; perfbench/test_perfbench.py reads intersection.hilbert_symbol
from .integers import hilbert_symbol  # noqa: F401
from .local_roots import frakI
from .quadratic_orders import count_all_ideals, discriminant_of, rho_simplified

MODE_MONOGENIC = "monogenic"
MODE_INDEX_BOUND = "index-bound"


class IndexHypothesisViolated(ValueError):
    pass


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
    warnings: tuple[str, ...] = ()


def mu_ell(nctx: NContext, ell: int) -> Fraction:
    """v_ell(N) when ell divides both d_u and d_x, else (v_ell(N) + 1)/2."""
    v = padic_val(nctx.N, ell)
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
            mu = mu_ell(nctx, ell)
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


def enumerate_candidate_primes(field: CMFieldData):
    """Primes ell that pass the symbol screen, with their witnesses.

    A witness is a branch (delta, n) whose symbol support (the finite
    primes p with (d_u, -N)_p = -1, see `NContext`) is exactly {ell}, so
    that ell divides N = (delta^2 Dtilde - n^2)/(4D).  Every other branch
    vanishes at ell, and a branch witnesses at most one prime.
    Witnesses are listed in branch order.
    """
    found: dict[int, list[tuple[int, int]]] = {}
    for dctx in enumerate_delta(field):
        for nctx in _n_contexts(field, dctx):
            if len(nctx.support) != 1:
                continue
            found.setdefault(nctx.support[0], []).append((dctx.delta, nctx.n))
    return tuple(sorted((ell, tuple(ws)) for ell, ws in found.items()))


def special_case_value(field: CMFieldData, ell: int):
    """Simplified sum valid when every d_u is fundamental and ell misses delta.

    Returns None unless the hypotheses hold for every enumerated branch;
    the branch constant here is 1/2 (not 2) when 4 delta = D, following
    the simplified statement's own convention.
    """
    if not is_prime(ell):
        raise ValueError(f"{ell} is not prime")
    if field.params.index_bound != 1:
        return None
    deltas = enumerate_delta(field)
    if any(dctx.delta % ell == 0 for dctx in deltas):
        return None
    branches = []
    for dctx in deltas:
        for nctx in enumerate_n(field, dctx, ell):
            disc = discriminant_of(nctx.d_u)
            if disc.f != 1:
                return None
            branches.append((dctx, nctx, disc))
    total = Fraction(0)
    for dctx, nctx, disc in branches:
        c_delta = Fraction(1, 2) if 4 * dctx.delta == field.params.D else Fraction(1)
        rho = rho_simplified(disc, nctx.N, ell)
        ideal_count = count_all_ideals(disc, nctx.N // ell) if nctx.N // ell >= 1 else 0
        total += c_delta * mu_ell(nctx, ell) * rho * ideal_count
    return total
