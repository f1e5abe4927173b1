"""Counting pairs of optimal embeddings into supersingular endomorphism rings.

For a branch (delta, n, f_u) the count depends on the order discriminant
d1 = d_u/f_u^2, the second discriminant d_x, and the pairing value t.  It
vanishes when a Hilbert symbol is -1 away from ell; under a conductor
coprimality hypothesis it equals an explicit product (a power of two, a
two-adic case factor, and an invertible-ideal count), and in all cases
that product is an upper bound.  Results carry an exactness flag so a
bound is never presented as an exact value.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from ._record import Record
from .cm_fields import NContext, t_pair
from .integers import factorize, hilbert_symbol, kronecker
from .quadratic_orders import (QuadDiscriminant, count_invertible_ideals,
                               discriminant_of, rho2, two_power_factor)

EXACT = "exact"
UPPER_BOUND = "upper-bound"


class AmbiguousSelection(ArithmeticError):
    """Neither discriminant is maximal at a prime dividing m."""


class CountResult(Record):
    value: int
    exactness: str


class ScrJQuery(Record):
    d1: QuadDiscriminant        # d_u / f_u^2
    d2: int                     # d_x
    t: Fraction
    f_u: int
    N: int                      # (delta^2 Dtilde - n^2) / (4D)
    ell: int
    support: tuple[int, ...]    # finite p with (d_u, -N)_p = -1


def build_query(nctx: NContext, f_u: int, ell: int) -> ScrJQuery:
    """Query for the order of discriminant d_u/f_u^2, whose conductor is F/f_u.

    F is the conductor of d_u; f_u must be a positive divisor of F with F/f_u
    prime to ell, as `enumerate_fu` lists them, else ValueError.
    """
    du = discriminant_of(nctx.d_u)
    if f_u < 1 or du.f % f_u or (du.f // f_u) % ell == 0:
        raise ValueError(f"f_u = {f_u} is inadmissible for conductor {du.f} "
                         f"at ell = {ell}")
    d1 = QuadDiscriminant(nctx.d_u // (f_u * f_u), du.d0, du.f // f_u)
    return ScrJQuery(
        d1=d1, d2=nctx.d_x, t=t_pair(nctx, f_u), f_u=f_u, N=nctx.N, ell=ell,
        support=nctx.support,
    )


def vanishing_test(q: ScrJQuery) -> bool:
    """True iff some prime p != ell gives Hilbert symbol -1.

    The symbol is (d_u, D(n^2 - delta^2 Dtilde))_p = (d_u, -N)_p, since
    n^2 - delta^2 Dtilde = -4DN; the primes where it is -1 are the
    branch's symbol support, so the test reads that.  The symbol's other
    expression, (d_u, ((d_u/f_u^2) d_x - 2t)^2 - (d_u/f_u^2) d_x)_p, needs no
    evaluation of its own.  Times f_u^4, a square, its second argument is
    (d_u d_x - 2 t f_u^2)^2 - d_u d_x f_u^2; `t_pair` gives
    2 t f_u^2 = d_u d_x - f_u X with X = t_x t_u - 2 t_xuv, so this is
    f_u^2 (X^2 - d_u d_x) = -4 N f_u^2 by the norm identity that
    `_n_contexts` checks: -N times a square, hence the same symbol.
    """
    return any(p != q.ell for p in q.support)


def scrJ(q: ScrJQuery) -> CountResult:
    """The embedding-pair count, or its upper bound with a flag.

    Zero (exactly) when the vanishing symbol test fires.  Otherwise the
    product of the odd two-power factor, the two-adic case factor, and the
    number of invertible ideals of the target norm; exact precisely when
    N/f_u^2 is coprime to the conductor of the order of discriminant d1.
    """
    if vanishing_test(q):
        return CountResult(0, EXACT)
    # ideals have norm N / (ell f_u^2) = (delta^2 Dtilde - n^2) / (4 D ell f_u^2)
    M, r = divmod(q.N, q.ell * q.f_u**2)
    ideal_count = count_invertible_ideals(q.d1, M) if r == 0 and M >= 1 else 0
    value = (two_power_factor(q.d1.d, q.t, q.ell)
             * rho2(q.d1, q.t, q.d2)
             * ideal_count)
    f2 = q.f_u * q.f_u
    exact = q.d1.f == 1 or (q.N % f2 == 0 and gcd(q.N // f2, q.d1.f) == 1)
    return CountResult(value, EXACT if exact else UPPER_BOUND)


def scrJ_conjecture(q: ScrJQuery):
    """Conjectural local-factor product; None when its hypotheses fail.

    Needs odd ell, an integer pairing value t, positive
    m = (d1 d2 - (d1 d2 - 2t)^2)/4, and no factor common to both conductors
    and m simultaneously.  Each prime p | m, p != ell contributes a factor
    from the five-case table driven by whichever of d1, d2 is maximal at p.

    ell = 2 is excluded: the product omits p = ell, so nothing can carry
    the two-adic case factor, and e.g. the pair count for (-4, -3, 5) at
    ell = 2 is 2 while the product evaluates to 1.
    """
    if q.ell == 2:
        return None
    if q.t.denominator != 1:
        return None
    t = int(q.t)
    d1, d2 = q.d1.d, q.d2
    m4 = d1 * d2 - (d1 * d2 - 2 * t) ** 2
    if m4 <= 0 or m4 % 4:
        return None
    m = m4 // 4
    f1 = q.d1.f
    f2 = discriminant_of(d2).f
    if gcd(gcd(f1, f2), m) != 1:
        return None
    total = 1
    for p, vpm in factorize(m).factors:
        if p == q.ell:
            continue
        if f1 % p:
            dp = d1
        elif f2 % p:
            dp = d2
        else:
            raise AmbiguousSelection(
                f"neither discriminant is maximal at p = {p}; "
                "contradicts the no-common-factor hypothesis")
        chi = kronecker(dp, p)
        if chi == 1 and f1 % p:
            total *= 1 + vpm
        elif (chi == 1 and f1 % p == 0) or (
                dp % p == 0 and hilbert_symbol(dp, -m, p) == 1 and f1 % p):
            total *= 2
        elif (chi == -1 and f1 % p and vpm % 2 == 0) or (
                dp % p == 0 and hilbert_symbol(dp, -m, p) == 1
                and f1 % p == 0 and vpm == 2):
            total *= 1
        else:
            return 0
    return total
