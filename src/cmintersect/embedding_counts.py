"""Counting pairs of optimal embeddings into supersingular endomorphism rings.

For a branch (delta, n, f_u) the count depends on the order discriminant
d1 = d_u/f_u^2, the second discriminant d_x, and the pairing value t.  It
vanishes when a Hilbert symbol is -1 away from ell; under a conductor
coprimality hypothesis it equals an explicit product (a power of two, a
two-adic case factor, and an invertible-ideal count), and in all cases
that product is an upper bound.  Results carry an exactness flag, so a
bound is never shown as exact.  Cross-check: `oracles.scrJ_conjecture`.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from ._record import Record
from .cm_fields import NContext, t_pair
from .quadratic_orders import (QuadDiscriminant, count_invertible_ideals,
                               discriminant_of, rho2, two_power_factor)

EXACT = "exact"
UPPER_BOUND = "upper-bound"


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
    branch's symbol support, so the test reads that.  By the norm
    identity, the symbol's other expression is the same one (the
    argument is in `NContext`).
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
