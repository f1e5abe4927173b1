"""Imaginary quadratic orders: discriminant bookkeeping and ideal counting.

An integral ideal of the order of discriminant d is a full sublattice of
Z + Z*alpha (alpha = (d + sqrt(d))/2) closed under multiplication by
alpha; its norm is its index.  `count_invertible_ideals` is the closed
form (multiplicative over prime powers, split/inert/ramified away from
the conductor, quadratic-congruence root counts at conductor primes);
`oracles.count_ideals_bruteforce`, a Hermite-normal-form enumeration,
arbitrates it in the tests.
"""

from __future__ import annotations

from ._record import Record
from .integers import factorize, hilbert_symbol, is_prime, kronecker, padic_val
from .local_roots import _count


class QuadDiscriminant(Record):
    """d = f^2 * d0 with d0 fundamental, d < 0."""

    d: int
    d0: int
    f: int


def discriminant_of(d: int) -> QuadDiscriminant:
    """Validated conductor decomposition of a negative discriminant."""
    if d >= 0:
        raise ValueError(f"{d} is not negative")
    if d % 4 not in (0, 1):
        raise ValueError(f"{d} is not 0 or 1 mod 4")
    f = 1
    for p, e in factorize(d).factors:
        f *= p ** (e // 2)
    if (d // (f * f)) % 4 not in (0, 1):
        # squarefree kernel is 2 or 3 mod 4; half the 2-part of f moves back
        f //= 2
    d0 = d // (f * f)
    return QuadDiscriminant(d, d0, f)


def _local_count(d: int, f: int, p: int, k: int, invertible_only: bool) -> int:
    # ideals of norm p^k of the order of discriminant d, locally at p
    if k == 0:
        return 1
    if f % p:
        chi = kronecker(d, p)
        if chi == 1:
            return k + 1
        if chi == -1:
            return 1 if k % 2 == 0 else 0
        return 1
    # p divides the conductor.  A norm-p^j lattice-primitive ideal is
    # a pair (p^j, b mod 2p^j) with b^2 = d mod 4p^j; it is invertible
    # exactly when its form has unit content, which removes the solutions
    # with b^2 = d modulo one more power of p.  For odd p the pairs are the
    # roots mod p^j; for p = 2 they are the roots mod 2^(j+2), where b and
    # b + 2^(j+1) give the same pair.  p | f puts p^2 in d, so the j = 0
    # term is 1 - 0: the order itself.
    shift, half = (2, 2) if p == 2 else (0, 1)
    total = 0
    for j in range(k % 2, k + 1, 2):
        total += _count(p, j + shift, 0, -d) // half
        if invertible_only:
            total -= _count(p, j + shift + 1, 0, -d) // (half * p)
    return total


def count_invertible_ideals(disc: QuadDiscriminant, M: int) -> int:
    """Invertible integral ideals of norm (= index) exactly M."""
    if M < 1:
        raise ValueError("norm must be positive")
    total = 1
    for p, k in factorize(M).factors:
        total *= _local_count(disc.d, disc.f, p, k, invertible_only=True)
    return total


def count_all_ideals(disc: QuadDiscriminant, M: int) -> int:
    """All integral ideals of norm M, invertible or not."""
    if M < 1:
        raise ValueError("norm must be positive")
    total = 1
    for p, k in factorize(M).factors:
        total *= _local_count(disc.d, disc.f, p, k, invertible_only=False)
    return total


def two_power_factor(d: int, t, ell: int) -> int:
    """2 to the number of odd primes p != ell with v_p(t) >= v_p(d) > 0."""
    if d == 0:
        raise ValueError("discriminant must be nonzero")
    count = 0
    for p, vp in factorize(d).factors:
        if p == 2 or p == ell:
            continue
        # in lowest terms, v_p(t) >= vp >= 1 iff p^vp divides the numerator
        if t.numerator % p**vp == 0:
            count += 1
    return 2**count


def rho2(disc: QuadDiscriminant, s0, s1) -> int:
    """Two-adic case factor; value in {1, 2, 4}.

    First factor doubles when (d = 12 mod 16 and s0 = s1 mod 2) or
    (8 | d and v(s0) >= v(d) - 2); second when 32 | d and 4 | (s0 - 2s1).
    s0, s1 are ints or Fractions, so in lowest terms: for k >= 1, v(x) >= k
    exactly when 2^k divides x's numerator (x = 0 included).
    """
    d = disc.d
    first = (d % 16 == 12 and (s0 - s1).numerator % 2 == 0
             or d % 8 == 0 and s0.numerator % 2 ** (padic_val(d, 2) - 2) == 0)
    second = d % 32 == 0 and (s0 - 2 * s1).numerator % 4 == 0
    return 2 ** (first + second)


def rho_simplified(disc: QuadDiscriminant, M: int, ell: int) -> int:
    """Vanishing-or-power-of-two weight for fundamental discriminants.

    0 when (d, -M)_p = -1 at some p | d, p != ell; otherwise 2 to the
    number of primes p | gcd(d, M) with p != ell.
    """
    if disc.f != 1:
        raise ValueError("defined for fundamental discriminants only")
    if M < 1:
        raise ValueError("norm must be positive")
    if not is_prime(ell):
        raise ValueError(f"{ell} is not prime")
    d = disc.d
    count = 0
    for p, _ in factorize(d).factors:
        if p == ell:
            continue
        if hilbert_symbol(d, -M, p) == -1:
            return 0
        if M % p == 0:
            count += 1
    return 2**count
