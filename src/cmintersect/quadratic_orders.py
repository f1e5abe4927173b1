"""Imaginary quadratic orders: discriminant bookkeeping and ideal counting.

An integral ideal of the order of discriminant d is a full sublattice of
Z + Z*alpha (alpha = (d + sqrt(d))/2) closed under multiplication by
alpha; its norm is its index.  `count_invertible_ideals` is the closed
form (multiplicative over prime powers, split/inert/ramified away from
the conductor, quadratic-congruence root counts at conductor primes) and
`count_ideals_bruteforce` is the independent Hermite-normal-form oracle
that arbitrates it in the tests.
"""

from __future__ import annotations

from fractions import Fraction

from ._record import Record
from .integers import factorize, hilbert_symbol, is_prime, kronecker, val_ext
from .local_roots import LocalQuery, count_roots_mod_pk


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


def _nroots(p: int, m: int, d: int) -> int:
    # solutions of x^2 = d (mod p^m)
    return count_roots_mod_pk(LocalQuery(p, m, 0, -d))


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
    # with b^2 = d modulo one more power of p.
    if p == 2:
        def count_S(j):
            return _nroots(2, j + 2, d) // 2

        def count_T(j):
            return _nroots(2, j + 3, d) // 4
    else:
        def count_S(j):
            return _nroots(p, j, d)

        def count_T(j):
            return _nroots(p, j + 1, d) // p

    total = 0
    for j in range(k % 2, k + 1, 2):
        if j == 0:
            total += 1
        elif invertible_only:
            total += count_S(j) - count_T(j)
        else:
            total += count_S(j)
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


def _lattice_contains(a: int, b: int, c: int, w1: Fraction, w2: Fraction) -> bool:
    # does x*(a, 0) + y*(b, c) = (w1, w2) have an integer solution?
    y = Fraction(w2, c)
    if y.denominator != 1:
        return False
    x = (Fraction(w1) - y * b) / a
    return x.denominator == 1


def _contains_int(a: int, b: int, c: int, w1: int, w2: int) -> bool:
    # integer-coordinate membership: x*(a, 0) + y*(b, c) = (w1, w2) solvable
    if w2 % c:
        return False
    return (w1 - (w2 // c) * b) % a == 0


def count_ideals_bruteforce(disc: QuadDiscriminant, M: int,
                            invertible_only: bool = True) -> int:
    """Oracle: exhaustive HNF sublattice enumeration with direct tests.

    Sublattices of index M have column bases (a, 0), (b, c) over (1, alpha)
    with a*c = M, 0 <= b < a.  Ideal test: both alpha-multiples of the basis
    stay inside.  Invertibility test: the multiplier ring equals the order,
    probed by the generator of each order of discriminant d/p^2, p | f.
    """
    if M < 1:
        raise ValueError("norm must be positive")
    if M > 10**4:
        raise ValueError("oracle is desk-scale only (M <= 10^4)")
    d, f = disc.d, disc.f
    q = (d * d - d) // 4  # Norm(alpha)
    probes = []
    for p, _ in factorize(f).factors if f > 1 else ():
        # s + alpha/p generates the order of discriminant d/p^2
        probes.append((p, Fraction(d // (p * p) - d // p, 2)))

    total = 0
    for c in range(1, M + 1):
        if M % c:
            continue
        a = M // c
        if a % c:
            # alpha*(a, 0) = (0, a) needs c | a whatever b is
            continue
        for b in range(a):
            # closure: alpha*(a,0) = (0, a); alpha*(b,c) = (-c*q, b + c*d)
            if not _contains_int(a, b, c, 0, a):
                continue
            if not _contains_int(a, b, c, -c * q, b + c * d):
                continue
            if invertible_only:
                inflated = False
                for p, s in probes:
                    # apply x_p = s + alpha/p to both basis vectors
                    in_a = _lattice_contains(a, b, c, s * a, Fraction(a, p))
                    in_b = _lattice_contains(a, b, c, s * b - Fraction(c * q, p),
                                             s * c + Fraction(b + c * d, p))
                    if in_a and in_b:
                        inflated = True
                        break
                if inflated:
                    continue
            total += 1
    return total


def two_power_factor(d: int, t, ell: int) -> int:
    """2 to the number of odd primes p != ell with v_p(t) >= v_p(d) > 0."""
    if d == 0:
        raise ValueError("discriminant must be nonzero")
    count = 0
    for p, vp in factorize(d).factors:
        if p == 2 or p == ell:
            continue
        if val_ext(t, p) >= vp:
            count += 1
    return 2**count


def rho2(disc: QuadDiscriminant, s0, s1) -> int:
    """Two-adic case factor; value in {1, 2, 4}.

    First factor doubles when (d = 12 mod 16 and s0 = s1 mod 2) or
    (8 | d and v(s0) >= v(d) - 2); second when 32 | d and 4 | (s0 - 2s1).
    Congruences on s0, s1 are read 2-adically so exact rationals are fine.
    """
    d = disc.d
    vd = val_ext(d, 2)
    first = 1
    if d % 16 == 12 and val_ext(Fraction(s0) - Fraction(s1), 2) >= 1:
        first = 2
    elif d % 8 == 0 and val_ext(s0, 2) >= vd - 2:
        first = 2
    second = 1
    if d % 32 == 0 and val_ext(Fraction(s0) - 2 * Fraction(s1), 2) >= 2:
        second = 2
    return first * second


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
    for p, _ in factorize(d).factors:
        if p != ell and hilbert_symbol(d, -M, p) == -1:
            return 0
    count = sum(1 for p, _ in factorize(d).factors if M % p == 0 and p != ell)
    return 2**count
