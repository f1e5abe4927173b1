"""Brute-force reference implementations, the arbiters of the closed forms.

The tests and the `selftest` verb hold each closed form equal to one of
these; they are desk-scale only.  No other CLI verb imports this module.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .embedding_counts import ScrJQuery
from .integers import (_is_finite_place, factorize, hilbert_symbol, kronecker,
                       padic_val)
from .quadratic_orders import QuadDiscriminant, discriminant_of


def _square_residues(p: int, k: int) -> frozenset:
    mod = p**k
    return frozenset(x * x % mod for x in range(mod))


def hilbert_symbol_oracle(a, b, place, k: int | None = None) -> int:
    """Brute-force Hilbert symbol: primitive solvability of z^2 = ax^2 + by^2.

    Works modulo p^k (default k = 3 for odd p, k = 6 for p = 2), which
    decides the symbol when v_p(a), v_p(b) <= 1 after clearing square
    factors.  Intended for small p; this is the test arbiter.  The place
    must be an int prime or INFINITY, as for `hilbert_symbol`.
    """
    a, b = Fraction(a), Fraction(b)
    if a == 0 or b == 0:
        raise ValueError("Hilbert symbol needs nonzero arguments")
    if not _is_finite_place(place):
        return -1 if (a < 0 and b < 0) else 1
    p = place
    if k is None:
        k = 6 if p == 2 else 3

    def reduce_arg(x: Fraction) -> int:
        # multiply by rational squares: integer with v_p in {0, 1}
        n = x.numerator * x.denominator
        v = padic_val(n, p)
        return n // p ** (2 * (v // 2))

    ra, rb = reduce_arg(a), reduce_arg(b)
    mod = p**k
    squares = _square_residues(p, k)
    xs_unit = sorted({ra * x * x % mod for x in range(mod) if x % p})
    xs_nonu = sorted({ra * x * x % mod for x in range(0, mod, p)})
    ys_unit = sorted({rb * y * y % mod for y in range(mod) if y % p})
    ys_all = sorted(set(ys_unit) | {rb * y * y % mod for y in range(0, mod, p)})
    for xv in xs_unit:
        for yv in ys_all:
            if (xv + yv) % mod in squares:
                return 1
    for xv in xs_nonu:
        for yv in ys_unit:
            if (xv + yv) % mod in squares:
                return 1
    return -1


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


def count_roots_by_enumeration(p: int, C: int, a1: int, a0: int) -> int:
    """Literal enumeration oracle; small moduli only."""
    if C < 0:
        return 0
    mod = p**C
    if mod > 10**6:
        raise ValueError("enumeration oracle is desk-scale only")
    return sum(1 for t in range(mod) if (t * t - a1 * t + a0) % mod == 0)


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
        dp = d1 if f1 % p else d2
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
