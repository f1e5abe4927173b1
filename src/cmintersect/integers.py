"""Unbounded-integer arithmetic: valuations, factorization, quadratic symbols.

Everything here is exact.  The Hilbert symbol is the closed form built
on the standard local formulas; its brute-force solvability oracle is
`oracles.hilbert_symbol_oracle`.  The closed form runs on integers only:
a Fraction a/c enters as a*c, which lies in the same square class, and
the power of p and the unit residues are read off with integer
arithmetic.  `kronecker` and `hilbert_symbol` are public for callers,
tests and tracers; the engine reads every symbol through `_legendre`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import compress

INFINITY = float("inf")

# the primes up to 41; the first strong pseudoprime to all of them exceeds
# 3.317e24 (Sorenson and Webster, Math. Comp. 2017)
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# the first strong pseudoprimes to the bases {2, 3, 5, 7} and
# {2, 3, 5, 7, 11} (Jaeschke, Math. Comp. 61, 1993)
_PSI_4 = 3_215_031_751
_PSI_5 = 2_152_302_898_747


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.317e24; strong-probable beyond.

    The first 4 witnesses suffice below psi_4, the first 5 below psi_5.
    """
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    witnesses = (_MR_WITNESSES[:4] if n < _PSI_4 else
                 _MR_WITNESSES[:5] if n < _PSI_5 else _MR_WITNESSES)
    for a in witnesses:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def padic_val(n: int, p: int) -> int:
    """Largest e with p^e | n.  Rejects n = 0."""
    if n == 0:
        raise ValueError("0 has no finite p-adic valuation")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return _split(n, p)[1]


def _split(a: int, p: int) -> tuple[int, int]:
    """(u, e) with a = u * p^e and p not dividing u, for a nonzero a."""
    e = 0
    while a % p == 0:
        a //= p
        e += 1
    return a, e


def _primes_below(n: int) -> tuple[int, ...]:
    sieve = bytearray([1]) * n
    sieve[:2] = b"\0\0"
    for i in range(2, math.isqrt(n - 1) + 1):
        if sieve[i]:
            sieve[i * i::i] = bytes(len(range(i * i, n, i)))
    return tuple(compress(range(n), sieve))


# factorize's trial divisors: the 1,229 primes below 10^4
_TRIAL_PRIMES = _primes_below(10_000)


def _pollard_brent(n: int) -> int:
    # Brent's cycle variant, for a composite n with no prime factor below
    # the trial-division or sieve limit (so odd)
    seed = 1
    while True:
        y, c, m = seed % n or 1, (seed * 2 + 1) % n or 1, 128
        g = r = q = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
        seed += 1


@lru_cache(maxsize=1 << 16)
def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """The ascending (prime, exponent) pairs of |n| for n != 0, deterministic.

    factorize(1) == factorize(-1) == ().  Trial division by the primes
    below 10^4, then Brent-Pollard rho on the remaining cofactors;
    comfortably fast for |n| <= 10^12 and usable well beyond.
    """
    if n == 0:
        raise ValueError("cannot factor 0")
    n = abs(n)
    found: dict[int, int] = {}
    for p in _TRIAL_PRIMES:
        if p * p > n:
            break
        while n % p == 0:
            found[p] = found.get(p, 0) + 1
            n //= p
    # what trial division leaves has only larger primes, so the two parts
    # concatenate in ascending order
    return tuple(sorted(found.items())) + _factor_rough(n)


def _factor_rough(n: int) -> tuple[tuple[int, int], ...]:
    """The ascending (prime, exponent) pairs of n >= 1, without trial division.

    For cofactors known to have no small prime factor: a primality test,
    then Brent-Pollard rho on what is composite.
    """
    found: dict[int, int] = {}
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if is_prime(m):
            found[m] = found.get(m, 0) + 1
            continue
        d = _pollard_brent(m)
        stack.append(d)
        stack.append(m // d)
    return tuple(sorted(found.items()))


def perfect_square_root(n: int):
    """r with r*r == n, or None when n is not a perfect square."""
    if n < 0:
        return None
    r = math.isqrt(n)
    return r if r * r == n else None


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a | n), the full extension of the Legendre symbol."""
    if a == 0 and n == 0:
        raise ValueError("(0|0) is undefined")
    if n == 0:
        return 1 if a in (1, -1) else 0
    result = 1
    if n < 0:
        n = -n
        if a < 0:
            result = -result
    while n % 2 == 0:
        n //= 2
        if a % 2 == 0:
            return 0
        if a % 8 in (3, 5):
            result = -result
    a %= n
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _legendre(d: int, p: int) -> int:
    """(d | p) for a prime p, equal to `kronecker(d, p)`.

    Odd p: Euler's criterion, d^((p-1)/2) mod p, one C-level `pow`.  Any
    result other than 0, 1 or p - 1 proves p composite, and raises
    (`is_prime` is only probable above 3.317e24).  p = 2: the Kronecker
    value, read from d mod 8.
    """
    if p == 2:
        return 0 if d % 2 == 0 else 1 if d % 8 in (1, 7) else -1
    r = pow(d, (p - 1) // 2, p)
    if r == 1:
        return 1
    if r == p - 1:
        return -1
    if r == 0:
        return 0
    raise ValueError(f"{p} is not prime: Euler's criterion gave {r}")


def _sqrt_mod_prime(a: int, p: int):
    """A square root of a mod p (odd prime), or None.  Tonelli-Shanks."""
    a %= p
    if a == 0:
        return 0
    if _legendre(a, p) != 1:
        return None
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    # write p - 1 = q * 2^s with q odd
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while _legendre(z, p) != -1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r


def _is_finite_place(place) -> bool:
    """True for an int prime, False for INFINITY; ValueError for anything else."""
    if type(place) is not int:
        if place == INFINITY:
            return False
    elif is_prime(place):
        return True
    raise ValueError(f"{place!r} is not a prime or INFINITY")


def _square_class_int(x) -> int:
    # an integer in the square class of x: a/c -> a*c = (a/c) * c^2
    if type(x) is not int:
        x = Fraction(x)
        x = x.numerator * x.denominator
    return x


def _symbol_at_prime(a: int, alpha: int, b: int, beta: int, p: int) -> int:
    """(a p^alpha, b p^beta)_p for a prime p and p-adic units a, b."""
    if p == 2:
        u, v = a % 8, b % 8
        # eps(x) = (x - 1)/2 is odd for x = 3, 7 mod 8 and
        # omega(x) = (x^2 - 1)/8 is odd for x = 3, 5 mod 8
        exp = (u >> 1) * (v >> 1) + alpha * (v in (3, 5)) + beta * (u in (3, 5))
        return -1 if exp % 2 else 1
    sym = -1 if alpha * beta * ((p - 1) // 2) % 2 else 1
    if beta % 2:
        sym *= _legendre(a, p)
    if alpha % 2:
        sym *= _legendre(b, p)
    return sym


def hilbert_symbol(a, b, place) -> int:
    """Hilbert symbol (a, b)_v over the completion at v.

    v is a prime int or INFINITY.  a, b may be ints or Fractions, both
    nonzero; a Fraction a/c is evaluated as the integer a*c.  A v that
    `is_prime` passes above its deterministic bound but that Euler's
    criterion shows composite raises ValueError, as any other v that is
    not prime does.
    """
    a, b = _square_class_int(a), _square_class_int(b)
    if a == 0 or b == 0:
        raise ValueError("Hilbert symbol needs nonzero arguments")
    if not _is_finite_place(place):
        return -1 if (a < 0 and b < 0) else 1
    a, alpha = _split(a, place)
    b, beta = _split(b, place)
    return _symbol_at_prime(a, alpha, b, beta, place)
