"""Unbounded-integer arithmetic: valuations, factorization, quadratic symbols.

Everything here is exact.  Hilbert symbols are provided twice: a closed
form built on the standard local formulas, and a brute-force solvability
oracle that decides the symbol by enumerating primitive solutions of
z^2 = a x^2 + b y^2 modulo a prime power.  The oracle is the arbiter in
the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

INFINITY = float("inf")

# the primes up to 41; the first strong pseudoprime to all of them exceeds
# 3.317e24 (Sorenson and Webster, Math. Comp. 2017)
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.317e24; strong-probable beyond."""
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
    for a in _MR_WITNESSES:
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
    if p < 2 or not is_prime(p):
        raise ValueError(f"{p} is not prime")
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


def val_ext(x, p: int):
    """p-adic valuation extended to 0 (-> +inf) and rationals."""
    if x == 0:
        return INFINITY
    if isinstance(x, Fraction):
        return padic_val(x.numerator, p) - padic_val(x.denominator, p)
    return padic_val(x, p)


@dataclass(frozen=True)
class Factorization:
    """Sign and ordered (prime, exponent) pairs; recomposes to the input."""

    sign: int
    factors: tuple[tuple[int, int], ...]

    def value(self) -> int:
        n = self.sign
        for p, e in self.factors:
            n *= p**e
        return n

    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)


def _pollard_brent(n: int) -> int:
    # Brent's cycle variant; n odd composite, not a prime power guard needed
    if n % 2 == 0:
        return 2
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
def factorize(n: int) -> Factorization:
    """Complete prime factorization of n != 0, deterministic.

    Trial division up to 10^4, then Brent-Pollard rho on the remaining
    cofactors; comfortably fast for |n| <= 10^12 and usable well beyond.
    """
    if n == 0:
        raise ValueError("cannot factor 0")
    sign = -1 if n < 0 else 1
    n = abs(n)
    found: dict[int, int] = {}
    for p in range(2, 10_000):
        if p * p > n:
            break
        while n % p == 0:
            found[p] = found.get(p, 0) + 1
            n //= p
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            found[m] = found.get(m, 0) + 1
            continue
        d = _pollard_brent(m)
        stack.append(d)
        stack.append(m // d)
    return Factorization(sign, tuple(sorted(found.items())))


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


def _unit_mod(x: Fraction, p: int, modulus: int) -> int:
    # x is a p-adic unit; its residue mod `modulus` (a power of p)
    num, den = x.numerator, x.denominator
    return num * pow(den, -1, modulus) % modulus


def hilbert_symbol(a, b, place) -> int:
    """Hilbert symbol (a, b)_v over the completion at v.

    v is a prime or INFINITY.  a, b may be ints or Fractions, both nonzero.
    """
    a, b = Fraction(a), Fraction(b)
    if a == 0 or b == 0:
        raise ValueError("Hilbert symbol needs nonzero arguments")
    if place == INFINITY:
        return -1 if (a < 0 and b < 0) else 1
    p = place
    if not is_prime(p):
        raise ValueError(f"{p} is not a prime or INFINITY")
    alpha = val_ext(a, p)
    beta = val_ext(b, p)
    if p == 2:
        u = _unit_mod(a / Fraction(2) ** alpha, 2, 8)
        v = _unit_mod(b / Fraction(2) ** beta, 2, 8)
        eps_u = (u - 1) // 2 % 2
        eps_v = (v - 1) // 2 % 2
        om_u = (u * u - 1) // 8 % 2
        om_v = (v * v - 1) // 8 % 2
        exp = eps_u * eps_v + alpha * om_v + beta * om_u
        return -1 if exp % 2 else 1
    u = _unit_mod(a / Fraction(p) ** alpha, p, p)
    v = _unit_mod(b / Fraction(p) ** beta, p, p)
    exp = alpha * beta * ((p - 1) // 2)
    sym = (-1) ** (exp % 2) * kronecker(u, p) ** (beta % 2) * kronecker(v, p) ** (alpha % 2)
    return sym


def _square_residues(p: int, k: int) -> frozenset:
    mod = p**k
    return frozenset(x * x % mod for x in range(mod))


def hilbert_symbol_oracle(a, b, place, k: int | None = None) -> int:
    """Brute-force Hilbert symbol: primitive solvability of z^2 = ax^2 + by^2.

    Works modulo p^k (default k = 3 for odd p, k = 6 for p = 2), which
    decides the symbol when v_p(a), v_p(b) <= 1 after clearing square
    factors.  Intended for small p; this is the test arbiter.
    """
    a, b = Fraction(a), Fraction(b)
    if a == 0 or b == 0:
        raise ValueError("Hilbert symbol needs nonzero arguments")
    if place == INFINITY:
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
