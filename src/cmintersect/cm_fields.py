"""Quartic CM field input validation and branch enumeration.

A field is given by the discriminant D of the real quadratic order and
integers (alpha0, alpha1, beta0, beta1) describing the relative trace and
norm of a generator over the basis (1, omega), omega = (D + sqrt(D))/2.
Validation derives the norm Dtilde of the relative discriminant and the
congruence constant cK, checking exactly (never in floating point) that
the relative discriminant is negative under both real embeddings and that
Dtilde is not a perfect square.

Branches of the intersection sum are enumerated in three layers: delta
(with D - 4*delta a perfect square), then n (a single residue class mod
2D, both signs, bounded by delta^2 * Dtilde), then the divisor f_u.
Each (delta, n) branch carries its Hilbert-symbol support, computed once
and checked against the product formula.  The support lies in the primes
of N (see `NContext`), so only N is sieved, and the supports of all
branches of one delta are decided in that sieve.  N is quadratic in the
branch index, so the indices a prime divides form at most two residue
classes (Pomerance's quadratic sieve, EUROCRYPT '84).  By the norm
identity, (d_u, -N)_p = (d_x, -N)_p, and that is (d/p)^v_p(N) for
whichever d of d_u, d_x is prime to p.  Both are linear in the branch
index, so one symbol decides a whole class; only a branch where p
divides both d_u and d_x takes the full Hilbert symbol.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from ._record import Record
from .integers import (_TRIAL_PRIMES, _factor_rough, _is_prime_place,
                       _sqrt_mod_prime, hilbert_symbol, kronecker,
                       perfect_square_root)
from .quadratic_orders import discriminant_of


class FieldValidationError(ValueError):
    pass


class BadRealDiscriminant(FieldValidationError):
    pass


class NotTotallyImaginary(FieldValidationError):
    pass


class NotPrimitive(FieldValidationError):
    pass


class HalfIntegerDiscriminant(FieldValidationError):
    pass


class IntegralityViolation(ArithmeticError):
    pass


class CMFieldParams(Record):
    D: int
    alpha0: int
    alpha1: int
    beta0: int
    beta1: int
    index_bound: int = 1


class CMFieldData(Record):
    params: CMFieldParams
    Dtilde: int
    cK: int


class DeltaContext(Record):
    delta: int
    a: int
    sq: int          # sq^2 = D - 4*delta, sq = D - 2a
    C_delta: int     # 2 when 4*delta = D, else 1
    t_u: int
    t_x: int
    t_w: int


class NContext(Record):
    """One (delta, n) branch, independent of ell.

    `support` is the sorted tuple of finite primes p with
    (d_u, -N)_p = -1.  Both arguments are negative, so the symbol at the
    archimedean place is -1 and the product formula makes the support
    odd in size; the branch can contribute at ell only when the support
    is exactly (ell,).  It is left empty only on branches built by hand.

    The norm identity d_x d_u - X^2 = 4N, X = t_x t_u - 2 t_xuv, makes
    -4N a norm from Q(sqrt(d_u d_x)), so (d_u, -N)_p = (d_x, -N)_p at
    every p.  Let d be d_u when p does not divide it, else d_x.  When p
    does not divide d, (d_u, -N)_p = (d/p)^v_p(N), p = 2 included: an odd
    d is 1 mod 4, since d_u = t_u^2 and d_x = t_x^2 (mod 4).  So p is in
    the support exactly when (d/p) = -1 and v_p(N) is odd.  The one case
    left, p dividing both d_u and d_x, takes the full symbol, which is
    also 1 away from N:
    - odd p: X^2 = -4N (mod p) makes -N a unit square;
    - p = 2: both are 0 mod 4, and (X/2)^2 = 1 (mod 8) gives
      -N = 1 - d_u d_x/4 (mod 8): -N = 1 (mod 8), or
      v_2(d_u) = v_2(d_x) = 2 and -N = 5 (mod 8); either way
      (2^i u, -N)_2 = (-1)^(i omega(-N)) = 1.
    So every support prime divides N, and the supports are decided while
    N is sieved (see `_supports_by_sieve`).
    """

    delta_ctx: DeltaContext
    n: int
    N: int           # (delta^2 Dtilde - n^2) / (4D), positive
    n_u: int
    n_x: int
    n_w: int
    t_xuv: int
    d_u: int
    d_x: int
    support: tuple[int, ...] = ()


def congruence_constant(params: CMFieldParams) -> int:
    """cK = a0^2 + a0 a1 D + a1^2 (D^2 - D)/4 - 4 b0 - 2 b1 D."""
    D, a0, a1, b0, b1 = params.D, params.alpha0, params.alpha1, params.beta0, params.beta1
    return a0 * a0 + a0 * a1 * D + a1 * a1 * (D * D - D) // 4 - 4 * b0 - 2 * b1 * D


def validate(params: CMFieldParams) -> CMFieldData:
    """Check the field data and compute (Dtilde, cK).

    The relative discriminant is A + B*sqrt(D) with 2A, 2B integers; both
    embeddings are negative iff 2A < 0 and (2A)^2 > (2B)^2 D, compared
    after clearing the halves.
    """
    D = params.D
    if D <= 0 or D % 4 not in (0, 1) or perfect_square_root(D) is not None:
        raise BadRealDiscriminant(f"D = {D} is not a valid non-square discriminant")
    if params.index_bound < 1:
        raise FieldValidationError("index bound must be a positive integer")
    cK = congruence_constant(params)
    a0, a1, b1 = params.alpha0, params.alpha1, params.beta1
    A2 = 2 * cK + a1 * a1 * D
    B2 = 2 * a0 * a1 + a1 * a1 * D - 4 * b1
    if (A2 * A2 - B2 * B2 * D) % 4:
        raise HalfIntegerDiscriminant(
            "norm of the relative discriminant is not an integer")
    if not (A2 < 0 and A2 * A2 > B2 * B2 * D):
        raise NotTotallyImaginary(
            "relative discriminant is not negative at both real embeddings")
    Dtilde = (A2 * A2 - B2 * B2 * D) // 4
    if perfect_square_root(Dtilde) is not None:
        raise NotPrimitive(f"Dtilde = {Dtilde} is a perfect square")
    return CMFieldData(params, Dtilde, cK)


def enumerate_delta(field: CMFieldData) -> tuple[DeltaContext, ...]:
    """All delta >= 1 with D - 4*delta a perfect square, ascending."""
    D = field.params.D
    a0, a1 = field.params.alpha0, field.params.alpha1
    if D < 4 or D % 4 > 1:
        return ()
    out = []
    # sq = D mod 2 makes D - sq^2 a multiple of 4 when D = 0, 1 mod 4
    for sq in reversed(range(D % 2, math.isqrt(D - 4) + 1, 2)):
        delta = (D - sq * sq) // 4
        a = (D - sq) // 2
        out.append(DeltaContext(
            delta=delta, a=a, sq=sq,
            C_delta=2 if 4 * delta == D else 1,
            t_u=a1 * delta,
            t_x=a0 + a * a1,
            t_w=a0 + (D - a) * a1,
        ))
    return tuple(out)


def _supports_by_sieve(Ns: list[int], d_us: list[int], d_xs: list[int],
                       starts) -> list[tuple[int, ...]]:
    """The support of (d_us[i], -Ns[i]) of each branch, ascending.

    Ns[i] > 0; d_us and d_xs are linear in i with steps divisible by 4,
    so their residues mod p (mod 8 at p = 2) depend only on i mod p.
    starts(p) gives the residues mod p of the indices i with p | Ns[i].
    Every support prime divides N, and with d = d_u when p does not
    divide it, else d_x, (d_u, -N)_p = (d/p)^v_p(N) (see `NContext`): one
    symbol decides a whole sieve class, and a cofactor prime above the
    sieve limit takes the same rule with its own branch's d_u and d_x.
    Only where p divides both does each branch take `hilbert_symbol`.
    """
    m = len(Ns)
    limit = min(10_000, math.isqrt(max(Ns)) + 1)
    cofactors = list(Ns)
    supports = [[] for _ in range(m)]
    for p in _TRIAL_PRIMES:
        if p >= limit:
            break
        for start in starts(p):
            if start >= m:  # the class begins past the last branch
                continue
            sym = kronecker(d_us[start], p) or kronecker(d_xs[start], p)
            for i in range(start, m, p):
                v, e = cofactors[i] // p, 1
                while v % p == 0:
                    v //= p
                    e += 1
                cofactors[i] = v
                if (sym == -1 and e % 2
                        or not sym and hilbert_symbol(d_us[i], -Ns[i], p) == -1):
                    supports[i].append(p)
    # no prime below limit is left, so a cofactor below limit^2 is prime
    for i, c in enumerate(cofactors):
        if c >= limit * limit:
            rest = _factor_rough(c)
        elif c > 1:
            rest = ((c, 1),)
        else:
            continue
        for q, e in rest:
            sym = kronecker(d_us[i], q) or kronecker(d_xs[i], q)
            if (sym == -1 and e % 2
                    or not sym and hilbert_symbol(d_us[i], -Ns[i], q) == -1):
                supports[i].append(q)
    return [tuple(s) for s in supports]


# s_p with s_p^2 = Dtilde (mod p): every delta of a field sieves by it
_sqrt_dtilde_mod_prime = lru_cache(maxsize=4096)(_sqrt_mod_prime)


@lru_cache(maxsize=4096)
def _n_contexts(field: CMFieldData, dctx: DeltaContext) -> tuple[NContext, ...]:
    # all n in the admissible residue class with positive integral N,
    # independent of ell; cached because every prime reuses them
    params = field.params
    D, cK, Dt = params.D, field.cK, field.Dtilde
    delta, a, sq = dctx.delta, dctx.a, dctx.sq
    b0, b1 = params.beta0, params.beta1
    r = (-cK * delta) % (2 * D)
    dd = delta * delta * Dt
    # n^2 mod 4D is constant on the class, so integrality of N is too
    if (dd - r * r) % (4 * D):
        return ()
    bound = math.isqrt(dd - 1)  # largest |n| with n^2 < delta^2 Dtilde
    lo = -((bound + r) // (2 * D))
    hi = (bound - r) // (2 * D)
    branches = []
    for k in range(lo, hi + 1):
        n = r + 2 * D * k
        N = (dd - n * n) // (4 * D)
        step = (n + cK * delta) // (2 * D)  # exact: n = -cK delta (mod 2D)
        n_u = -delta * step
        t_xuv = b1 * delta + sq * step
        n_x = b0 + a * b1 + step
        n_w = b0 + (D - a) * b1 + step
        d_u = dctx.t_u**2 - 4 * n_u
        d_x = dctx.t_x**2 - 4 * n_x
        if d_u >= 0:
            raise IntegralityViolation(f"d_u = {d_u} is not negative")
        if (d_x * d_u - (dctx.t_x * dctx.t_u - 2 * t_xuv) ** 2) != 4 * N:
            raise IntegralityViolation("norm identity failed; input inconsistent")
        branches.append((n, N, n_u, n_x, n_w, t_xuv, d_u, d_x))
    if not branches:
        return ()
    # Sieve k = lo + i.  N(k) is periodic mod p, so p | N exactly when
    # (r + 2Dk)^2 = delta^2 Dtilde (mod p); primes dividing 2D delta
    # Dtilde are found by testing one period.
    Ns = [b[1] for b in branches]

    def N_starts(p):
        if (2 * D * delta * Dt) % p == 0:
            return [i for i in range(min(p, len(Ns))) if Ns[i] % p == 0]
        s = _sqrt_dtilde_mod_prime(Dt, p)
        if s is None:
            return ()
        inv = pow(2 * D, -1, p)
        return ((delta * s - r) * inv - lo) % p, ((-delta * s - r) * inv - lo) % p

    out = []
    d_us = [b[6] for b in branches]
    d_xs = [b[7] for b in branches]
    for branch, support in zip(branches, _supports_by_sieve(Ns, d_us, d_xs, N_starts)):
        if len(support) % 2 == 0:
            raise IntegralityViolation(
                f"symbol support {support} of (d_u, -N) at (delta={delta}, n={branch[0]}) "
                "has even size; product formula failed")
        out.append(NContext(dctx, *branch, support))
    return tuple(out)


def enumerate_n(field: CMFieldData, dctx: DeltaContext, ell: int) -> tuple[NContext, ...]:
    """All n with n = -cK*delta (mod 2D), N positive integral, ell | N."""
    if not _is_prime_place(ell):
        raise ValueError(f"{ell} is not prime")
    return tuple(ctx for ctx in _n_contexts(field, dctx) if ctx.N % ell == 0)


def enumerate_fu(nctx: NContext, ell: int) -> tuple[int, ...]:
    """Positive f_u with d_u/f_u^2 a discriminant whose order is maximal at ell.

    With F the conductor of d_u, d_u/f^2 is a discriminant exactly when
    f | F, and its conductor is then F/f.
    """
    F = discriminant_of(nctx.d_u).f
    return tuple(f for f in range(1, F + 1) if F % f == 0 and (F // f) % ell)


def t_pair(nctx: NContext, f_u: int) -> Fraction:
    """Exact value of (d_x d_u - f_u (t_x t_u - 2 t_xuv)) / (2 f_u^2)."""
    dctx = nctx.delta_ctx
    num = nctx.d_x * nctx.d_u - f_u * (dctx.t_x * dctx.t_u - 2 * nctx.t_xuv)
    return Fraction(num, 2 * f_u * f_u)
