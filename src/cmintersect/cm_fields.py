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
One column pass a delta (`_branch_columns`) gives each (delta, n)
branch's values, by finite differences from one closed-form evaluation,
and its Hilbert-symbol support, checked against the product formula.
By the norm identity (the argument is in `NContext`), every support
prime divides N and each symbol is a Legendre symbol of d_u or d_x, so
only N is sieved, and one delta's supports are decided in it.  N is
quadratic in the branch index, so the indices a prime divides form at
most two residue classes (Pomerance's quadratic sieve, EUROCRYPT '84),
read from one plan a field (`_sieve_plan`), which leaves out the primes
with (Dtilde/p) = -1: they divide no N unless they divide delta.  d_u and
d_x are linear in the branch index, so one Legendre symbol, read by
Euler's criterion (one C-level `pow`), decides a whole class: +1 only
strips p, -1 counts the parity of v_p(N), and where p divides d_u and
d_x the local symbol takes the v_p(N) the sieve has just found.
`cm_fields` calls neither `hilbert_symbol` nor `kronecker`.

`enumerate_candidate_primes` and `IndexHypothesisViolated` live here, so
the screen and the CLI's error handling need nothing from the row layer,
which the package loads on first use.
"""

from __future__ import annotations

import math
from collections import defaultdict
from functools import lru_cache
from itertools import compress, repeat, starmap, takewhile

from ._record import Record
from .integers import (_TRIAL_PRIMES, _factor_rough, _legendre, _split,
                       _sqrt_mod_prime, _symbol_at_prime, is_prime,
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


class IntegralityViolation(ArithmeticError):
    pass


class IndexHypothesisViolated(ValueError):
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
    is exactly (ell,).

    The norm identity d_x d_u - X^2 = 4N, X = t_x t_u - 2 t_xuv, makes
    -4N a norm from Q(sqrt(d_u d_x)), so (d_u, -N)_p = (d_x, -N)_p at
    every p.  Let d be d_u when p does not divide it, else d_x.  When p
    does not divide d, (d_u, -N)_p = (d/p)^v_p(N), p = 2 included: an odd
    d is 1 mod 4, since d_u = t_u^2 and d_x = t_x^2 (mod 4).  So p is in
    the support exactly when (d/p) = -1 and v_p(N) is odd; the sieve
    reads (d/p) by Euler's criterion.  The one case left, p dividing
    both d_u and d_x, takes the local symbol of d_u = u p^a against
    -N = -(N/p^e) p^e, where the sieve has just found e = v_p(N).  This
    symbol is also 1 at a p that does not divide N:
    - odd p: X^2 = -4N (mod p) makes -N a unit square;
    - p = 2: both are 0 mod 4, and (X/2)^2 = 1 (mod 8) gives
      -N = 1 - d_u d_x/4 (mod 8): -N = 1 (mod 8), or
      v_2(d_u) = v_2(d_x) = 2 and -N = 5 (mod 8); either way
      (2^i u, -N)_2 = (-1)^(i omega(-N)) = 1.
    So every support prime divides N, and the supports are decided while
    N is sieved (see `_supports_by_sieve`).

    The same identity makes the branch symbol's other expression in the
    paper, (d_u, ((d_u/f_u^2) d_x - 2t)^2 - (d_u/f_u^2) d_x)_p, equal to
    (d_u, -N)_p for every f_u: times f_u^4, a square, its second argument
    is (d_u d_x - 2 t f_u^2)^2 - d_u d_x f_u^2, and `t_pair` gives
    2 t f_u^2 = d_u d_x - f_u X, so it is f_u^2 (X^2 - d_u d_x) =
    -4 N f_u^2, -N times a square.  So `embedding_counts.vanishing_test`
    reads the support and evaluates no symbol of its own.
    """

    delta_ctx: DeltaContext
    n: int
    N: int           # (delta^2 Dtilde - n^2) / (4D), positive
    n_w: int
    t_xuv: int
    d_u: int
    d_x: int
    support: tuple[int, ...]


def congruence_constant(params: CMFieldParams) -> int:
    """cK = a0^2 + a0 a1 D + a1^2 (D^2 - D)/4 - 4 b0 - 2 b1 D."""
    D, a0, a1, b0, b1 = params.D, params.alpha0, params.alpha1, params.beta0, params.beta1
    return a0 * a0 + a0 * a1 * D + a1 * a1 * (D * D - D) // 4 - 4 * b0 - 2 * b1 * D


def validate(params: CMFieldParams) -> CMFieldData:
    """Check the field data and compute (Dtilde, cK).

    The relative discriminant is (A + B sqrt(D))/2 with A = 2 cK + a1^2 D
    and B = 2 a0 a1 + a1^2 D - 4 b1, so its norm is (A^2 - B^2 D)/4.
    Expanded, that is Dtilde = cK^2 - 4D (a1^2 b0 - a0 a1 b1 + b1^2): an
    integer, and Dtilde = cK^2 (mod 4D).  Both embeddings are negative
    iff A < 0 and A^2 > B^2 D, that is A < 0 and Dtilde > 0.
    """
    D = params.D
    if D <= 0 or D % 4 not in (0, 1) or perfect_square_root(D) is not None:
        raise BadRealDiscriminant(f"D = {D} is not a valid non-square discriminant")
    if params.index_bound < 1:
        raise FieldValidationError("index bound must be a positive integer")
    cK = congruence_constant(params)
    a0, a1, b0, b1 = params.alpha0, params.alpha1, params.beta0, params.beta1
    Dtilde = cK * cK - 4 * D * (a1 * a1 * b0 - a0 * a1 * b1 + b1 * b1)
    if not (2 * cK + a1 * a1 * D < 0 and Dtilde > 0):
        raise NotTotallyImaginary(
            "relative discriminant is not negative at both real embeddings")
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


def _supports_by_sieve(Ns, d_us, d_xs, classes) -> list[tuple[int, ...]]:
    """The support of (d_us[i], -Ns[i]) of each branch, ascending.

    Ns[i] > 0 is an integer polynomial in i, so p | Ns[i] depends only
    on i mod p; d_us and d_xs are linear in i with steps divisible by 4,
    so their residues mod p (mod 8 at p = 2) depend only on i mod p too.
    `classes` yields (p, starts) in ascending p, for every prime p below
    the limit that divides some Ns[i]: starts are the residues mod p of
    the indices i with p | Ns[i].  A class whose first N is not divisible
    by p raises `IntegralityViolation`.
    Each symbol follows the norm-identity rule stated in `NContext`: one
    Legendre symbol by Euler's criterion decides a whole sieve class.  A
    class of symbol +1 only strips p from its cofactors; one of -1 counts
    the parity of e = v_p(N); where p divides d_u and d_x, each branch
    takes the local symbol from e, against the p-unit -N/p^e (at p = 2
    both valuations are read from the lowest set bit).  A cofactor prime
    above the limit takes the rule with its own branch's d_u, d_x.
    """
    m = len(Ns)
    limit = min(10_000, math.isqrt(max(Ns, default=0)) + 1)
    cofactors = list(Ns)
    supports = [()] * m
    for p, starts in classes:
        if p >= limit:
            break
        for start in starts:
            if start >= m:  # the class begins past the last branch
                continue
            # one check covers the class; a wrong class would floor the
            # cofactors to 0, and the loops below would then never end
            if Ns[start] % p:
                raise IntegralityViolation(
                    f"sieve class {start} mod {p} holds N = {Ns[start]}, "
                    f"which {p} does not divide")
            sym = _legendre(d_us[start], p) or _legendre(d_xs[start], p)
            if sym == 1:
                for i in range(start, m, p):
                    c = cofactors[i] // p
                    while c % p == 0:
                        c //= p
                    cofactors[i] = c
            elif p == 2 and not sym:
                for i in range(start, m, 2):
                    c, d_u = cofactors[i], d_us[i]
                    e, a = (c & -c).bit_length() - 1, (d_u & -d_u).bit_length() - 1
                    cofactors[i] = c >> e
                    if _symbol_at_prime(d_u >> a, a, -(Ns[i] >> e), e, 2) == -1:
                        supports[i] += (2,)
            else:
                for i in range(start, m, p):
                    v, e = cofactors[i] // p, 1
                    while v % p == 0:
                        v //= p
                        e += 1
                    cofactors[i] = v
                    if e % 2 if sym else _local_symbol(d_us[i], Ns[i], e, p) == -1:
                        supports[i] += (p,)
    square = limit * limit
    for i, c in enumerate(cofactors):
        # no prime below limit is left: a cofactor below limit^2 is a prime q || N
        if 1 < c < square:
            sym = _legendre(d_us[i], c)
            if sym == -1 or not sym and _in_support(d_us[i], d_xs[i], Ns[i], 1, c):
                supports[i] += (c,)
        elif c > 1:
            supports[i] += tuple(q for q, e in _factor_rough(c)
                                 if _in_support(d_us[i], d_xs[i], Ns[i], e, q))
    return supports


def _in_support(d_u: int, d_x: int, N: int, e: int, p: int) -> bool:
    # (d_u, -N)_p = -1 for a prime p with p^e || N, by `NContext`'s rule
    sym = _legendre(d_u, p) or _legendre(d_x, p)
    return sym == -1 and e % 2 == 1 or not sym and _local_symbol(d_u, N, e, p) == -1


def _local_symbol(d_u: int, N: int, e: int, p: int) -> int:
    # (d_u, -N)_p for a prime p with p^e || N, from the sieve's own e
    u, a = _split(d_u, p)
    return _symbol_at_prime(u, a, -(N // p**e), e, p)


@lru_cache(maxsize=2)
def _sieve_plan(D: int, Dt: int) -> tuple:
    """The primes that can divide N on a field with this (D, Dtilde), ascending.

    All primes below the largest sieve limit of the field's deltas,
    min(10^4, isqrt(delta_max^2 Dtilde/(4D)) + 1), delta_max = (D - D mod 2)/4,
    that divide 2D Dtilde, as (p, None), or have (Dtilde/p) = 1, as
    (p, (s_p (2D)^-1, (2D)^-1) mod p) with s_p^2 = Dtilde.  For p prime
    to 2D delta Dtilde, p | 4DN = delta^2 Dtilde - n^2 needs n = +-delta
    s_p (mod p).  At most 2 plans are kept, about 0.1 MB each on E3-E5.
    """
    delta_max = (D - D % 2) // 4
    limit = min(10_000, math.isqrt(delta_max**2 * Dt // (4 * D)) + 1)
    plan = []
    for p in takewhile(lambda p: p < limit, _TRIAL_PRIMES):
        if 2 * D * Dt % p == 0:
            plan.append((p, None))
        elif (s := _sqrt_mod_prime(Dt, p)) is not None:
            inv = pow(2 * D, -1, p)
            plan.append((p, (s * inv % p, inv)))
    return tuple(plan)


@lru_cache(maxsize=4096)
def _branch_columns(field: CMFieldData, dctx: DeltaContext) -> tuple:
    """Every branch of one delta as seven columns in `NContext`'s field order.

    All n in the admissible residue class with positive integral N,
    independent of ell.  The closed forms are evaluated once, at the
    first index k = lo.  n, n_w, t_xuv, d_u and d_x are linear in k:
    `range`s stepping by 2D, 1, sq, 4 delta and -4 (d_u = t_u^2 - 4 n_u
    and d_x = t_x^2 - 4 n_x, with n_u and n_x stepping by -delta and 1).
    N is quadratic: (n + 2D)^2 - n^2 = 4D (n + D), so N drops by n + D a
    step.  The norm identity, checked on every branch, catches a wrong
    step of n, N, t_xuv, d_u or d_x; tests pin every value to its closed
    form.  The supports are sieved on k - lo by the field's `_sieve_plan`,
    with the primes of 2D delta Dtilde found by testing one period.

    Cached for the per-ell queries, since every prime of a field reuses
    the same branches; callers share the cached lists and must not change
    them.  `enumerate_n` wraps only its ell | N branches in `NContext`s;
    the candidate-prime screen calls the builder uncached (`__wrapped__`).
    maxsize counts (field, delta) entries, not branches: E4's take 14.6 MiB.
    """
    params = field.params
    D, cK, Dt = params.D, field.cK, field.Dtilde
    delta, a, sq = dctx.delta, dctx.a, dctx.sq
    b0, b1 = params.beta0, params.beta1
    r = (-cK * delta) % (2 * D)
    dd = delta * delta * Dt
    # N is integral: r^2 = cK^2 delta^2 = dd (mod 4D), by validate's identity
    bound = math.isqrt(dd - 1)  # largest |n| with n^2 < delta^2 Dtilde
    lo = -((bound + r) // (2 * D))
    m = (bound - r) // (2 * D) - lo + 1  # the number of branches
    n = r + 2 * D * lo
    step = (n + cK * delta) // (2 * D)  # exact: n = -cK delta (mod 2D)
    n_u, n_x = -delta * step, b0 + a * b1 + step
    firsts = (n, b0 + (D - a) * b1 + step, b1 * delta + sq * step,
              dctx.t_u**2 - 4 * n_u, dctx.t_x**2 - 4 * n_x)
    # sq = 0 when 4 delta = D, and a range cannot step by 0
    ns, n_ws, t_xuvs, d_us, d_xs = (
        range(v, v + m * diff, diff) if diff else [v] * m
        for v, diff in zip(firsts, (2 * D, 1, sq, 4 * delta, -4)))
    X0 = dctx.t_x * dctx.t_u
    N, Ns = (dd - n * n) // (4 * D), []
    for n, t_xuv, d_u, d_x in zip(ns, t_xuvs, d_us, d_xs):
        if d_u >= 0:
            raise IntegralityViolation(f"d_u = {d_u} is not negative")
        if d_x * d_u - (X0 - 2 * t_xuv) ** 2 != 4 * N:
            raise IntegralityViolation("norm identity failed; input inconsistent")
        Ns.append(N)
        N -= n + D
    # the primes of delta, all among the first delta primes, take the
    # one-period test; another p divides N at n = +-delta s_p (mod p)
    plan, own = _sieve_plan(D, Dt), {p: None for p in _TRIAL_PRIMES[:delta] if delta % p == 0}
    if own:
        plan = sorted({**dict(plan), **own}.items())
    n0 = firsts[0]  # n at the first branch, i = 0
    classes = ((p, [i for i in range(min(p, m)) if Ns[i] % p == 0] if roots is None
                else ((delta * roots[0] - n0 * roots[1]) % p,
                      (-delta * roots[0] - n0 * roots[1]) % p))
               for p, roots in plan)
    supports = _supports_by_sieve(Ns, d_us, d_xs, classes)
    for n, support in zip(ns, supports):
        if len(support) % 2 == 0:
            raise IntegralityViolation(
                f"symbol support {support} of (d_u, -N) at (delta={delta}, n={n}) "
                "has even size; product formula failed")
    return ns, Ns, n_ws, t_xuvs, d_us, d_xs, supports


def enumerate_candidate_primes(field: CMFieldData):
    """Primes ell that pass the symbol screen, with their witnesses.

    A witness is a branch (delta, n) whose symbol support (the finite
    primes p with (d_u, -N)_p = -1, see `NContext`) is exactly {ell}, so
    that ell divides N = (delta^2 Dtilde - n^2)/(4D).  Every other branch
    vanishes at ell, and a branch witnesses at most one prime.
    Witnesses are listed in branch order.

    The screen builds each delta's branch columns uncached, reads n and
    the support, and drops them before the next delta: it builds no
    `NContext` and holds one delta's columns and the answer, never the
    whole field.
    """
    found = defaultdict(list)
    for dctx in enumerate_delta(field):
        delta = dctx.delta
        # n and support, the first and last columns, unnamed: freed before the next delta
        for n, support in zip(*_branch_columns.__wrapped__(field, dctx)[::6]):
            if len(support) == 1:
                found[support[0]].append((delta, n))
    return tuple(sorted((ell, tuple(ws)) for ell, ws in found.items()))


def enumerate_n(field: CMFieldData, dctx: DeltaContext, ell: int) -> tuple[NContext, ...]:
    """All n with n = -cK*delta (mod 2D), N positive integral, ell | N."""
    if not is_prime(ell):
        raise ValueError(f"{ell} is not prime")
    columns = _branch_columns(field, dctx)
    keep = [N % ell == 0 for N in columns[1]]
    return tuple(starmap(NContext, compress(zip(repeat(dctx), *columns), keep)))


def enumerate_fu(nctx: NContext, ell: int) -> tuple[int, ...]:
    """Positive f_u with d_u/f_u^2 a discriminant whose order is maximal at ell.

    With F the conductor of d_u, d_u/f^2 is a discriminant exactly when
    f | F, and its conductor is then F/f.
    """
    F = discriminant_of(nctx.d_u).f
    return tuple(f for f in range(1, F + 1) if F % f == 0 and (F // f) % ell)

