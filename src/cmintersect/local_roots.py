"""Roots of monic quadratics modulo prime powers, and the per-branch
local product that weights each (delta, n, f_u) summand.

The count is Hensel-style: nonsingular roots mod p lift uniquely, singular
roots are followed by substituting t = r + p*s and dividing the polynomial
by p^2, which keeps it monic.  Exhaustive enumeration is the test arbiter
for small moduli.
"""

from __future__ import annotations

from fractions import Fraction

from ._record import Record
from .integers import INFINITY, _is_prime_place, _sqrt_mod_prime, factorize, val_ext


class LocalQuery(Record):
    p: int
    C: int
    a1: int
    a0: int


def _roots_mod_p(p: int, a1: int, a0: int) -> list[int]:
    # roots of t^2 - a1 t + a0 mod p
    if p == 2:
        return [t for t in (0, 1) if (t * t - a1 * t + a0) % 2 == 0]
    if p <= 64:
        return [t for t in range(p) if (t * t - a1 * t + a0) % p == 0]
    disc = (a1 * a1 - 4 * a0) % p
    inv2 = pow(2, -1, p)
    if disc == 0:
        return [a1 * inv2 % p]
    s = _sqrt_mod_prime(disc, p)
    if s is None:
        return []
    return sorted({(a1 + s) * inv2 % p, (a1 - s) * inv2 % p})


def count_roots_mod_pk(q: LocalQuery) -> int:
    """Number of residues t mod p^C with t^2 - a1*t + a0 = 0 (mod p^C).

    C < 0 counts nothing; C = 0 counts the single residue class mod 1.
    """
    p, C, a1, a0 = q.p, q.C, q.a1, q.a0
    if not _is_prime_place(p):
        raise ValueError(f"{p} is not prime")
    return _count(p, C, a1, a0)


def _count(p: int, C: int, a1: int, a0: int) -> int:
    if C < 0:
        return 0
    if C == 0:
        return 1
    roots = _roots_mod_p(p, a1, a0)
    if C == 1:
        return len(roots)
    total = 0
    for r in roots:
        fr = r * r - a1 * r + a0
        dfr = 2 * r - a1
        if dfr % p:
            total += 1
            continue
        if fr % (p * p):
            continue
        # t = r + p*s: (f(r) + f'(r) p s + p^2 s^2) / p^2 is again monic in s
        total += p * _count(p, C - 2, -dfr // p, fr // (p * p))
    return total


def count_roots_by_enumeration(q: LocalQuery) -> int:
    """Literal enumeration oracle; small moduli only."""
    if q.C < 0:
        return 0
    mod = q.p**q.C
    if mod > 10**6:
        raise ValueError("enumeration oracle is desk-scale only")
    return sum(1 for t in range(mod) if (t * t - q.a1 * t + q.a0) % mod == 0)


def local_weight_exponent(delta: int, f_u: int, d_u: int, t_u: int, p: int) -> int:
    """The shift r_p applied to every root-count level at p.

    r_p = max(v_p(delta) - min(v_p(f_u), v_p((d_u - t_u f_u)/(2 f_u))), 0),
    with valuations extended to rationals and v(0) treated as +infinity.
    """
    vdelta = val_ext(delta, p)
    ratio = Fraction(d_u - t_u * f_u, 2 * f_u)
    c_p = min(val_ext(f_u, p), val_ext(ratio, p))
    if c_p == INFINITY:
        return 0
    return max(vdelta - c_p, 0)


def frakI(nctx, f_u: int, ell: int) -> int:
    """Product over p | delta, p != ell of shifted root-count sums.

    Each factor sums count_roots_mod_pk at levels j - r_p for j running
    from v_p(delta) down by steps of two; the empty product is 1.
    """
    dctx = nctx.delta_ctx
    delta = dctx.delta
    total = 1
    for p, vp in factorize(delta).factors:
        if p == ell:
            continue
        r_p = local_weight_exponent(delta, f_u, nctx.d_u, dctx.t_u, p)
        factor = 0
        for j in range(vp % 2, vp + 1, 2):
            factor += count_roots_mod_pk(LocalQuery(p, j - r_p, dctx.t_w, nctx.n_w))
        total *= factor
    return total
