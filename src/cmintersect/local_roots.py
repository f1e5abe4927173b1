"""Root counts of monic quadratics modulo prime powers, and the per-branch
local product that weights each (delta, n, f_u) summand.

The count needs no roots.  A nonsingular root mod p lifts uniquely to
every p^C, and mod p there is at most one singular root, the double
root.  The count follows it by substituting t = r + p*s and dividing the
polynomial by p^2, which keeps it monic.  `oracles.count_roots_by_enumeration`
is the test arbiter for small moduli.
"""

from __future__ import annotations

from .integers import _legendre, _split, factorize, is_prime


def count_roots_mod_pk(p: int, C: int, a1: int, a0: int) -> int:
    """Number of residues t mod p^C with t^2 - a1*t + a0 = 0 (mod p^C).

    C < 0 counts nothing; C = 0 counts the single residue class mod 1.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return _count(p, C, a1, a0)


def _count(p: int, C: int, a1: int, a0: int) -> int:
    if C < 0:
        return 0
    scale = 1
    while C:
        # mod p: the nonsingular roots, or the one singular root r
        if p == 2:
            if a1 % 2:
                return scale * 2 * (1 - a0 % 2)
            r = a0 % 2
        else:
            disc = a1 * a1 - 4 * a0
            if disc % p:
                return scale * (1 + _legendre(disc, p))
            r = a1 * (p + 1) // 2 % p
        if C == 1:
            return scale
        fr = r * r - a1 * r + a0
        if fr % (p * p):
            return 0
        # t = r + p*s: (f(r) + f'(r) p s + p^2 s^2) / p^2 is again monic in
        # s, and each root s mod p^(C-2) is p residues t mod p^C
        a1, a0 = (a1 - 2 * r) // p, fr // (p * p)
        C -= 2
        scale *= p
    return scale


def local_weight_exponent(vp: int, f_u: int, d_u: int, t_u: int, p: int) -> int:
    """The shift r_p applied to every root-count level at p, for vp = v_p(delta).

    r_p = max(vp - c_p, 0) with c_p = v_p(f_u), lowered to
    v_p(d_u - t_u f_u) - v_p(2 f_u) when d_u != t_u f_u and that is smaller.
    p must be prime, and f_u nonzero.
    """
    if f_u == 0:
        raise ValueError("0 has no finite p-adic valuation")
    c_p = _split(f_u, p)[1]
    diff = d_u - t_u * f_u
    if diff:
        c_p = min(c_p, _split(diff, p)[1] - _split(2 * f_u, p)[1])
    return max(vp - c_p, 0)


def frakI(nctx, f_u: int, ell: int) -> int:
    """Product over p | delta, p != ell of shifted root-count sums.

    Each factor sums the root counts of t^2 - t_w t + n_w mod p^(j - r_p)
    for j running from v_p(delta) down by steps of two; the empty product
    is 1.
    """
    dctx = nctx.delta_ctx
    total = 1
    for p, vp in factorize(dctx.delta):
        if p == ell:
            continue
        r_p = local_weight_exponent(vp, f_u, nctx.d_u, dctx.t_u, p)
        factor = 0
        for j in range(vp % 2, vp + 1, 2):
            factor += _count(p, j - r_p, dctx.t_w, nctx.n_w)
        total *= factor
    return total
