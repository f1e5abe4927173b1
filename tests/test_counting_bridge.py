"""Dual-route check tying the branch weight to direct ideal enumeration.

The per-prime factor of the branch weight is a sum of quadratic root
counts at shifted levels.  Its origin is a count of left ideals of the
local matrix order: ideals of norm p^e containing both u and p^e whose
right order contains w = x + gamma*u/p^e.  This test builds random data
satisfying the congruence assumptions, counts those ideals exhaustively,
and holds the level-sum formula equal to the direct count.
"""

import random
from fractions import Fraction

from cmintersect import count_roots_mod_pk
from cmintersect.matrix_ideals import (PMatrix, enumerate_ideals, generator,
                                       is_optimally_embedded,
                                       right_order_contains, val_ext)


def _min_entry_valuation(m, p):
    return min(val_ext(e, p) for e in m.entries())


def _direct_ideal_count(p, e, u, w):
    delta = p**e
    total = 0
    for I in enumerate_ideals(p, e):
        ginv = generator(I).inverse()
        if not (u * ginv).is_integral_at(p):
            continue
        if not ginv.scale(delta).is_integral_at(p):
            continue
        if right_order_contains(I, w):
            total += 1
    return total


def _level_sum(p, e, r, w):
    return sum(count_roots_mod_pk(p, j - r, int(w.trace), int(w.norm))
               for j in range(e % 2, e + 1, 2))


def test_level_sum_equals_direct_ideal_count():
    rng = random.Random(314)
    checked = 0
    attempts = 0
    while checked < 150 and attempts < 60_000:
        attempts += 1
        p = rng.choice([2, 3])
        e = rng.randint(1, 3 if p == 2 else 2)
        delta = p**e
        c = rng.randint(0, e)
        # u with entry content exactly p^c, trace and norm divisible by delta
        u = PMatrix.of(*(rng.randint(-8, 8) for _ in range(4))).scale(p**c)
        if _min_entry_valuation(u, p) != c:
            continue
        if u.trace % delta or u.norm == 0 or u.norm % delta:
            continue
        x = PMatrix.of(*(rng.randint(-8, 8) for _ in range(4)))
        # gamma with Tr(x u^vee) + gamma * Norm(u)/delta = 0 mod delta;
        # Tr(x u^vee) = Tr(x) Tr(u) - Tr(x u)
        tr_xuv = int(x.trace * u.trace - (x * u).trace)
        nu_over = int(u.norm) // delta
        gamma = next((g for g in range(delta)
                      if (tr_xuv + g * nu_over) % delta == 0), None)
        if gamma is None:
            continue
        w = x + u.scale(Fraction(gamma, delta))
        if w.trace.denominator != 1 or w.norm.denominator != 1:
            continue
        r = max(e - c, 0)
        # the counting statement needs c = 0 or p^r w optimally embedded
        if c != 0 and not is_optimally_embedded(w.scale(p**r), p):
            continue
        formula = _level_sum(p, e, r, w)
        direct = _direct_ideal_count(p, e, u, w)
        assert formula == direct, (p, e, c, gamma, u.entries(), x.entries())
        checked += 1
    assert checked >= 150
