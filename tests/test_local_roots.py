import random

import pytest

from cmintersect import (CMFieldParams, LocalQuery, count_roots_by_enumeration,
                         count_roots_mod_pk, enumerate_delta, enumerate_n,
                         frakI, kronecker, validate)
from cmintersect.cm_fields import DeltaContext, NContext


def test_count_roots_examples():
    assert count_roots_mod_pk(LocalQuery(5, -2, 1, 1)) == 0
    assert count_roots_mod_pk(LocalQuery(7, -1, 0, 0)) == 0
    assert count_roots_mod_pk(LocalQuery(3, 0, 4, 9)) == 1
    assert count_roots_mod_pk(LocalQuery(3, 1, 0, 0)) == 1
    assert count_roots_mod_pk(LocalQuery(2, 2, 1, 0)) == 2
    for p in (9, 1):
        with pytest.raises(ValueError):
            count_roots_mod_pk(LocalQuery(p, 1, 0, 0))


def test_count_roots_matches_enumeration():
    rng = random.Random(31)
    for _ in range(300):
        q = LocalQuery(rng.choice([2, 3, 5, 7]), rng.randint(0, 5),
                       rng.randint(-60, 60), rng.randint(-60, 60))
        assert count_roots_mod_pk(q) == count_roots_by_enumeration(q), q


def test_count_roots_large_prime_uses_square_roots():
    rng = random.Random(32)
    for _ in range(60):
        p = rng.choice([97, 101, 257])
        q = LocalQuery(p, rng.randint(0, 2), rng.randint(-300, 300),
                       rng.randint(-300, 300))
        assert count_roots_mod_pk(q) == count_roots_by_enumeration(q), q
    for _ in range(30):
        q = LocalQuery(1009, 1, rng.randint(-3000, 3000), rng.randint(-3000, 3000))
        assert count_roots_mod_pk(q) == count_roots_by_enumeration(q), q


def test_hensel_constancy_for_nonsingular_quadratics():
    rng = random.Random(33)
    checked = 0
    while checked < 120:
        p = rng.choice([3, 5, 7, 11])
        a1, a0 = rng.randint(-40, 40), rng.randint(-40, 40)
        disc = a1 * a1 - 4 * a0
        if disc % p == 0:
            continue
        expected = 2 if kronecker(disc, p) == 1 else 0
        for C in range(1, 5):
            assert count_roots_mod_pk(LocalQuery(p, C, a1, a0)) == expected
        checked += 1


WORKED = CMFieldParams(5, 0, 1, 1, 1)


def test_frakI_trivial_for_delta_one():
    field = validate(WORKED)
    ctx = enumerate_n(field, enumerate_delta(field)[0], 2)[0]
    assert frakI(ctx, 1, 2) == 1


def test_frakI_is_one_for_unit_fu_across_branches():
    # r_p = v_p(delta) collapses the level sum to the single term at C = 0
    rng = random.Random(34)
    fields = []
    while len(fields) < 12:
        D = rng.randrange(8, 60)
        try:
            field = validate(CMFieldParams(D, rng.randint(-6, 6), rng.randint(-2, 2),
                                           rng.randint(-6, 6), rng.randint(-6, 6)))
        except Exception:
            continue
        if field.Dtilde > 10**6:
            continue
        fields.append(field)
    checked = 0
    for field in fields:
        for dctx in enumerate_delta(field):
            for ell in (2, 3):
                for ctx in enumerate_n(field, dctx, ell):
                    assert frakI(ctx, 1, ell) == 1
                    checked += 1
    assert checked > 20


def _synthetic_branch(delta, t_u, t_w, n_w, d_u):
    dctx = DeltaContext(delta=delta, a=0, sq=0, C_delta=1, t_u=t_u, t_x=0, t_w=t_w)
    return NContext(delta_ctx=dctx, n=0, N=1, n_u=0, n_x=0, n_w=n_w,
                    t_xuv=0, d_u=d_u, d_x=0)


def test_frakI_level_sum_example():
    # delta = 4, ell odd: the p = 2 factor with r_2 = 0 sums levels 0 and 2
    ctx = _synthetic_branch(delta=4, t_u=0, t_w=1, n_w=0, d_u=-32)
    # c_2 = min(v_2(4), v_2(-32/8)) = 2, so r_2 = 0
    assert frakI(ctx, 4, 3) == 1 + count_roots_mod_pk(LocalQuery(2, 2, 1, 0))
    assert frakI(ctx, 4, 3) == 3
    # same branch at ell = 2 skips the only prime: empty product
    assert frakI(ctx, 4, 2) == 1


def test_frakI_negative_levels_vanish():
    # f_u = 1 makes r_p = v_p(delta); odd v_p(delta) leaves only level 0 vs
    # negative levels which contribute nothing
    ctx = _synthetic_branch(delta=8, t_u=1, t_w=1, n_w=1, d_u=-7)
    assert frakI(ctx, 1, 3) == 1
