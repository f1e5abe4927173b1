import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cmintersect import (CMFieldParams, count_roots_mod_pk, enumerate_delta,
                         enumerate_n, frakI, kronecker, validate)
from cmintersect.cm_fields import DeltaContext, NContext
from cmintersect.local_roots import local_weight_exponent
from cmintersect.matrix_ideals import val_ext
from cmintersect.oracles import count_roots_by_enumeration

from test_integers import PROPERTY
from test_quadratic_orders import SMOOTH

# (p, C) with p^C small enough to enumerate; C = -1 counts nothing
SMALL_MODULI = [(p, C) for p in (2, 3, 5, 7, 11, 13, 17, 61) for C in range(-1, 13)
                if p ** max(C, 0) <= 4096]


def test_count_roots_examples():
    assert count_roots_mod_pk(5, -2, 1, 1) == 0
    assert count_roots_mod_pk(7, -1, 0, 0) == 0
    assert count_roots_mod_pk(3, 0, 4, 9) == 1
    assert count_roots_mod_pk(3, 1, 0, 0) == 1
    assert count_roots_mod_pk(2, 2, 1, 0) == 2
    for p in (9, 1):
        with pytest.raises(ValueError):
            count_roots_mod_pk(p, 1, 0, 0)


def test_count_roots_matches_enumeration():
    rng = random.Random(31)
    for _ in range(300):
        q = (rng.choice([2, 3, 5, 7]), rng.randint(0, 5),
             rng.randint(-60, 60), rng.randint(-60, 60))
        assert count_roots_mod_pk(*q) == count_roots_by_enumeration(*q), q


@PROPERTY
@given(st.sampled_from(SMALL_MODULI), st.integers(-10**6, 10**6),
       st.integers(-10**6, 10**6))
def test_count_roots_matches_enumeration_property(modulus, a1, a0):
    q = (*modulus, a1, a0)
    assert count_roots_mod_pk(*q) == count_roots_by_enumeration(*q)


def test_count_roots_large_prime_uses_square_roots():
    rng = random.Random(32)
    for _ in range(60):
        p = rng.choice([97, 101, 257])
        q = (p, rng.randint(0, 2), rng.randint(-300, 300), rng.randint(-300, 300))
        assert count_roots_mod_pk(*q) == count_roots_by_enumeration(*q), q
    for _ in range(30):
        q = (1009, 1, rng.randint(-3000, 3000), rng.randint(-3000, 3000))
        assert count_roots_mod_pk(*q) == count_roots_by_enumeration(*q), q


def test_count_roots_deep_double_root():
    # t^2 = 0 mod p^C holds exactly when v_p(t) >= ceil(C/2); the count
    # follows the double root two levels a step, 1,050 and 2,500 steps
    # here, far past the interpreter's recursion limit
    assert count_roots_mod_pk(3, 2101, 0, 0) == 3**1050
    assert count_roots_mod_pk(2, 5001, 0, 0) == 2**2500


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
            assert count_roots_mod_pk(p, C, a1, a0) == expected
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
    return NContext(delta_ctx=dctx, n=0, N=1, n_w=n_w, t_xuv=0, d_u=d_u, d_x=0,
                    support=())


def test_frakI_level_sum_example():
    # delta = 4, ell odd: the p = 2 factor with r_2 = 0 sums levels 0 and 2
    ctx = _synthetic_branch(delta=4, t_u=0, t_w=1, n_w=0, d_u=-32)
    # c_2 = min(v_2(4), v_2(-32/8)) = 2, so r_2 = 0
    assert frakI(ctx, 4, 3) == 1 + count_roots_mod_pk(2, 2, 1, 0)
    assert frakI(ctx, 4, 3) == 3
    # same branch at ell = 2 skips the only prime: empty product
    assert frakI(ctx, 4, 2) == 1
    # the first argument is v_2(delta) = v_2(4) = 2
    assert local_weight_exponent(2, 4, -32, 0, 2) == 0
    # d_u = t_u f_u: the ratio is 0, so c_2 = v_2(f_u) = 2 and r_2 = 0 again
    assert local_weight_exponent(2, 4, -32, -8, 2) == 0
    ctx = _synthetic_branch(delta=4, t_u=-8, t_w=1, n_w=0, d_u=-32)
    assert frakI(ctx, 4, 3) == 3
    # ratio 2/8 = 1/4 has a denominator divisible by 2: c_2 = -2, r_2 = 4,
    # so both levels are negative and the factor is empty
    assert local_weight_exponent(2, 4, 2, 0, 2) == 4
    assert frakI(_synthetic_branch(delta=4, t_u=0, t_w=1, n_w=0, d_u=2), 4, 3) == 0


def _weight_exponent_ref(delta, f_u, d_u, t_u, p):
    # valuations extended to rationals, v(0) = +inf
    c_p = min(val_ext(f_u, p), val_ext(Fraction(d_u - t_u * f_u, 2 * f_u), p))
    return max(val_ext(delta, p) - c_p, 0)


@PROPERTY
@given(SMOOTH, SMOOTH, st.integers(-10**4, 10**4),
       st.one_of(st.just(0), st.builds(operator.mul, st.integers(-30, 30), SMOOTH)),
       st.sampled_from((2, 3, 5, 7)))
def test_local_weight_exponent_matches_valuation_form(delta, f_u, t_u, diff, p):
    # d_u - t_u f_u = diff, which is 0 (d_u = t_u f_u) or has a chosen valuation
    d_u = t_u * f_u + diff
    assert (local_weight_exponent(val_ext(delta, p), f_u, d_u, t_u, p)
            == _weight_exponent_ref(delta, f_u, d_u, t_u, p))


def test_local_weight_exponent_rejects_zero_fu():
    # v_p(0) is infinite: without the check the valuation loop never ends
    with pytest.raises(ValueError):
        local_weight_exponent(1, 0, -3, 1, 2)


def test_frakI_negative_levels_vanish():
    # f_u = 1 makes r_p = v_p(delta); odd v_p(delta) leaves only level 0 vs
    # negative levels which contribute nothing
    ctx = _synthetic_branch(delta=8, t_u=1, t_w=1, n_w=1, d_u=-7)
    assert frakI(ctx, 1, 3) == 1
