import math
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cmintersect import (QuadDiscriminant, count_invertible_ideals,
                         discriminant_of, factorize, rho2, two_power_factor)
from cmintersect.matrix_ideals import val_ext
from cmintersect.oracles import count_ideals_bruteforce

from test_integers import PROPERTY

VALID_DISCS = [d for d in range(-400, 0) if d % 4 in (0, 1)]


def test_discriminant_of_examples():
    assert discriminant_of(-4) == QuadDiscriminant(-4, -4, 1)
    assert discriminant_of(-12) == QuadDiscriminant(-12, -3, 2)
    assert discriminant_of(-7) == QuadDiscriminant(-7, -7, 1)
    assert discriminant_of(-32) == QuadDiscriminant(-32, -8, 2)
    assert discriminant_of(-400) == QuadDiscriminant(-400, -4, 10)


def test_discriminant_of_rejections():
    for bad in (0, 4, -1, -2, -5, -9, -14):
        with pytest.raises(ValueError):
            discriminant_of(bad)


def test_discriminant_decomposition_invariants():
    for d in VALID_DISCS:
        disc = discriminant_of(d)
        assert disc.d == disc.f * disc.f * disc.d0
        assert disc.d0 % 4 in (0, 1)
        # fundamental: squarefree and 1 mod 4, or 4m with m squarefree 2,3 mod 4
        if disc.d0 % 4 == 1:
            kernel = disc.d0
        else:
            kernel = disc.d0 // 4
            assert kernel % 4 in (2, 3)
        assert all(kernel % (p * p) for p in range(2, math.isqrt(abs(kernel)) + 1))


def test_invertible_count_examples():
    assert count_invertible_ideals(discriminant_of(-4), 1) == 1
    assert count_invertible_ideals(discriminant_of(-4), 5) == 2
    assert count_invertible_ideals(discriminant_of(-4), 3) == 0


def test_bruteforce_examples():
    assert count_ideals_bruteforce(discriminant_of(-3), 1) == 1
    assert count_ideals_bruteforce(discriminant_of(-3), 7) == 2
    # (2, 1 + sqrt(-3)) is the classical non-invertible ideal of Z[sqrt(-3)]:
    # the lone closed index-2 sublattice has multiplier ring Z[(1+sqrt(-3))/2]
    assert count_ideals_bruteforce(discriminant_of(-12), 2) == 0
    with pytest.raises(ValueError):
        count_ideals_bruteforce(discriminant_of(-3), 10**5)


def test_counts_match_bruteforce_small_slice():
    for d in range(-60, 0):
        if d % 4 not in (0, 1):
            continue
        disc = discriminant_of(d)
        for M in range(1, 30):
            assert count_invertible_ideals(disc, M) == count_ideals_bruteforce(disc, M), (d, M)


@PROPERTY
@given(st.integers(-10**4, -3).filter(lambda d: d % 4 in (0, 1)),
       st.integers(1, 600))
def test_counts_match_bruteforce_property(d, M):
    disc = discriminant_of(d)
    assert count_invertible_ideals(disc, M) == count_ideals_bruteforce(disc, M)


def test_counts_match_character_divisor_sum():
    # away from the conductor the invertible count is the divisor sum of
    # the Kronecker character, an entirely formula-level oracle
    from cmintersect import kronecker
    rng = random.Random(13)
    checked = 0
    while checked < 300:
        disc = discriminant_of(rng.choice(VALID_DISCS))
        M = rng.randint(1, 120)
        if math.gcd(M, disc.f) != 1:
            continue
        expected = sum(kronecker(disc.d, m) for m in range(1, M + 1) if M % m == 0)
        assert count_invertible_ideals(disc, M) == expected, (disc.d, M)
        checked += 1


def test_multiplicativity_away_from_conductor():
    rng = random.Random(11)
    checked = 0
    while checked < 150:
        disc = discriminant_of(rng.choice(VALID_DISCS))
        m1, m2 = rng.randint(1, 40), rng.randint(1, 40)
        if math.gcd(m1, m2) != 1 or math.gcd(m1 * m2, disc.f) != 1:
            continue
        lhs = count_invertible_ideals(disc, m1 * m2)
        rhs = count_invertible_ideals(disc, m1) * count_invertible_ideals(disc, m2)
        assert lhs == rhs, (disc.d, m1, m2)
        checked += 1


def test_rho2_examples():
    assert rho2(discriminant_of(-3), 5, -4) == 1
    assert rho2(discriminant_of(-20), 2, 4) == 2
    assert rho2(discriminant_of(-32), 8, 2) == 4


def test_rho2_range_and_locality():
    rng = random.Random(12)
    for _ in range(600):
        disc = discriminant_of(rng.choice(VALID_DISCS))
        s0, s1 = rng.randint(-200, 200), rng.randint(-200, 200)
        val = rho2(disc, s0, s1)
        assert val in (1, 2, 4)
        # depends on s0 mod 2^(v(d)+2) and s1 mod 4 only
        v = (disc.d & -disc.d).bit_length() - 1
        shift0 = 2 ** (v + 2) * rng.randint(-3, 3)
        shift1 = 4 * rng.randint(-3, 3)
        assert rho2(disc, s0 + shift0, s1 + shift1) == val


def test_rho2_accepts_rationals():
    assert rho2(discriminant_of(-20), Fraction(2), Fraction(4)) == 2
    # non-integral s0 is never congruent to an integer mod 2
    assert rho2(discriminant_of(-20), Fraction(1, 3), 1) == 2
    assert rho2(discriminant_of(-20), Fraction(1, 2), 0) == 1
    # a difference of even-denominator values can still be 0, of valuation inf
    assert rho2(discriminant_of(-20), Fraction(1, 2), Fraction(1, 2)) == 2
    assert rho2(discriminant_of(-32), Fraction(1, 2), Fraction(1, 4)) == 2
    assert rho2(discriminant_of(-32), 0, 0) == 4
    assert rho2(discriminant_of(-32), Fraction(0), Fraction(1, 2)) == 2
    assert rho2(discriminant_of(-32), Fraction(8, 3), Fraction(4, 5)) == 4


def test_two_power_factor_examples():
    assert two_power_factor(-3, 5, 2) == 1
    assert two_power_factor(-4, 123456, 3) == 1
    # v_3(3) = 1 < v_3(-9) = 2, so no odd prime qualifies
    assert two_power_factor(-9, 3, 2) == 1
    assert two_power_factor(-9, 9, 2) == 2
    assert two_power_factor(-9, 0, 2) == 2
    assert two_power_factor(-75, 15, 2) == 2
    assert two_power_factor(-75, 15, 3) == 1
    # Fraction inputs: zero passes everywhere, a denominator divisible by p fails at p
    assert two_power_factor(-75, Fraction(0), 2) == 4
    assert two_power_factor(-75, Fraction(75, 7), 2) == 4
    assert two_power_factor(-75, Fraction(15, 4), 2) == 2
    assert two_power_factor(-75, Fraction(25, 3), 2) == 2
    assert two_power_factor(-75, Fraction(75, 5 * 3**4), 2) == 1


def _two_power_factor_ref(d, t, ell):
    # valuations extended to rationals, v(0) = +inf
    return 2 ** sum(1 for p, vp in factorize(d)
                    if p != 2 and p != ell and val_ext(t, p) >= vp)


def _rho2_ref(disc, s0, s1):
    d, vd = disc.d, val_ext(disc.d, 2)
    first = 1
    if d % 16 == 12 and val_ext(Fraction(s0) - Fraction(s1), 2) >= 1:
        first = 2
    elif d % 8 == 0 and val_ext(s0, 2) >= vd - 2:
        first = 2
    second = 1
    if d % 32 == 0 and val_ext(Fraction(s0) - 2 * Fraction(s1), 2) >= 2:
        second = 2
    return first * second


# products of small primes, so valuations up to 6 and zero both occur
SMOOTH = st.sampled_from((1, 2, 3, 4, 5, 8, 9, 15, 16, 25, 27, 32, 45, 49, 64, 75))
SMOOTH_INTS = st.builds(operator.mul, st.integers(-30, 30), SMOOTH)
# ints, and Fractions whose denominators may hold the primes of d
RATIONALS = st.one_of(SMOOTH_INTS, st.builds(Fraction, SMOOTH_INTS, SMOOTH))
# d = f^2 d0 reaches 12 mod 16, 8 | d and 32 | d, and odd primes squared
DISCS = st.builds(lambda d, f: d * f * f, st.sampled_from(VALID_DISCS),
                  st.sampled_from((1, 2, 3, 4, 5, 6, 8, 15)))


@PROPERTY
@given(DISCS, RATIONALS, st.sampled_from((2, 3, 5, 7)))
def test_two_power_factor_matches_valuation_form(d, t, ell):
    assert two_power_factor(d, t, ell) == _two_power_factor_ref(d, t, ell)


@PROPERTY
@given(DISCS, RATIONALS, RATIONALS)
def test_rho2_matches_valuation_form(d, s0, s1):
    disc = discriminant_of(d)
    assert rho2(disc, s0, s1) == _rho2_ref(disc, s0, s1)
