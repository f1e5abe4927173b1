import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmintersect import (INFINITY, factorize, hilbert_symbol, is_prime,
                         kronecker, padic_val, perfect_square_root)
from cmintersect.integers import _TRIAL_PRIMES, _legendre, _split, _sqrt_mod_prime
from cmintersect.oracles import hilbert_symbol_oracle

NONZERO = st.integers(-10**6, 10**6).filter(bool)
ORACLE_PRIMES = st.sampled_from([2, 3, 5, 7, 11, 13])
PROPERTY = settings(max_examples=200, deadline=None, database=None)


def test_padic_val_examples():
    assert padic_val(12, 2) == 2
    assert padic_val(7, 3) == 0
    assert padic_val(-250, 5) == 3


def test_padic_val_rejects_zero_and_composite():
    with pytest.raises(ValueError):
        padic_val(0, 3)
    with pytest.raises(ValueError):
        padic_val(12, 4)


def test_split_examples():
    # a = u * p^e with p not dividing u; the sign stays with u
    assert _split(-12, 2) == (-3, 2)
    assert _split(96, 2) == (3, 5)
    assert _split(-250, 5) == (-2, 3)
    assert _split(-81, 3) == (-1, 4)
    assert _split(7, 3) == (7, 0)
    assert _split(-1, 2) == (-1, 0)
    assert _split(-15, 2) == (-15, 0)


def test_factorize_examples():
    assert factorize(1) == factorize(-1) == ()
    assert factorize(12) == ((2, 2), (3, 1))
    assert factorize(-12) == factorize(12)
    assert factorize(41) == ((41, 1),)
    with pytest.raises(ValueError):
        factorize(0)


def test_factorize_round_trip():
    rng = random.Random(1)
    values = [rng.randint(-10**12, 10**12) for _ in range(80)]
    values += [2**40, -3**25, 10**12 - 1, 999999999989]
    # around the end of the trial table: 9973 is its last prime, 10007 the
    # first prime past it; then two primes above 10^6
    values += [9973**2, 9973 * 10007, -10007**2, 1000003 * 1000033]
    for n in values:
        if n == 0:
            continue
        pairs = factorize(n)
        assert math.prod(p**e for p, e in pairs) == abs(n)
        primes = [p for p, _ in pairs]
        assert all(is_prime(p) for p in primes)
        assert primes == sorted(set(primes))
        assert all(e >= 1 for _, e in pairs)


def test_trial_prime_table():
    assert list(_TRIAL_PRIMES) == [p for p in range(10_000) if is_prime(p)]
    assert len(_TRIAL_PRIMES) == 1229


def test_strong_pseudoprime_to_bases_up_to_37():
    # the least strong pseudoprime to the prime bases 2..37 (Sorenson and
    # Webster, Math. Comp. 2017), below the bound is_prime states
    n = 318665857834031151167461
    assert n == 399165290221 * 798330580441
    assert not is_prime(n)
    assert factorize(n) == ((399165290221, 1), (798330580441, 1))
    assert is_prime(399165290221) and is_prime(798330580441)


def _strong_probable_prime(n, witnesses):
    # the Miller-Rabin loop of is_prime on a given witness set, odd n > 41
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in witnesses:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


ALL_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PSI_4, PSI_5, PSI_6 = 3_215_031_751, 2_152_302_898_747, 3_474_749_660_383


def _thirteen_witness_is_prime(n):
    # the reference for every band: trial division, then all 13 witnesses
    if n in ALL_WITNESSES:
        return True
    return n > 1 and all(n % p for p in ALL_WITNESSES) \
        and _strong_probable_prime(n, ALL_WITNESSES)


def test_witness_switch_points_are_composite():
    # Jaeschke (Math. Comp. 61, 1993): the least strong pseudoprimes to the
    # first 4, 5 and 6 prime bases; is_prime switches witness sets at the
    # first two, so each must fall to the next larger set
    assert PSI_4 == 151 * 751 * 28351
    for n, k in ((PSI_4, 4), (PSI_5, 5), (PSI_6, 6)):
        assert _strong_probable_prime(n, ALL_WITNESSES[:k])
        assert not _strong_probable_prime(n, ALL_WITNESSES[:k + 1])
        assert not is_prime(n)
        pairs = factorize(n)
        assert math.prod(p**e for p, e in pairs) == n and len(pairs) > 1


def _chernick_carmichaels(lo, hi):
    # (6k+1)(12k+1)(18k+1) is a Carmichael number when all three are prime
    out = []
    k = 1
    while (n := (6 * k + 1) * (12 * k + 1) * (18 * k + 1)) < hi:
        if n >= lo and all(map(_thirteen_witness_is_prime,
                               (6 * k + 1, 12 * k + 1, 18 * k + 1))):
            out.append(n)
        k += 1
    return out


def test_witness_bands_agree_with_all_thirteen_witnesses():
    rng = random.Random(12)
    bands = ((43, PSI_4), (PSI_4, PSI_5), (PSI_5, 10**18))
    for lo, hi in bands:
        odd = [rng.randrange(lo, hi) | 1 for _ in range(400)]
        carmichaels = _chernick_carmichaels(lo, min(hi, 10**15))
        assert carmichaels, (lo, hi)
        for n in odd + carmichaels:
            assert is_prime(n) == _thirteen_witness_is_prime(n), n
        assert not any(is_prime(n) for n in carmichaels)
        # the band's random draws meet primes too
        assert any(is_prime(n) for n in odd)


def test_perfect_square_root():
    assert perfect_square_root(49) == 7
    assert perfect_square_root(8) is None
    assert perfect_square_root(0) == 0
    assert perfect_square_root(-4) is None
    big = (10**15 + 37) ** 2
    assert perfect_square_root(big) == 10**15 + 37
    assert perfect_square_root(big + 1) is None


def test_kronecker_examples():
    assert kronecker(2, 7) == 1
    assert kronecker(3, 5) == -1
    for n in (1, -1, 2, 15, -40, 997):
        assert kronecker(1, n) == 1
    with pytest.raises(ValueError):
        kronecker(0, 0)


def test_kronecker_at_zero_and_negative_n():
    # (a|0) is 1 for a = +-1, else 0; (a|-n) = (a|-1)(a|n), (a|-1) the sign of a
    assert [kronecker(a, 0) for a in (1, -1, 2, -2, 5, -3)] == [1, 1, 0, 0, 0, 0]
    assert [kronecker(a, -1) for a in (1, -1, 7, -7)] == [1, -1, 1, -1]
    assert kronecker(-1, -3) == 1 and kronecker(-3, -5) == 1 and kronecker(-2, -7) == 1
    for a in range(-30, 31):
        for n in range(1, 30):
            assert kronecker(a, -n) == (-1 if a < 0 else 1) * kronecker(a, n), (a, n)


def test_kronecker_against_square_enumeration():
    for p in (3, 5, 7, 11, 13):
        squares = {x * x % p for x in range(1, p)}
        for a in range(-20, 21):
            expected = 0 if a % p == 0 else (1 if a % p in squares else -1)
            assert kronecker(a, p) == expected, (a, p)


# primes above 10^8, two of them above is_prime's deterministic bound 3.317e24
LARGE_PRIMES = (100_000_007, 998_244_353, 1_000_000_007, 2**31 - 1, 10**12 + 39,
                2**61 - 1, 2**89 - 1, 2**127 - 1)
# the first strong pseudoprime to the 13 witnesses 2, ..., 41 (Sorenson and
# Webster, Math. Comp. 2017): 1287836182261 * 2575672364521
PSI_13 = 3_317_044_064_679_887_385_961_981


def test_legendre_matches_kronecker_at_every_prime_below_ten_thousand():
    rng = random.Random(14)
    for p in _TRIAL_PRIMES:
        if p < 200:
            ds = range(-2 * p, 2 * p + 1)
        else:
            ds = (0, 1, -1, 2, -2, 3, -3, 5, -8, p - 1, -p + 1, p + 1, -p - 1, 2 * p, -3 * p,
                  p * p, *(rng.randrange(-10**12, 10**12) for _ in range(12)))
        for d in ds:
            assert _legendre(d, p) == kronecker(d, p), (d, p)


@PROPERTY
@given(st.sampled_from(_TRIAL_PRIMES) | st.sampled_from(LARGE_PRIMES),
       st.integers(-10**40, 10**40), st.booleans())
def test_legendre_matches_kronecker_property(p, d, divisible):
    assert is_prime(p)
    if divisible:
        d *= p
    assert _legendre(d, p) == kronecker(d, p)


def test_legendre_raises_on_composite_moduli():
    # every odd composite n has a d with d^((n-1)/2) outside {0, 1, n - 1}:
    # a d divisible by one prime of n and not another, or, for a prime
    # power, a unit outside the subgroup of order p - 1
    for n in range(9, 3000, 2):
        if is_prime(n):
            continue
        with pytest.raises(ValueError, match="not prime"):
            for d in range(2, n):
                _legendre(d, n)
    # is_prime passes PSI_13; Euler's criterion must refute it, not read -1
    assert is_prime(PSI_13)
    for d in (2, 3, -3, 41):  # witness bases: +-1, as at a prime
        assert _legendre(d, PSI_13) in (1, -1)
    for d in (43, -43, 47, 53):
        with pytest.raises(ValueError, match="not prime"):
            _legendre(d, PSI_13)
    # the public symbol at that place raises the same way
    with pytest.raises(ValueError, match="not prime"):
        hilbert_symbol(43, PSI_13, PSI_13)


def test_sqrt_mod_prime_is_none_exactly_on_non_residues():
    for p in _TRIAL_PRIMES[1:109]:  # the odd primes below 600
        squares = {x * x % p for x in range(p)}
        for a in range(-p, 2 * p):
            r = _sqrt_mod_prime(a, p)
            if a % p in squares:
                assert r is not None and r * r % p == a % p, (a, p)
            else:
                assert r is None, (a, p)
    assert _TRIAL_PRIMES[108] < 600 < _TRIAL_PRIMES[109]


def test_hilbert_symbol_examples():
    for place in (2, 3, 7, INFINITY):
        assert hilbert_symbol(1, 5, place) == 1
    assert hilbert_symbol(-1, -1, INFINITY) == -1
    assert hilbert_symbol(-1, -1, 2) == -1
    assert hilbert_symbol_oracle(-1, -1, 2) == -1
    # only an int prime or INFINITY is a place: 2.0, True and Fraction(2)
    # compare equal to ints but are not ints
    for args in [(0, 3, 2), (0, 5, 3), (3, Fraction(0), INFINITY),
                 (3, 5, 2.0), (3, 5, True), (3, 5, Fraction(2)), (3, 5, 9),
                 (3, 5, 1), (3, 5, -3)]:
        with pytest.raises(ValueError):
            hilbert_symbol(*args)
    for place in (2.0, True, Fraction(2), 9, 1, -3):
        with pytest.raises(ValueError):
            hilbert_symbol_oracle(3, 5, place)


@PROPERTY
@given(NONZERO, NONZERO, st.integers(0, 3), st.integers(0, 3), ORACLE_PRIMES)
def test_hilbert_closed_form_matches_oracle_property(u, v, i, j, p):
    a, b = u * p**i, v * p**j
    assert hilbert_symbol(a, b, p) == hilbert_symbol_oracle(a, b, p)


@PROPERTY
@given(NONZERO, st.integers(1, 10**6), NONZERO,
       st.sampled_from([2, 3, 5, 7, 10007, INFINITY]))
def test_hilbert_fraction_argument_enters_as_product(a, c, b, place):
    assert hilbert_symbol(Fraction(a, c), b, place) == hilbert_symbol(a * c, b, place)
    assert hilbert_symbol(b, Fraction(a, c), place) == hilbert_symbol(b, a * c, place)


@PROPERTY
@given(NONZERO, NONZERO, NONZERO, st.integers(0, 2),
       st.sampled_from([2, 3, 5, 7, 10007, INFINITY]))
def test_hilbert_square_class_invariance_property(a, b, u, k, place):
    # s = u p^k may be divisible by the place p: only the square class counts
    s = u * (place**k if place != INFINITY else 1)
    assert hilbert_symbol(a, b * s * s, place) == hilbert_symbol(a, b, place)
    assert hilbert_symbol(a * s * s, b, place) == hilbert_symbol(a, b, place)


@PROPERTY
@given(st.integers(-10**12, 10**12).filter(bool),
       st.integers(-10**12, 10**12).filter(bool))
def test_hilbert_product_formula_property(a, b):
    # away from 2ab both arguments are units at odd p and the symbol is 1
    prod = hilbert_symbol(a, b, INFINITY)
    for p, _ in factorize(2 * a * b):
        prod *= hilbert_symbol(a, b, p)
    assert prod == 1


def test_hilbert_square_invariance():
    rng = random.Random(2)
    for _ in range(100):
        a = rng.randint(-50, 50) or 3
        b = rng.randint(-50, 50) or 5
        c = rng.randint(1, 30)
        for place in (2, 3, 5, INFINITY):
            assert hilbert_symbol(a * c * c, b, place) == hilbert_symbol(a, b, place)
            assert hilbert_symbol(a, b * c * c, place) == hilbert_symbol(a, b, place)


def test_hilbert_product_formula():
    rng = random.Random(3)
    checked = 0
    while checked < 200:
        a = rng.randint(-10**4, 10**4)
        b = rng.randint(-10**4, 10**4)
        if a == 0 or b == 0:
            continue
        prod = hilbert_symbol(a, b, INFINITY)
        for p in {2} | {p for p, _ in factorize(a)} | {p for p, _ in factorize(b)}:
            prod *= hilbert_symbol(a, b, p)
        assert prod == 1, (a, b)
        checked += 1


def test_hilbert_matches_solvability_oracle_small_primes():
    rng = random.Random(4)
    for p in (3, 5, 7):
        pool = [1, -1, 2, -2, 3, -3, 5, -5, p, -p, 2 * p, -3 * p]
        for _ in range(40):
            a, b = rng.choice(pool), rng.choice(pool)
            assert hilbert_symbol(a, b, p) == hilbert_symbol_oracle(a, b, p), (a, b, p)
    pool2 = [1, -1, 3, -3, 5, -5, 7, -7, 2, -2, 6, -6, 10, -10, 14, -14]
    for _ in range(80):
        a, b = rng.choice(pool2), rng.choice(pool2)
        assert hilbert_symbol(a, b, 2) == hilbert_symbol_oracle(a, b, 2), (a, b)


def test_hilbert_rational_arguments():
    assert hilbert_symbol(Fraction(-3, 4), Fraction(-2, 9), 2) == hilbert_symbol(-3, -2, 2)
    assert hilbert_symbol(Fraction(5, 7), Fraction(-1, 3), 3) == hilbert_symbol(5 * 7, -3, 3)


def test_values_frozen_from_oracle():
    # these specific symbols drive vanishing decisions elsewhere; each was
    # confirmed with the solvability oracle
    assert hilbert_symbol(-3, -2, 2) == -1
    assert hilbert_symbol(-4, -2, 2) == -1
    assert hilbert_symbol(-3, -1, 3) == -1
    assert hilbert_symbol(-3, -200, 3) == 1
    assert hilbert_symbol(-3, -200, 5) == 1
    assert hilbert_symbol(-7, -3, 7) == 1
    for a, b, p in [(-3, -2, 2), (-4, -2, 2), (-3, -1, 3), (-7, -3, 7)]:
        assert hilbert_symbol(a, b, p) == hilbert_symbol_oracle(a, b, p)
