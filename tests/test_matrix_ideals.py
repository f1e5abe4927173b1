import random
from fractions import Fraction

import pytest

from cmintersect.matrix_ideals import (IdealTriple, PMatrix, canonical_conjugate,
                                       companion_matrix, contained_in,
                                       contained_in_by_quotient,
                                       count_right_order_ideals,
                                       enumerate_ideals, generator,
                                       is_optimally_embedded, is_primitive,
                                       normalize_to_triple,
                                       right_order_contains, unique_superideal,
                                       val_ext)


def test_enumerate_ideals_examples():
    assert enumerate_ideals(3, 0) == (IdealTriple(3, 0, 0, 0),)
    assert set(enumerate_ideals(3, 1)) == {
        IdealTriple(3, 1, 0, 0), IdealTriple(3, 0, 1, 0),
        IdealTriple(3, 0, 1, 1), IdealTriple(3, 0, 1, 2)}
    assert len(enumerate_ideals(2, 2)) == 7
    with pytest.raises(ValueError):
        enumerate_ideals(2, 25)


def test_enumerate_ideals_cardinality():
    for p in (2, 3, 5):
        for N in range(5):
            assert len(enumerate_ideals(p, N)) == sum(p**i for i in range(N + 1))
            assert len(set(enumerate_ideals(p, N))) == len(enumerate_ideals(p, N))


def test_is_primitive():
    assert is_primitive(IdealTriple(3, 0, 3, 5))
    assert not is_primitive(IdealTriple(3, 1, 1, 0))
    assert is_primitive(IdealTriple(3, 1, 1, 1))
    assert not is_primitive(IdealTriple(3, 1, 2, 3))
    assert is_primitive(IdealTriple(2, 0, 0, 0))


def test_containment_examples():
    I = IdealTriple(3, 0, 2, 4)
    assert contained_in(0, I, 0, I)
    assert contained_in(0, I, 0, IdealTriple(3, 0, 1, 1))
    assert not contained_in(0, IdealTriple(3, 1, 0, 0), 0, IdealTriple(3, 0, 1, 0))


def test_containment_matches_quotient_oracle_exhaustively():
    for p in (2, 3):
        ideals = [I for N in range(4) for I in enumerate_ideals(p, N)]
        for I in ideals:
            for J in ideals:
                for j in range(3):
                    for k in range(3):
                        assert contained_in(j, I, k, J) == \
                            contained_in_by_quotient(j, I, k, J), (j, I, k, J)


def test_normalize_recovers_triples():
    rng = random.Random(41)
    for _ in range(200):
        p = rng.choice([2, 3, 5])
        I = rng.choice(enumerate_ideals(p, rng.randint(0, 3)))
        U = PMatrix.of(rng.randint(-5, 5), rng.randint(-5, 5),
                       rng.randint(-5, 5), rng.randint(-5, 5))
        if val_ext(U.norm, p) != 0:
            continue
        scrambled = U * generator(I)
        content, triple = normalize_to_triple(scrambled, p)
        # imprimitive triples come back as a power of p times a primitive one
        expected_content = min(I.n, I.m) if I.t == 0 else min(I.n, I.m, val_ext(I.t, p))
        assert content == expected_content, (I, U)
        assert (triple.n + content, triple.m + content,
                triple.t * p**content) == (I.n, I.m, I.t), (I, U)


def test_unique_superideal_examples():
    z = generator(IdealTriple(3, 0, 1, 2))
    assert unique_superideal(z, 3, 1) == IdealTriple(3, 0, 1, 2)
    assert unique_superideal(z, 3, 0) == IdealTriple(3, 0, 0, 0)
    with pytest.raises(ValueError):
        unique_superideal(z, 3, 2)  # N exceeds v_3(Norm)
    with pytest.raises(ValueError):
        unique_superideal(PMatrix.of(3, 3, 3, 6), 3, 1)  # imprimitive


def test_unique_superideal_matches_membership_filter():
    rng = random.Random(42)
    checked = 0
    # a bounded number of draws, so a broken filter fails instead of hanging
    for _ in range(10_000):
        if checked == 60:
            break
        p = rng.choice([2, 3])
        z = PMatrix.of(*(rng.randint(-12, 12) for _ in range(4)))
        if z.norm == 0 or z.min_valuation(p) != 0:
            continue
        v = val_ext(z.norm, p)
        if v < 1 or p**v > 200:
            continue
        for N in range(v + 1):
            got = unique_superideal(z, p, N)
            members = [I for I in enumerate_ideals(p, N)
                       if (z * generator(I).inverse()).is_integral_at(p)]
            assert members == [got], (z, N)
        checked += 1
    assert checked == 60


def test_right_order_examples():
    y = PMatrix.of(0, -5, 1, 0)
    assert right_order_contains(IdealTriple(3, 0, 0, 0), y)
    assert not right_order_contains(IdealTriple(3, 0, 1, 0), y)
    # scalars are central
    for I in enumerate_ideals(3, 2):
        assert right_order_contains(I, PMatrix.of(7, 0, 0, 7))


def test_count_right_order_examples():
    y = PMatrix.of(0, -5, 1, 0)
    assert count_right_order_ideals(3, 1, y, 0) == 2
    assert count_right_order_ideals(3, 0, y, 0) == 1
    comp = companion_matrix(1, 3, 3, 1)
    assert count_right_order_ideals(3, 0, comp, 1) == 0  # N < r
    assert count_right_order_ideals(3, 1, comp, 1) == 1  # N = r


def test_count_right_order_rejects_bad_embedding_exponent():
    y = PMatrix.of(0, -5, 1, 0)
    with pytest.raises(ValueError):
        count_right_order_ideals(3, 2, y, 1)  # 3*y is divisible by... not optimal
    scalar = PMatrix.of(3, 0, 0, 3)
    with pytest.raises(ValueError):
        count_right_order_ideals(3, 1, scalar, 0)


def _random_admissible(rng, p, rmax=2):
    r = rng.randint(0, rmax)
    T, Nm = rng.randint(-9, 9), rng.randint(-9, 9)
    comp = companion_matrix(T, Nm, p, r)
    while True:
        U = PMatrix.of(*(rng.randint(-4, 4) for _ in range(4)))
        if abs(U.norm) == 1:
            return U * comp * U.inverse(), r, T, Nm


def test_count_right_order_matches_filter():
    rng = random.Random(43)
    for _ in range(120):
        p = rng.choice([2, 3, 5])
        y, r, T, Nm = _random_admissible(rng, p, rmax=1)
        for N in range(0, 4):
            formula = count_right_order_ideals(p, N, y, r)
            direct = sum(1 for I in enumerate_ideals(p, N)
                         if is_primitive(I) and right_order_contains(I, y))
            assert formula == direct, (p, N, r, T, Nm)


def test_right_order_monotone_structure():
    # every ideal whose right order contains y sits inside the unique
    # norm-p^r ideal with that property
    rng = random.Random(44)
    for _ in range(40):
        p = rng.choice([2, 3])
        y, r, _, _ = _random_admissible(rng, p, rmax=1)
        anchors = [I for I in enumerate_ideals(p, r)
                   if is_primitive(I) and right_order_contains(I, y)]
        assert len(anchors) == 1
        for N in range(r, 4):
            for I in enumerate_ideals(p, N):
                if right_order_contains(I, y):
                    assert contained_in(0, I, 0, anchors[0]), (p, y, I)


def test_canonical_conjugate_examples():
    comp = companion_matrix(3, 7, 5, 0)
    assert canonical_conjugate(comp, 5, 0) == PMatrix.of(1, 0, 0, 1)
    y = PMatrix.of(2, 3, 0, 4)
    A = canonical_conjugate(y, 5, 0)
    assert A == PMatrix.of(-4, 3, 1, 0)
    assert A * y * A.inverse() == companion_matrix(y.trace, y.norm, 5, 0)


def test_canonical_conjugate_round_trip():
    rng = random.Random(45)
    done = 0
    while done < 120:
        p = rng.choice([2, 3, 5])
        r = rng.randint(0, 2)
        T, Nm = rng.randint(-9, 9), rng.randint(-9, 9)
        comp = companion_matrix(T, Nm, p, r)
        U = PMatrix.of(*(rng.randint(-4, 4) for _ in range(4)))
        if abs(U.norm) != 1:
            continue
        y = U * comp * U.inverse()
        A = canonical_conjugate(y, p, r)
        assert A * y * A.inverse() == comp
        assert val_ext(A.norm, p) == 0
        done += 1


def test_canonical_conjugate_rejects_scalars():
    with pytest.raises(ValueError):
        canonical_conjugate(PMatrix.of(2, 0, 0, 2), 3, 0)


def test_optimal_embedding_scan():
    assert is_optimally_embedded(companion_matrix(1, 1, 3, 0), 3)
    # congruent to a scalar mod 3: (y + 1)/3 is integral after shifting
    y = PMatrix.of(2, 3, 6, 5)
    assert not is_optimally_embedded(y, 3)
    assert not is_optimally_embedded(PMatrix.of(Fraction(1, 3), 0, 0, 1), 3)
