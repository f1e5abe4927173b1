from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmintersect import (EXACT, UPPER_BOUND, CMFieldData, CMFieldParams,
                         IndexHypothesisViolated, NContext,
                         enumerate_candidate_primes, enumerate_delta,
                         enumerate_n, factorize, hilbert_symbol,
                         intersection_number, is_prime, mu_ell,
                         special_case_value, validate)
from cmintersect import intersection
from cmintersect.cm_fields import _n_contexts
from cmintersect.intersection import MODE_INDEX_BOUND, MODE_MONOGENIC

WORKED = validate(CMFieldParams(5, 0, 1, 1, 1))


def test_mu_worked_example():
    ctx = enumerate_n(WORKED, enumerate_delta(WORKED)[0], 2)[0]
    assert mu_ell(ctx, 2) == Fraction(1)


def test_mu_branch_cases():
    ctx = enumerate_n(WORKED, enumerate_delta(WORKED)[0], 2)[0]
    both = NContext(**{**vars(ctx), "N": 8, "d_u": -4, "d_x": -8})  # v_2(8) = 3, 2 | both
    assert mu_ell(both, 2) == Fraction(3)
    one = NContext(**{**vars(ctx), "N": 4, "d_u": -3, "d_x": -8})   # v_2(4) = 2, 2 misses d_u
    assert mu_ell(one, 2) == Fraction(3, 2)


def test_worked_intersection_value():
    report = intersection_number(WORKED, 2)
    assert report.value == Fraction(1)
    assert report.exactness == EXACT
    assert report.mode == MODE_MONOGENIC
    assert len(report.rows) == 1
    row = report.rows[0]
    assert (row.delta, row.n, row.f_u, row.C_delta) == (1, -1, 1, 1)
    assert (row.mu, row.frakI, row.scrJ_value) == (Fraction(1), 1, 1)
    assert row.scrJ_exactness == EXACT
    assert row.product == Fraction(1)


def test_worked_intersection_zero_for_other_primes():
    for ell in range(3, 101):
        if not is_prime(ell):
            continue
        report = intersection_number(WORKED, ell)
        assert report.value == 0
        assert report.rows == ()
        assert report.exactness == EXACT


def test_rows_sum_to_value_with_doubling():
    # second fully hand-derived case: D = 8, Tr(eta) = -3 - omega,
    # Norm(eta) = 2 + 3*omega, so Dtilde = 17 and cK = -9.  Branches for
    # ell = 2: delta = 1 admits no n (n = 9 mod 16 with n^2 < 17 is empty);
    # delta = 2 admits n = 2 only, giving N = 2, d_u = -4, d_x = -3,
    # mu = 1, t = 5, unit local weight, and pair count 2 (one Hurwitz-order
    # orbit count: 24 admissible pairs, twelve unit rotations).  The single
    # row contributes C * mu * weight * count = 2*1*1*2 = 4, doubled to 8
    # because ell divides delta = 2.
    field = validate(CMFieldParams(8, -3, -1, 2, 3))
    assert (field.Dtilde, field.cK) == (17, -9)
    report = intersection_number(field, 2)
    assert len(report.rows) == 1
    row = report.rows[0]
    assert (row.delta, row.n, row.f_u, row.C_delta) == (2, 2, 1, 2)
    assert (row.mu, row.frakI, row.scrJ_value) == (Fraction(1), 1, 2)
    assert report.exactness == UPPER_BOUND
    assert report.value == 2 * sum((r.product for r in report.rows), Fraction(0))
    assert report.value == Fraction(8)
    assert any("twice" in w for w in report.warnings)


def test_index_bound_mode():
    params = CMFieldParams(5, 0, 1, 1, 1, index_bound=3)
    report = intersection_number(validate(params), 2)
    assert report.mode == MODE_INDEX_BOUND
    assert report.exactness == UPPER_BOUND
    # same branch sum as the monogenic worked example, no doubling
    assert report.value == Fraction(1)

    with pytest.raises(IndexHypothesisViolated):
        intersection_number(validate(CMFieldParams(5, 0, 1, 1, 1, index_bound=2)), 2)
    # a prime below D/4 divides the index
    bad = CMFieldParams(13, -3, 0, -3, 2, index_bound=3)
    with pytest.raises(IndexHypothesisViolated):
        intersection_number(validate(bad), 2)


def _index_check_by_factorize(index, D, ell):
    # the rule as first written: factor the whole index bound
    if index % ell == 0:
        return f"index bound {index} is divisible by ell = {ell}"
    for p, _ in factorize(index).factors:
        if p <= D // 4:
            return f"index bound {index} is divisible by {p} <= D/4"
    return None


def test_index_check_matches_factorize_rule():
    indices = [*range(1, 300), 293 * 293, 3 * 10007, 10007, 10007 * 10009, 2**10, 97**3]
    checked = 0
    for D in (5, 8, 12, 13, 17, 21, 28, 40, 41, 60, 85, 120, 400, 1000, 1300, 40_100):
        for ell in (2, 3, 5, 7, 13):
            for index in indices:
                field = CMFieldData(CMFieldParams(D, 0, 1, 1, 1, index), Dtilde=0, cK=0)
                try:
                    intersection._check_index_hypothesis(field, ell)
                    message = None
                except IndexHypothesisViolated as exc:
                    message = str(exc)
                assert message == _index_check_by_factorize(index, D, ell), (index, D, ell)
                checked += message is not None
    assert checked > 10_000


def test_huge_index_bound_is_not_factored(monkeypatch):
    # 10000000000000061 * 30000000000000029: D/4 = 1 leaves no prime to find
    index = 300000000000002120000000000001769

    def no_factoring(n):
        raise AssertionError(f"the index bound {n} is factored")
    monkeypatch.setattr(intersection, "factorize", no_factoring, raising=False)
    report = intersection_number(validate(CMFieldParams(5, 0, 1, 1, 1, index_bound=index)), 2)
    assert report.mode == MODE_INDEX_BOUND
    assert report.value == Fraction(1)


def test_report_value_shape(corpus):
    for field in corpus[:15]:
        for ell in (2, 3, 5):
            report = intersection_number(field, ell)
            assert report.value >= 0
            assert report.value.denominator & (report.value.denominator - 1) == 0
            base = sum((r.product for r in report.rows), Fraction(0))
            doubled = any("twice" in w for w in report.warnings)
            assert report.value == (2 * base if doubled else base)


def _present(params, move, c):
    """The parameters of the same field K under another generator eta."""
    D, a0, a1, b0, b1 = (params.D, params.alpha0, params.alpha1,
                         params.beta0, params.beta1)
    if move == "eta + c":
        new = (a0 + 2 * c, a1, b0 + c * a0 + c * c, b1 + c * a1)
    elif move == "eta + c*omega":
        new = (a0, a1 + 2 * c, b0 - c * (a1 + c) * (D * D - D) // 4,
               b1 + c * (a0 + a1 * D) + c * c * D)
    elif move == "-eta":
        new = (-a0, -a1, b0, b1)
    else:  # the Galois conjugate of F: omega -> D - omega
        new = (a0 + a1 * D, -a1, b0 + b1 * D, -b1)
    return CMFieldParams(D, *new, params.index_bound)


MOVES = st.tuples(st.sampled_from(("eta + c", "eta + c*omega", "-eta", "conjugate F")),
                  st.integers(-2, 2))


# 17 is prime, above every corpus D/4 and every ell below, so index-bound
# mode never raises
@settings(max_examples=80, deadline=None, database=None)
@given(index=st.integers(0, 59), index_bound=st.sampled_from((1, 17)),
       moves=st.lists(MOVES, min_size=1, max_size=3))
def test_presentations_of_one_field_agree(corpus, index, index_bound, moves):
    p = corpus[index].params
    field = validate(CMFieldParams(p.D, p.alpha0, p.alpha1, p.beta0, p.beta1,
                                   index_bound))
    other = field.params
    for move, c in moves:
        other = _present(other, move, c)
    other = validate(other)
    assert ([ell for ell, _ in enumerate_candidate_primes(field)]
            == [ell for ell, _ in enumerate_candidate_primes(other)])
    conjugated = any(move == "conjugate F" for move, _ in moves)
    for ell in (2, 3, 5, 7, 11, 13):
        report, moved = intersection_number(field, ell), intersection_number(other, ell)
        assert moved.exactness == report.exactness, (moves, ell)
        if report.exactness == EXACT or not conjugated:
            assert moved.value == report.value, (moves, ell)


def test_candidate_primes_worked_example():
    cands = enumerate_candidate_primes(WORKED)
    assert cands == ((2, ((1, -1),)),)


def _candidate_primes_bruteforce(field):
    # witness test evaluated per ell, every symbol computed directly: ell | N,
    # (d_u, -N)_p = 1 at the other primes of 2 d_u N and -1 at ell
    found = {}
    for dctx in enumerate_delta(field):
        for ctx in _n_contexts(field, dctx):
            primes = {2, *factorize(ctx.d_u).primes(), *factorize(ctx.N).primes()}
            for ell in factorize(ctx.N).primes():
                if hilbert_symbol(ctx.d_u, -ctx.N, ell) == 1:
                    continue
                if all(hilbert_symbol(ctx.d_u, -ctx.N, p) == 1
                       for p in primes if p != ell):
                    found.setdefault(ell, []).append((dctx.delta, ctx.n))
    return tuple(sorted((ell, tuple(ws)) for ell, ws in found.items()))


def test_candidate_primes_match_bruteforce(corpus):
    witnessed = 0
    for field in corpus:
        cands = enumerate_candidate_primes(field)
        assert cands == _candidate_primes_bruteforce(field), field.params
        witnessed += len(cands)
    assert witnessed > 100


def test_candidate_primes_divide_a_norm():
    field = validate(CMFieldParams(13, -3, 0, -3, 2))
    for ell, witnesses in enumerate_candidate_primes(field):
        assert witnesses
        for delta, n in witnesses:
            assert (delta * delta * field.Dtilde - n * n) % (4 * field.params.D) == 0
            N = (delta * delta * field.Dtilde - n * n) // (4 * field.params.D)
            assert N > 0 and N % ell == 0


def test_special_case_worked_example():
    assert special_case_value(WORKED, 2) == Fraction(1)
    # empty branch list with hypotheses intact: zero sum
    assert special_case_value(WORKED, 3) == Fraction(0)


def test_special_case_hypotheses_not_met():
    # a branch with non-fundamental d_u
    field = validate(CMFieldParams(5, -3, 0, 0, 3))
    assert special_case_value(field, 3) is None
    # ell divides an enumerated delta
    field = validate(CMFieldParams(8, -3, -1, 2, 3))
    assert special_case_value(field, 2) is None
