import hashlib
import json
import os
import sys
import tracemalloc
import weakref
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmintersect import (EXACT, UPPER_BOUND, CMFieldData, CMFieldParams,
                         IndexHypothesisViolated, NContext, build_query,
                         count_invertible_ideals, discriminant_of,
                         enumerate_candidate_primes, enumerate_delta,
                         enumerate_fu, enumerate_n, factorize, frakI,
                         hilbert_symbol, intersection_number, is_prime,
                         mu_ell, scrJ, special_case_value, validate)
from cmintersect import cm_fields, intersection
from cmintersect.cm_fields import _branch_columns
from cmintersect.intersection import MODE_INDEX_BOUND, MODE_MONOGENIC

from conftest import n_contexts

WORKED = validate(CMFieldParams(5, 0, 1, 1, 1))


def test_mu_worked_example():
    ctx = enumerate_n(WORKED, enumerate_delta(WORKED)[0], 2)[0]
    assert mu_ell(ctx, 2) == Fraction(1)


def test_mu_branch_cases():
    ctx = enumerate_n(WORKED, enumerate_delta(WORKED)[0], 2)[0]
    both = NContext(**dict(zip(NContext._fields, ctx), N=8, d_u=-4, d_x=-8))  # v_2(8) = 3, 2 | both
    assert mu_ell(both, 2) == Fraction(3)
    one = NContext(**dict(zip(NContext._fields, ctx), N=4, d_u=-3, d_x=-8))   # v_2(4) = 2, 2 misses d_u
    assert mu_ell(one, 2) == Fraction(3, 2)


def test_mu_rejects_a_composite_ell_and_a_zero_norm():
    ctx = enumerate_n(WORKED, enumerate_delta(WORKED)[0], 2)[0]
    with pytest.raises(ValueError, match="not prime"):
        mu_ell(ctx, 4)
    zero = NContext(**dict(zip(NContext._fields, ctx), N=0))
    with pytest.raises(ValueError, match="no finite p-adic valuation"):
        mu_ell(zero, 2)


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
    for p, _ in factorize(index):
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
        for ctx in n_contexts(field, dctx):
            primes = {2} | {p for p, _ in factorize(ctx.d_u)} | {p for p, _ in factorize(ctx.N)}
            for ell, _ in factorize(ctx.N):
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


def test_candidate_primes_of_e3_are_pinned():
    # E3 of ROADMAP.md: the digest pins every prime and every witness
    field = validate(CMFieldParams(228, -21, 1, -22, 38))
    cands = enumerate_candidate_primes(field)
    assert len(cands) == 2120
    assert sum(len(witnesses) for _, witnesses in cands) == 7653
    digest = hashlib.sha256(json.dumps(cands).encode()).hexdigest()
    assert digest == "7a9b17937795e668a8e91534cf84b6d2efec165ed77120be87be6e20d47d00e2"


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


PRIMES_TO_50 = [p for p in range(2, 51) if is_prime(p)]
E3 = CMFieldParams(228, -21, 1, -22, 38)


def _special_case_statement(field, ell):
    # the simplified sum as stated: a branch weighs 0 when (d, -N)_p = -1
    # at some p | d, p != ell, else 2^#{p | gcd(d, N), p != ell}
    if field.params.index_bound != 1:
        return None
    deltas = enumerate_delta(field)
    if any(dctx.delta % ell == 0 for dctx in deltas):
        return None
    total = Fraction(0)
    for dctx in deltas:
        c_delta = Fraction(1, 2) if 4 * dctx.delta == field.params.D else Fraction(1)
        for ctx in enumerate_n(field, dctx, ell):
            disc = discriminant_of(ctx.d_u)
            if disc.f != 1:
                return None
            primes = [p for p, _ in factorize(ctx.d_u) if p != ell]
            if any(hilbert_symbol(ctx.d_u, -ctx.N, p) == -1 for p in primes):
                continue
            weight = 2 ** sum(1 for p in primes if ctx.N % p == 0)
            # the statement counts all ideals of the maximal order; at
            # conductor 1 every ideal is invertible, so the counts agree
            total += (c_delta * mu_ell(ctx, ell) * weight
                      * count_invertible_ideals(disc, ctx.N // ell))
    return total


def test_special_case_equals_its_hilbert_symbol_statement(corpus):
    e3 = validate(E3)
    pairs = [(field, ell) for field in corpus for ell in PRIMES_TO_50]
    pairs += [(e3, ell) for ell in (2, 3, 5, 7, 11, 13)]
    values, text = Counter(), []
    for field, ell in pairs:
        value = special_case_value(field, ell)
        assert value == _special_case_statement(field, ell), (field.params, ell)
        values["none" if value is None else "zero" if value == 0 else "nonzero"] += 1
        text.append(repr(value))
    assert values == Counter(none=418, zero=469, nonzero=19)
    # the statement and the library share the ideal count, so pin the
    # exact values too, recorded while the library had a separate
    # all-ideals count
    digest = hashlib.sha256("\n".join(text).encode()).hexdigest()
    assert digest == "61f6f2cae19476a473256eea8f2fd5c67ceaa64401cd7dcdce2630d4335c4ef5"


def test_engine_calls_no_public_symbol(corpus, monkeypatch):
    # every engine path reads its symbols through integers._legendre and
    # the branch support; the public symbols stay for callers and tests
    calls = Counter()

    def counted(name, real):
        def call(*args):
            calls[name] += 1
            return real(*args)
        return call

    for modname, module in list(sys.modules.items()):
        if modname == "cmintersect" or modname.startswith("cmintersect."):
            for name in ("kronecker", "hilbert_symbol"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    _branch_columns.cache_clear()
    try:
        for field in corpus:
            assert enumerate_candidate_primes(field)
            for ell in PRIMES_TO_50:
                intersection_number(field, ell)
                special_case_value(field, ell)
    finally:
        _branch_columns.cache_clear()
    assert calls == Counter()


def test_row_layer_reads_each_fact_once(corpus, monkeypatch):
    # frakI takes v_p(delta) and p from its own factorization and counts
    # roots from one symbol, so it needs no valuation checks and no
    # square roots; the ideal counts need neither (rho2 reads v_2(d)
    # with _split)
    rows = [(nctx, f_u, ell) for field in corpus for ell in PRIMES_TO_50
            for dctx in enumerate_delta(field)
            for nctx in enumerate_n(field, dctx, ell)
            for f_u in enumerate_fu(nctx, ell)]
    assert len(rows) == 21_595
    calls = Counter()
    layer = None

    def counted(name, real):
        def call(*args):
            calls[layer, name] += 1
            return real(*args)
        return call

    for modname, module in list(sys.modules.items()):
        if modname == "cmintersect" or modname.startswith("cmintersect."):
            for name in ("padic_val", "_sqrt_mod_prime"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    for row in rows:
        layer = "frakI"
        frakI(*row)
        layer = "scrJ"
        scrJ(build_query(*row))
    assert calls["frakI", "padic_val"] == calls["frakI", "_sqrt_mod_prime"] == 0
    assert calls["scrJ", "padic_val"] == calls["scrJ", "_sqrt_mod_prime"] == 0


def test_corpus_reports_are_pinned(corpus):
    # every row, value, flag and warning of the 900 corpus reports
    text = "\n".join(repr(intersection_number(field, ell))
                     for field in corpus for ell in PRIMES_TO_50)
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == "673820d7ca7a05e585f0458c4609f4d8b4ac2296c0af012dee8d96441eaf4a13"


def test_queries_check_ell_once(corpus, monkeypatch):
    # intersection_number and special_case_value check ell once and read
    # v_ell(N) without a second check; with both caches cleared, the
    # is_prime calls left are: 900 + 900 query checks, 4,015 from
    # enumerate_n (one a delta) and 3,359 from factoring.  With a
    # per-branch check in mu_ell this was 23,786; with padic_val in
    # quadratic_orders.rho2 it was 12,027.
    calls = Counter()

    def counted(real):
        def call(*args):
            calls["is_prime"] += 1
            return real(*args)
        return call

    for modname, module in list(sys.modules.items()):
        if modname == "cmintersect" or modname.startswith("cmintersect."):
            if hasattr(module, "is_prime"):
                monkeypatch.setattr(module, "is_prime", counted(module.is_prime))
    _branch_columns.cache_clear()
    factorize.cache_clear()
    try:
        for field in corpus:
            for ell in PRIMES_TO_50:
                intersection_number(field, ell)
                special_case_value(field, ell)
    finally:
        _branch_columns.cache_clear()
    assert calls["is_prime"] == 9_174


def _candidate_primes_from_the_cache(field):
    # the screen as it read the cached branches before it streamed them
    found = {}
    for dctx in enumerate_delta(field):
        for ctx in n_contexts(field, dctx):
            if len(ctx.support) == 1:
                found.setdefault(ctx.support[0], []).append((dctx.delta, ctx.n))
    return tuple(sorted((ell, tuple(ws)) for ell, ws in found.items()))


def test_screen_keeps_nothing(corpus):
    e3 = validate(E3)
    _branch_columns.cache_clear()
    try:
        tracemalloc.start()
        try:
            e3_cands = enumerate_candidate_primes(e3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        screened = [enumerate_candidate_primes(field) for field in corpus]
        info = _branch_columns.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 0, 0)
        assert screened == [_candidate_primes_from_the_cache(field) for field in corpus]
        assert e3_cands == _candidate_primes_from_the_cache(e3)
    finally:
        _branch_columns.cache_clear()
    # one delta's columns and the answer, about 1.7 MiB: 6.5-6.9 MB with
    # the whole field held in the cache.  A delta's columns held while the
    # next is built cost less than the margin here; the next test sees them
    assert peak < 3 * 2**20


def test_screen_frees_each_delta_before_the_next(monkeypatch):
    # a name bound to one delta's columns would hold them while the next
    # delta is built; weak references to its N and support columns show
    # that both are gone by then
    class Column(list):  # a list that a weak reference can watch
        pass

    real = _branch_columns.__wrapped__
    watched = []

    def columns(field, dctx):
        assert [ref() for ref in watched] == [None] * len(watched)
        ns, Ns, *rest, supports = real(field, dctx)
        Ns, supports = Column(Ns), Column(supports)
        watched[:] = [weakref.ref(Ns), weakref.ref(supports)]
        return (ns, Ns, *rest, supports)

    e3 = validate(E3)
    expected = enumerate_candidate_primes(e3)
    monkeypatch.setattr(_branch_columns, "__wrapped__", columns)
    assert enumerate_candidate_primes(e3) == expected
    assert len(enumerate_delta(e3)) > 1 and len(watched) == 2


def test_screen_builds_no_ncontext(corpus, monkeypatch):
    # the screen reads the branch columns; a per-ell query wraps them
    built = Counter()
    real = cm_fields.NContext

    def counted(*args):
        built["NContext"] += 1
        return real(*args)

    monkeypatch.setattr(cm_fields, "NContext", counted)
    _branch_columns.cache_clear()
    try:
        for field in [*corpus, validate(E3)]:
            enumerate_candidate_primes(field)
        assert built["NContext"] == 0
        intersection_number(WORKED, 2)
    finally:
        _branch_columns.cache_clear()
    assert built["NContext"] > 0


def test_a_query_keeps_no_ncontext(monkeypatch):
    # the cache holds the columns; a per-ell query wraps only its ell | N
    # branches in NContexts, and they go with its report
    built = Counter()
    real = cm_fields.NContext

    def counted(*args):
        built["NContext"] += 1
        return real(*args)

    e3 = validate(E3)
    monkeypatch.setattr(cm_fields, "NContext", counted)
    _branch_columns.cache_clear()
    try:
        tracemalloc.start()
        try:
            intersection_number(e3, 7)
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        entries = [_branch_columns(e3, dctx) for dctx in enumerate_delta(e3)]
        info = _branch_columns.cache_info()
        assert info.hits == info.misses == info.currsize == len(entries)
        assert not any(isinstance(value, real)
                       for columns in entries for column in columns for value in column)
        divisible = sum(N % 7 == 0 for columns in entries for N in columns[1])
    finally:
        _branch_columns.cache_clear()
    assert built["NContext"] == divisible == 1_690  # of 11,823 branches
    # E3's cached columns, about 2.8 MiB; 6.5 MiB with an NContext a branch
    assert kept < 4 * 2**20


E5 = CMFieldParams(1997, -59, 1, 2053, 298)


@pytest.mark.skipif(os.environ.get("CMINTERSECT_SLOW") != "1",
                    reason="screens E5, about 100 s; set CMINTERSECT_SLOW=1")
def test_candidate_primes_of_e5_are_pinned():
    # 1,172,521 branches, streamed one delta at a time
    cands = enumerate_candidate_primes(validate(E5))
    digest = hashlib.sha256(json.dumps(cands).encode()).hexdigest()
    assert digest == "a482ba64963ed2a54ec7f1275809d5162f17391c070f8d6dab201e3ac1220a35"
