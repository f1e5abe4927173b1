import io
import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cmintersect import (BadRealDiscriminant, CMFieldData, CMFieldParams,
                         DeltaContext, FieldValidationError,
                         IntegralityViolation, NContext, NotPrimitive,
                         NotTotallyImaginary, congruence_constant,
                         discriminant_of, enumerate_delta, enumerate_fu,
                         enumerate_n, factorize, hilbert_symbol, padic_val,
                         perfect_square_root, t_pair, validate)
from cmintersect import cm_fields
from cmintersect.cm_fields import _n_contexts
from cmintersect.cli import EXIT_INTERNAL_INVARIANT, main

from test_integers import PROPERTY

WORKED = CMFieldParams(5, 0, 1, 1, 1)


def test_validate_worked_example():
    field = validate(WORKED)
    assert field.Dtilde == 41
    assert field.cK == -9


def test_congruence_constant_with_zero_trace():
    # cK is observable even when the primitivity check then rejects the field
    params = CMFieldParams(5, 0, 0, 1, 0)
    assert congruence_constant(params) == -4
    with pytest.raises(NotPrimitive):
        validate(params)


def test_validate_rejections():
    with pytest.raises(BadRealDiscriminant):
        validate(CMFieldParams(9, 0, 1, 1, 1))
    with pytest.raises(BadRealDiscriminant):
        validate(CMFieldParams(7, 0, 1, 1, 1))
    with pytest.raises(BadRealDiscriminant):
        validate(CMFieldParams(-5, 0, 1, 1, 1))
    # eta with positive relative discriminant at an embedding
    with pytest.raises(NotTotallyImaginary):
        validate(CMFieldParams(5, 0, 1, -5, 0))


def _field_for(D):
    for a0, a1, b0, b1 in itertools.product(range(-4, 5), repeat=4):
        try:
            return validate(CMFieldParams(D, a0, a1, b0, b1))
        except Exception:
            continue
    raise AssertionError(f"no valid field found for D = {D}")


def test_enumerate_delta_examples():
    assert [(c.delta, c.sq, c.a, c.C_delta) for c in enumerate_delta(validate(WORKED))] \
        == [(1, 1, 2, 1)]
    assert [(c.delta, c.sq, c.a, c.C_delta) for c in enumerate_delta(_field_for(13))] \
        == [(1, 3, 5, 1), (3, 1, 6, 1)]
    assert [(c.delta, c.sq, c.a, c.C_delta) for c in enumerate_delta(_field_for(8))] \
        == [(1, 2, 3, 1), (2, 0, 4, 2)]


def test_enumerate_delta_nonempty_for_all_valid_D():
    # the branch with square part D mod 2 always exists
    for D in range(2, 10_001):
        if D % 4 not in (0, 1) or perfect_square_root(D) is not None:
            continue
        dummy = CMFieldData(CMFieldParams(D, 0, 1, 1, 1), Dtilde=0, cK=0)
        contexts = enumerate_delta(dummy)
        assert contexts, D
        assert [c.delta for c in contexts] == sorted(c.delta for c in contexts)
        for c in contexts:
            assert c.sq * c.sq == D - 4 * c.delta
            assert c.sq == D - 2 * c.a
            assert 2 * c.a <= D


def test_enumerate_delta_matches_the_delta_scan():
    # the reference tests every delta up to D/4; D = 2, 3 mod 4 and D < 4 give ()
    for D in range(1, 2000):
        a0, a1 = 3, -2
        expected = []
        for delta in range(1, D // 4 + 1):
            sq = perfect_square_root(D - 4 * delta)
            if sq is not None:
                a = (D - sq) // 2
                expected.append(DeltaContext(
                    delta=delta, a=a, sq=sq, C_delta=2 if 4 * delta == D else 1,
                    t_u=a1 * delta, t_x=a0 + a * a1, t_w=a0 + (D - a) * a1))
        dummy = CMFieldData(CMFieldParams(D, a0, a1, 1, 1), Dtilde=0, cK=0)
        assert enumerate_delta(dummy) == tuple(expected), D


def test_enumerate_n_worked_example():
    field = validate(WORKED)
    dctx = enumerate_delta(field)[0]
    contexts = enumerate_n(field, dctx, 2)
    assert len(contexts) == 1
    ctx = contexts[0]
    assert (ctx.n, ctx.N, ctx.n_u, ctx.d_u, ctx.n_x, ctx.d_x, ctx.t_xuv) \
        == (-1, 2, 1, -3, 2, -4, 0)
    assert ctx.support == (2,)
    assert enumerate_n(field, dctx, 3) == ()
    assert enumerate_n(field, dctx, 41) == ()


def test_ncontext_invariants_on_fuzz():
    rng = random.Random(77)
    fields = []
    while len(fields) < 40:
        D = rng.randrange(2, 50)
        if D % 4 not in (0, 1) or perfect_square_root(D) is not None:
            continue
        params = CMFieldParams(D, rng.randint(-20, 20), rng.randint(-3, 3),
                               rng.randint(-20, 20), rng.randint(-8, 8))
        try:
            field = validate(params)
        except Exception:
            continue
        if field.Dtilde > 10**7:
            continue
        fields.append(field)
    branches = 0
    for field in fields:
        for dctx in enumerate_delta(field):
            for ell in (2, 3):
                for ctx in enumerate_n(field, dctx, ell):
                    assert ctx.d_u < 0
                    lhs = ctx.d_x * ctx.d_u - (dctx.t_x * dctx.t_u - 2 * ctx.t_xuv) ** 2
                    assert lhs == 4 * ctx.N
                    assert (dctx.t_u**2 - ctx.d_u) % 4 == 0
                    assert (ctx.d_x - dctx.t_x**2) % 4 == 0
                    assert ctx.N % ell == 0 and ctx.N > 0
                    assert (ctx.n + field.cK * dctx.delta) % (2 * field.params.D) == 0
                    branches += 1
    assert branches > 50


def test_support_is_direct_symbol_evaluation(corpus):
    branches = 0
    for field in corpus:
        for dctx in enumerate_delta(field):
            for ctx in _n_contexts(field, dctx):
                primes = factorize(2 * ctx.d_u * ctx.N).primes()
                direct = tuple(p for p in primes
                               if hilbert_symbol(ctx.d_u, -ctx.N, p) == -1)
                assert ctx.support == direct, (field.params, ctx.n)
                assert len(ctx.support) % 2 == 1
                branches += 1
    assert branches > 1000


def _support_by_factorize(ctx):
    # the oracle: factor d_u and N one at a time, then the public symbol
    primes = {2, *factorize(ctx.d_u).primes(), *factorize(ctx.N).primes()}
    return tuple(sorted(p for p in primes if hilbert_symbol(ctx.d_u, -ctx.N, p) == -1))


def _two_adic_case(ctx):
    # the case of NContext's argument that gives (d_u, -N)_2 = 1 for odd N
    if ctx.d_u % 2 or ctx.d_x % 2:
        return "2 !| N, d_u or d_x odd"
    if -ctx.N % 8 == 1:
        return "2 !| N, -N = 1 (mod 8)"
    assert padic_val(ctx.d_u, 2) == padic_val(ctx.d_x, 2) == 2 and -ctx.N % 8 == 5
    return "2 !| N, v_2(d_u) = v_2(d_x) = 2"


def test_sieved_support_matches_factorize_oracle(corpus):
    # E3 of ROADMAP.md: 11,823 branches, N up to 2.6e8
    fields = [*corpus, validate(CMFieldParams(228, -21, 1, -22, 38))]
    branches = 0
    cases = Counter()
    for field in fields:
        for dctx in enumerate_delta(field):
            for ctx in _n_contexts(field, dctx):
                assert ctx.support == _support_by_factorize(ctx), (field.params, ctx.n)
                branches += 1
                cases["odd p | d_u, p !| N"] += sum(
                    p != 2 and ctx.N % p != 0 for p in factorize(ctx.d_u).primes())
                if ctx.N % 2:
                    cases[_two_adic_case(ctx)] += 1
    assert branches == 6060 + 11823
    # the oracle also searches the primes outside N, so every case of the
    # argument that the support lies in primes(N) is exercised here
    assert cases == {"odd p | d_u, p !| N": 32688,
                     "2 !| N, d_u or d_x odd": 1501,
                     "2 !| N, -N = 1 (mod 8)": 395,
                     "2 !| N, v_2(d_u) = v_2(d_x) = 2": 90}


# (D, alpha0, alpha1, beta1) with D <= 60 and |coords| <= 8 for which
# some beta0 in [-8, 8] can make the relative discriminant negative: cK
# falls as beta0 grows, and validate needs 2 cK + alpha1^2 D < 0.  About
# 70% of the draws below then validate, against 2% in the whole box.
SMALL_FIELD_STEMS = tuple(
    (D, a0, a1, b1)
    for D in range(2, 61) if D % 4 in (0, 1) and perfect_square_root(D) is None
    for a0, a1, b1 in itertools.product(range(-8, 9), repeat=3)
    if 2 * congruence_constant(CMFieldParams(D, a0, a1, 8, b1)) + a1 * a1 * D < 0)


@PROPERTY
@given(st.sampled_from(SMALL_FIELD_STEMS), st.integers(-8, 8))
def test_sieved_support_property(stem, b0):
    D, a0, a1, b1 = stem
    try:
        field = validate(CMFieldParams(D, a0, a1, b0, b1))
    except FieldValidationError:
        return
    for dctx in enumerate_delta(field):
        for ctx in _n_contexts(field, dctx):
            assert ctx.support == _support_by_factorize(ctx), ctx.n
            assert len(ctx.support) % 2 == 1


def _branches_for(N, d_u):
    # the d_x = 0, 1 (mod 4) with d_u d_x - X^2 = 4N for an X in
    # [0, 4|d_u|); a prime q > 10^4 dividing d_u divides N, so q | X
    step = math.prod(q for q in factorize(d_u).primes() if q > 10_000)
    out = []
    for X in range(0, 4 * -d_u, step):
        d_x, r = divmod(X * X + 4 * N, d_u)
        if r == 0 and d_x % 4 in (0, 1):
            assert d_u * d_x - X * X == 4 * N
            out.append(d_x)
    return out


def test_sieve_hands_large_cofactors_to_factorize():
    # a cofactor of 10^8 or more may be composite: 10007 * 10009 has no
    # prime factor below 10^4; a smaller one is prime.  Each N is paired
    # with d_u prime to its primes and with d_u divisible by each of them,
    # and d_x follows from the norm identity, so a cofactor prime q takes
    # each route of the rule: q !| d_u, q | d_u only, q | d_u and d_x.
    routes, cofactor_cases = Counter(), Counter()
    for N in (10007 * 10009, 12 * 10007 * 10009, 2**5 * 9973**2, 2 * 99_999_989,
              3 * 10007**2, 5 * 10007**3 * 10009):
        primes = factorize(N).primes()
        for d_u in (-3, -4, -7, -20, -23, *(-k * p for p in primes for k in (1, 3, 4, 7))):
            if d_u % 4 > 1:  # not a discriminant
                continue
            for d_x in _branches_for(N, d_u):
                [support] = cm_fields._supports_by_sieve(
                    [N], [d_u], [d_x], lambda p: (0,) if N % p == 0 else ())
                expected = tuple(p for p in factorize(2 * d_u * N).primes()
                                 if hilbert_symbol(d_u, -N, p) == -1)
                assert support == expected, (N, d_u, d_x)
                for q in primes:
                    if q > 10_000:
                        routes[d_u % q == 0, d_x % q == 0] += 1
                        cofactor_cases[d_u % q == 0, q in support] += 1
    assert set(routes) == {(False, False), (False, True), (True, False), (True, True)}
    assert set(cofactor_cases) == {(True, True), (True, False), (False, True), (False, False)}


def test_d_u_is_linear_in_the_branch_index(corpus):
    # the premise of deciding the symbol once per sieve class: within one
    # delta, consecutive branches' d_u differ by exactly 4 delta and their
    # d_x by exactly -4
    fields = [*corpus, validate(CMFieldParams(228, -21, 1, -22, 38))]
    steps = 0
    for field in fields:
        for dctx in enumerate_delta(field):
            contexts = _n_contexts(field, dctx)
            for a, b in zip(contexts, contexts[1:]):
                assert b.d_u - a.d_u == 4 * dctx.delta, field.params
                assert b.d_x - a.d_x == -4, field.params
            steps += max(len(contexts) - 1, 0)
    assert steps > 10_000


def test_d_u_and_d_x_have_one_symbol_against_minus_n(corpus):
    # the norm identity makes -4N a norm from Q(sqrt(d_u d_x)), so the
    # sieve may read the symbol from d_x where p divides d_u
    fields = [*corpus, validate(CMFieldParams(228, -21, 1, -22, 38))]
    places = 0
    for field in fields:
        for dctx in enumerate_delta(field):
            for ctx in _n_contexts(field, dctx):
                for p in factorize(ctx.N).primes():
                    assert hilbert_symbol(ctx.d_u, -ctx.N, p) \
                        == hilbert_symbol(ctx.d_x, -ctx.N, p), (field.params, ctx.n, p)
                    places += 1
    assert places > 30_000


def test_even_support_breaks_product_formula(monkeypatch):
    # a symbol flipped at p = 2, on the class route and on the full-symbol
    # route alike, makes every support even in size
    kronecker, hilbert = cm_fields.kronecker, cm_fields.hilbert_symbol
    monkeypatch.setattr(cm_fields, "kronecker",
                        lambda a, n: -kronecker(a, n) if n == 2 else kronecker(a, n))
    monkeypatch.setattr(cm_fields, "hilbert_symbol",
                        lambda a, b, v: -hilbert(a, b, v) if v == 2 else hilbert(a, b, v))
    _n_contexts.cache_clear()
    try:
        field = validate(WORKED)
        with pytest.raises(IntegralityViolation, match="product formula"):
            enumerate_n(field, enumerate_delta(field)[0], 2)
        out = io.StringIO()
        argv = ["intersect", "--field", '{"D":5,"alpha":[0,1],"beta":[1,1]}', "--ell", "2"]
        assert main(argv, out=out) == EXIT_INTERNAL_INVARIANT
        assert out.getvalue() == ""
    finally:
        _n_contexts.cache_clear()


def test_flipped_class_symbol_breaks_product_formula(monkeypatch):
    # the D = 13 field's branch (delta, n) = (1, -21) has N = 6 and d_u = -8:
    # a class symbol flipped at p = 3 puts 3 beside 2 in its support
    real = cm_fields.kronecker
    monkeypatch.setattr(cm_fields, "kronecker",
                        lambda a, n: -real(a, n) if n == 3 else real(a, n))
    _n_contexts.cache_clear()
    try:
        field = validate(CMFieldParams(13, -3, 0, -3, 2))
        with pytest.raises(IntegralityViolation, match="product formula"):
            _n_contexts(field, enumerate_delta(field)[0])
        out = io.StringIO()
        argv = ["intersect", "--field", '{"D":13,"alpha":[-3,0],"beta":[-3,2]}', "--ell", "3"]
        assert main(argv, out=out) == EXIT_INTERNAL_INVARIANT
        assert out.getvalue() == ""
    finally:
        _n_contexts.cache_clear()


def test_enumerate_fu_examples():
    field = validate(WORKED)
    ctx = enumerate_n(field, enumerate_delta(field)[0], 2)[0]
    assert enumerate_fu(ctx, 2) == (1,)      # d_u = -3 squarefree
    synthetic = NContext(**{**vars(ctx), "d_u": -12})
    assert enumerate_fu(synthetic, 5) == (1, 2)
    assert enumerate_fu(synthetic, 2) == (2,)
    synthetic = NContext(**{**vars(ctx), "d_u": -144})
    # f_u^2 | -144 with valid quotient: f_u in {1, 2, 3, 6}; quotients
    # -144, -36, -16, -4 have conductors 6, 3, 2, 1
    assert enumerate_fu(synthetic, 5) == (1, 2, 3, 6)
    assert enumerate_fu(synthetic, 2) == (2, 6)
    assert enumerate_fu(synthetic, 3) == (3, 6)


def _square_divisor_scan(d_u, ell):
    # every f with f^2 | d_u, d_u/f^2 = 0, 1 mod 4 and conductor prime to ell
    out = []
    f = 1
    while f * f <= -d_u:
        if d_u % (f * f) == 0 and (d_u // (f * f)) % 4 in (0, 1):
            if discriminant_of(d_u // (f * f)).f % ell:
                out.append(f)
        f += 1
    return tuple(out)


def test_enumerate_fu_matches_square_divisor_scan(corpus):
    branches = 0
    for field in corpus:
        for dctx in enumerate_delta(field):
            for ctx in _n_contexts(field, dctx):
                for ell in (2, 3, 5, 7):
                    assert enumerate_fu(ctx, ell) == _square_divisor_scan(ctx.d_u, ell), \
                        (field.params, ctx.n, ell)
                branches += 1
    assert branches > 1000


def test_t_pair_worked_example():
    field = validate(WORKED)
    ctx = enumerate_n(field, enumerate_delta(field)[0], 2)[0]
    assert t_pair(ctx, 1) == Fraction(5)
    # f_u = 1 specialisation: (d_x d_u - t_x t_u + 2 t_xuv) / 2
    expected = Fraction(ctx.d_x * ctx.d_u - 2 * 1 + 0, 2)
    assert t_pair(ctx, 1) == expected
    assert t_pair(ctx, 2) == Fraction(12 - 2 * 2, 8)
