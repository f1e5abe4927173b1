import hashlib
import io
import itertools
import math
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import cmintersect
from cmintersect import (BadRealDiscriminant, CMFieldData, CMFieldParams,
                         DeltaContext, FieldValidationError,
                         IntegralityViolation, NContext, NotPrimitive,
                         NotTotallyImaginary, congruence_constant,
                         discriminant_of, enumerate_delta, enumerate_fu,
                         enumerate_n, factorize, hilbert_symbol, kronecker,
                         padic_val, perfect_square_root, t_pair, validate)
from cmintersect import cm_fields, integers
from cmintersect.cm_fields import _branch_columns
from cmintersect.integers import _TRIAL_PRIMES
from cmintersect.cli import EXIT_INTERNAL_INVARIANT, main

from conftest import n_contexts
from test_integers import PROPERTY, PSI_13

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


def _validate_by_halves(params):
    # reference for `validate`'s identity: the relative discriminant is
    # (A + B sqrt(D))/2, so its norm (A^2 - B^2 D)/4 is a priori a quarter
    # of an integer; the result is (Dtilde, cK) or the class of the error
    D = params.D
    if D <= 0 or D % 4 not in (0, 1) or perfect_square_root(D) is not None:
        return BadRealDiscriminant
    if params.index_bound < 1:
        return FieldValidationError
    cK = congruence_constant(params)
    a0, a1, b1 = params.alpha0, params.alpha1, params.beta1
    A = 2 * cK + a1 * a1 * D
    B = 2 * a0 * a1 + a1 * a1 * D - 4 * b1
    assert (A * A - B * B * D) % 4 == 0, params
    if not (A < 0 and A * A > B * B * D):
        return NotTotallyImaginary
    Dtilde = (A * A - B * B * D) // 4
    if perfect_square_root(Dtilde) is not None:
        return NotPrimitive
    return Dtilde, cK


def test_validate_agrees_with_the_derivation_by_halves():
    outcomes = Counter()
    deltas = 0
    # real quadratic discriminants, then every D with both index bound outcomes
    Ds = [D for D in range(5, 61) if D % 4 < 2 and perfect_square_root(D) is None]
    grid = itertools.chain(
        itertools.product(Ds, range(-4, 5), range(-2, 3), range(-4, 5), range(-3, 4), (1,)),
        itertools.product(range(-1, 45), *[range(-1, 2)] * 4, (0, 1)))
    for D, a0, a1, b0, b1, index_bound in grid:
        params = CMFieldParams(D, a0, a1, b0, b1, index_bound)
        expected = _validate_by_halves(params)
        try:
            field = validate(params)
        except FieldValidationError as exc:
            assert type(exc) is expected, params
            outcomes[expected.__name__] += 1
            continue
        assert (field.Dtilde, field.cK) == expected, params
        outcomes["valid"] += 1
        # Dtilde = cK^2 (mod 4D) makes N integral on the whole class of n
        for dctx in enumerate_delta(field):
            r = (-field.cK * dctx.delta) % (2 * D)
            assert (dctx.delta**2 * field.Dtilde - r * r) % (4 * D) == 0, params
            deltas += 1
    assert sum(outcomes.values()) >= 20_000
    assert min(outcomes[name] for name in (
        "BadRealDiscriminant", "FieldValidationError", "NotTotallyImaginary",
        "NotPrimitive", "valid")) > 100, outcomes
    assert deltas > outcomes["valid"]


@PROPERTY
@given(st.integers(), st.sampled_from((0, 1)), st.integers(), st.integers(),
       st.integers(), st.integers())
def test_dtilde_identity_property(k, e, a0, a1, b0, b1):
    D = 4 * k + e
    params = CMFieldParams(D, a0, a1, b0, b1)
    cK = congruence_constant(params)
    A = 2 * cK + a1 * a1 * D
    B = 2 * a0 * a1 + a1 * a1 * D - 4 * b1
    Dtilde = cK * cK - 4 * D * (a1 * a1 * b0 - a0 * a1 * b1 + b1 * b1)
    assert 4 * Dtilde == A * A - B * B * D
    try:
        field = validate(params)
    except FieldValidationError:
        return
    assert (field.Dtilde, field.cK) == (Dtilde, cK)


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
    assert (ctx.n, ctx.N, ctx.n_w, ctx.d_u, ctx.d_x, ctx.t_xuv) == (-1, 2, 3, -3, -4, 0)
    assert ctx.support == (2,)
    assert enumerate_n(field, dctx, 3) == ()
    assert enumerate_n(field, dctx, 41) == ()


def test_enumerate_n_rejects_a_composite_ell():
    field = validate(WORKED)
    with pytest.raises(ValueError, match="4 is not prime"):
        enumerate_n(field, enumerate_delta(field)[0], 4)


def _fuzz_fields():
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
    return fields


def test_ncontext_invariants_on_fuzz():
    branches = 0
    for field in _fuzz_fields():
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


def test_branch_values_follow_the_closed_forms():
    # the builder steps every value from its first branch; here each is
    # the closed form of its own n, and the n run over the whole class
    fields = [*_fuzz_fields(), validate(CMFieldParams(228, -21, 1, -22, 38))]
    branches = 0
    for field in fields:
        D, cK, Dt = field.params.D, field.cK, field.Dtilde
        b0, b1 = field.params.beta0, field.params.beta1
        for dctx in enumerate_delta(field):
            delta, a, sq = dctx.delta, dctx.a, dctx.sq
            contexts = n_contexts(field, dctx)
            for ctx in contexts:
                assert 4 * D * ctx.N == delta * delta * Dt - ctx.n**2
                step, rest = divmod(ctx.n + cK * delta, 2 * D)
                assert rest == 0
                assert ctx.t_xuv == b1 * delta + sq * step
                assert ctx.n_w == b0 + (D - a) * b1 + step
                # d_u = t_u^2 - 4 n_u, d_x = t_x^2 - 4 n_x with
                # n_u = -delta step and n_x = b0 + a b1 + step
                assert ctx.d_u == dctx.t_u**2 + 4 * delta * step
                assert ctx.d_x == dctx.t_x**2 - 4 * (b0 + a * b1 + step)
                branches += 1
            ns = [ctx.n for ctx in contexts]
            assert all(y - x == 2 * D for x, y in zip(ns, ns[1:]))
            if ns:
                assert ns[0] ** 2 < delta * delta * Dt <= (ns[0] - 2 * D) ** 2
                assert ns[-1] ** 2 < delta * delta * Dt <= (ns[-1] + 2 * D) ** 2
    assert branches > 11823 + 1000


def test_support_is_direct_symbol_evaluation(corpus):
    branches = 0
    for field in corpus:
        for dctx in enumerate_delta(field):
            for ctx in n_contexts(field, dctx):
                primes = [p for p, _ in factorize(2 * ctx.d_u * ctx.N)]
                direct = tuple(p for p in primes
                               if hilbert_symbol(ctx.d_u, -ctx.N, p) == -1)
                assert ctx.support == direct, (field.params, ctx.n)
                assert len(ctx.support) % 2 == 1
                branches += 1
    assert branches > 1000


def _support_by_factorize(ctx):
    # the oracle: factor d_u and N one at a time, then the public symbol
    primes = {2} | {p for p, _ in factorize(ctx.d_u)} | {p for p, _ in factorize(ctx.N)}
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
            for ctx in n_contexts(field, dctx):
                assert ctx.support == _support_by_factorize(ctx), (field.params, ctx.n)
                branches += 1
                cases["odd p | d_u, p !| N"] += sum(
                    p != 2 and ctx.N % p != 0 for p, _ in factorize(ctx.d_u))
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
        for ctx in n_contexts(field, dctx):
            assert ctx.support == _support_by_factorize(ctx), ctx.n
            assert len(ctx.support) % 2 == 1


def _branches_for(N, d_u):
    # the d_x = 0, 1 (mod 4) with d_u d_x - X^2 = 4N for an X in
    # [0, 4|d_u|); a prime q > 10^4 dividing d_u divides N, so q | X
    step = math.prod(q for q, _ in factorize(d_u) if q > 10_000)
    out = []
    for X in range(0, 4 * -d_u, step):
        d_x, r = divmod(X * X + 4 * N, d_u)
        if r == 0 and d_x % 4 in (0, 1):
            assert d_u * d_x - X * X == 4 * N
            out.append(d_x)
    return out


E3 = CMFieldParams(228, -21, 1, -22, 38)
E4 = CMFieldParams(844, 27, -1, -19, 116)


def _branch_digest(fields):
    # enumeration order; n_u and n_x from d_u = t_u^2 - 4 n_u and d_x = t_x^2 - 4 n_x
    digest, count = hashlib.sha256(), 0
    for field in fields:
        for dctx in enumerate_delta(field):
            for b in n_contexts(field, dctx):
                n_u, n_x = (dctx.t_u**2 - b.d_u) // 4, (dctx.t_x**2 - b.d_x) // 4
                digest.update(repr((tuple(dctx), b.n, b.N, n_u, n_x, b.n_w, b.t_xuv,
                                    b.d_u, b.d_x, b.support)).encode())
                count += 1
    return count, digest.hexdigest()


def test_branches_of_corpus_and_e3_are_pinned(corpus):
    assert _branch_digest([*corpus, validate(E3)]) == (
        17_883, "651bb57465b3d14ffba6119414cc64f19ded2e57f83f8c69ef0c79f21347df84")


@pytest.mark.skipif(os.environ.get("CMINTERSECT_SLOW") != "1",
                    reason="enumerates E4, about 4 s; set CMINTERSECT_SLOW=1")
def test_branches_of_corpus_e3_and_e4_are_pinned(corpus):
    assert _branch_digest([*corpus, validate(E3), validate(E4)]) == (
        117_771, "921dccd4af2c88a77eea4da7208fe626cb914941cec505a1cfde44344444a768")


def test_sieve_hands_large_cofactors_to_factorize():
    # a cofactor of 10^8 or more may be composite: 10007 * 10009 has no
    # prime factor below 10^4; a smaller one is prime.  Each N is paired
    # with d_u prime to its primes and with d_u divisible by each of them,
    # and d_x follows from the norm identity, so a cofactor prime q takes
    # each route of the rule: q !| d_u, q | d_u only, q | d_u and d_x.
    routes, cofactor_cases = Counter(), Counter()
    for N in (10007 * 10009, 12 * 10007 * 10009, 2**5 * 9973**2, 2 * 99_999_989,
              3 * 10007**2, 5 * 10007**3 * 10009):
        primes = [p for p, _ in factorize(N)]
        for d_u in (-3, -4, -7, -20, -23, *(-k * p for p in primes for k in (1, 3, 4, 7))):
            if d_u % 4 > 1:  # not a discriminant
                continue
            for d_x in _branches_for(N, d_u):
                [support] = cm_fields._supports_by_sieve(
                    [N], [d_u], [d_x], [(p, (0,)) for p in _TRIAL_PRIMES if N % p == 0])
                expected = tuple(p for p, _ in factorize(2 * d_u * N)
                                 if hilbert_symbol(d_u, -N, p) == -1)
                assert support == expected, (N, d_u, d_x)
                for q in primes:
                    if q > 10_000:
                        routes[d_u % q == 0, d_x % q == 0] += 1
                        cofactor_cases[d_u % q == 0, q in support] += 1
    assert set(routes) == {(False, False), (False, True), (True, False), (True, True)}
    assert set(cofactor_cases) == {(True, True), (True, False), (False, True), (False, False)}


def test_sieve_refutes_a_pseudoprime_cofactor():
    # PSI_13 passes all 13 Miller-Rabin witnesses, so the cofactor step
    # takes it for a prime; Euler's criterion at d_u = -43 shows it is
    # not, and the sieve raises instead of reading a Jacobi symbol as -1
    N = 2 * PSI_13
    with pytest.raises(ValueError, match="not prime"):
        cm_fields._supports_by_sieve([N], [-43], [-43],
                                     [(p, (0,)) for p in _TRIAL_PRIMES if N % p == 0])


def test_sieve_refuses_a_class_the_prime_does_not_divide():
    # 3 does not divide N = 100, so the class 0 mod 3 is wrong; unchecked, the
    # cofactor floors to 0 and the sieve never returns, so the call runs
    # in its own process under a time limit
    package_root = str(Path(cmintersect.__file__).resolve().parent.parent)
    code = ("from cmintersect.cm_fields import IntegralityViolation, _supports_by_sieve\n"
            "from cmintersect.integers import _TRIAL_PRIMES\n"
            "try:\n"
            "    _supports_by_sieve([100], [-3], [-8], [(p, (0,)) for p in _TRIAL_PRIMES])\n"
            "except IntegralityViolation as exc:\n"
            "    print(exc)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=30, env=dict(os.environ, PYTHONPATH=package_root))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "sieve class 0 mod 3 holds N = 100, which 3 does not divide\n"


# pairs of fields with one Dtilde and two values of D: the sieve plan's
# roots s_p (2D)^-1 and (2D)^-1 mod p depend on D as well as on Dtilde
SHARED_DTILDE = (
    (CMFieldParams(24, -3, 1, -1, 3), CMFieldParams(12, -3, 0, -2, 3)),
    (CMFieldParams(12, -3, 0, -1, 3), CMFieldParams(8, -3, 1, 3, 3)),
    (CMFieldParams(28, -4, 1, 1, 3), CMFieldParams(12, -1, 0, 4, 2)),
    (CMFieldParams(24, -4, 0, -3, 2), CMFieldParams(29, -2, 0, 3, 1)),
)


def _check_sieve_plan(field):
    # the plan lists exactly the primes below the field's limit that can
    # divide some N, and that limit covers every delta's own sieve limit
    D, Dt = field.params.D, field.Dtilde
    delta_max = (D - D % 2) // 4
    limit = min(10_000, math.isqrt(delta_max**2 * Dt // (4 * D)) + 1)
    plan = cm_fields._sieve_plan(D, Dt)
    assert [p for p, _ in plan] == [p for p in _TRIAL_PRIMES if p < limit
                                    and (2 * D * Dt % p == 0 or kronecker(Dt, p) == 1)]
    for p, roots in plan:
        assert (roots is None) == (2 * D * Dt % p == 0), (D, p)
        if roots is not None:
            s_inv, inv = roots
            assert 2 * D * inv % p == 1, (D, p)
            assert (2 * D * s_inv) ** 2 % p == Dt % p, (D, p)
    for dctx in enumerate_delta(field):
        Ns = _branch_columns(field, dctx)[1]
        assert min(10_000, math.isqrt(max(Ns, default=0)) + 1) <= limit, (D, dctx.delta)


def test_sieve_plan_depends_on_d():
    cm_fields._sieve_plan.cache_clear()
    _branch_columns.cache_clear()
    try:
        branches = 0
        for pair in SHARED_DTILDE:
            first, second = (validate(params) for params in pair)
            assert first.Dtilde == second.Dtilde and first.params.D != second.params.D
            for field in (first, second):
                _check_sieve_plan(field)
                for dctx in enumerate_delta(field):
                    for ctx in n_contexts(field, dctx):
                        assert ctx.support == _support_by_factorize(ctx), (field.params, ctx.n)
                        branches += 1
        assert branches > 200
    finally:
        _branch_columns.cache_clear()


def test_sieve_plan_of_corpus_and_e3(corpus):
    for field in (*corpus, validate(E3)):
        _check_sieve_plan(field)


def test_e3_branches_take_no_public_symbol(monkeypatch):
    # the sieve reads every symbol from integers it holds: Euler's
    # criterion on a class, the local symbol where p divides d_u and d_x,
    # which reads its Legendre symbols by Euler's criterion too
    calls = Counter()

    def counted(name, real):
        def call(*args):
            calls[name] += 1
            return real(*args)
        return call

    for name in ("hilbert_symbol", "kronecker"):
        monkeypatch.setattr(integers, name, counted(name, getattr(integers, name)))
    _branch_columns.cache_clear()
    try:
        field = validate(CMFieldParams(228, -21, 1, -22, 38))
        branches = sum(len(n_contexts(field, dctx)) for dctx in enumerate_delta(field))
    finally:
        _branch_columns.cache_clear()
    assert branches == 11823
    assert calls["hilbert_symbol"] == 0
    assert calls["kronecker"] == 0


def test_d_u_is_linear_in_the_branch_index(corpus):
    # the premise of deciding the symbol once per sieve class: within one
    # delta, consecutive branches' d_u differ by exactly 4 delta and their
    # d_x by exactly -4
    fields = [*corpus, validate(CMFieldParams(228, -21, 1, -22, 38))]
    steps = 0
    for field in fields:
        for dctx in enumerate_delta(field):
            contexts = n_contexts(field, dctx)
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
            for ctx in n_contexts(field, dctx):
                for p, _ in factorize(ctx.N):
                    assert hilbert_symbol(ctx.d_u, -ctx.N, p) \
                        == hilbert_symbol(ctx.d_x, -ctx.N, p), (field.params, ctx.n, p)
                    places += 1
    assert places > 30_000


def test_even_support_breaks_product_formula(monkeypatch):
    # a symbol flipped at p = 2, on the class route (the Legendre helper)
    # and on the local-symbol route (p | d_u and d_x) alike, makes every
    # support even in size
    legendre, local = cm_fields._legendre, cm_fields._symbol_at_prime
    monkeypatch.setattr(cm_fields, "_legendre",
                        lambda d, p: -legendre(d, p) if p == 2 else legendre(d, p))
    monkeypatch.setattr(cm_fields, "_symbol_at_prime",
                        lambda a, i, b, j, p: -local(a, i, b, j, p) if p == 2
                        else local(a, i, b, j, p))
    _branch_columns.cache_clear()
    try:
        field = validate(WORKED)
        with pytest.raises(IntegralityViolation, match="product formula"):
            enumerate_n(field, enumerate_delta(field)[0], 2)
        out = io.StringIO()
        argv = ["intersect", "--field", '{"D":5,"alpha":[0,1],"beta":[1,1]}', "--ell", "2"]
        assert main(argv, out=out) == EXIT_INTERNAL_INVARIANT
        assert out.getvalue() == ""
    finally:
        _branch_columns.cache_clear()


def test_flipped_class_symbol_breaks_product_formula(monkeypatch):
    # the D = 13 field's branch (delta, n) = (1, -21) has N = 6 and d_u = -8:
    # a class symbol flipped at p = 3 puts 3 beside 2 in its support
    real = cm_fields._legendre
    monkeypatch.setattr(cm_fields, "_legendre",
                        lambda d, p: -real(d, p) if p == 3 else real(d, p))
    _branch_columns.cache_clear()
    try:
        field = validate(CMFieldParams(13, -3, 0, -3, 2))
        with pytest.raises(IntegralityViolation, match="product formula"):
            _branch_columns(field, enumerate_delta(field)[0])
        out = io.StringIO()
        argv = ["intersect", "--field", '{"D":13,"alpha":[-3,0],"beta":[-3,2]}', "--ell", "3"]
        assert main(argv, out=out) == EXIT_INTERNAL_INVARIANT
        assert out.getvalue() == ""
    finally:
        _branch_columns.cache_clear()


def test_flipped_cofactor_symbol_breaks_product_formula(monkeypatch):
    # moduli of 10^4 or more are cofactor primes, above the sieve limit;
    # 6,249 of E3's branches have one below 10^8, which takes (d_u/q) by
    # `_legendre` and none above, so a flip there breaks the product formula
    real = cm_fields._legendre
    monkeypatch.setattr(cm_fields, "_legendre",
                        lambda d, p: -real(d, p) if p >= 10_000 else real(d, p))
    _branch_columns.cache_clear()
    try:
        field = validate(E3)
        with pytest.raises(IntegralityViolation, match="product formula"):
            for dctx in enumerate_delta(field):
                _branch_columns(field, dctx)
    finally:
        _branch_columns.cache_clear()


def test_enumerate_fu_examples():
    field = validate(WORKED)
    ctx = enumerate_n(field, enumerate_delta(field)[0], 2)[0]
    assert enumerate_fu(ctx, 2) == (1,)      # d_u = -3 squarefree
    synthetic = NContext(**dict(zip(NContext._fields, ctx), d_u=-12))
    assert enumerate_fu(synthetic, 5) == (1, 2)
    assert enumerate_fu(synthetic, 2) == (2,)
    synthetic = NContext(**dict(zip(NContext._fields, ctx), d_u=-144))
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
            for ctx in n_contexts(field, dctx):
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
