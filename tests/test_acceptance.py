"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines; every
stated tolerance and time budget is asserted here, nothing is deferred.
"""

import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from math import gcd
from pathlib import Path

import cmintersect
from cmintersect import (EXACT, CMFieldParams, build_query,
                         count_invertible_ideals, count_roots_mod_pk,
                         discriminant_of, enumerate_candidate_primes,
                         enumerate_delta, enumerate_fu, enumerate_n, factorize,
                         frakI, hilbert_symbol, intersection_number, is_prime,
                         scrJ, special_case_value, t_pair, validate)
from cmintersect.matrix_ideals import (PMatrix, companion_matrix,
                                       contained_in, contained_in_by_quotient,
                                       count_right_order_ideals,
                                       enumerate_ideals, is_primitive,
                                       right_order_contains)
from cmintersect.oracles import (count_ideals_bruteforce,
                                 count_roots_by_enumeration,
                                 hilbert_symbol_oracle, scrJ_conjecture)

REPO = Path(__file__).resolve().parent.parent


def _report(criterion, detail):
    print(f"PASS criterion {criterion}: {detail}")


def test_criterion_1_local_root_counts():
    rng = random.Random(101)
    start = time.perf_counter()
    mismatches = 0
    for _ in range(500):
        q = (rng.choice([2, 3, 5, 7]), rng.randint(0, 5),
             rng.randint(-100, 100), rng.randint(-100, 100))
        if count_roots_mod_pk(*q) != count_roots_by_enumeration(*q):
            mismatches += 1
    elapsed = time.perf_counter() - start
    assert mismatches == 0
    assert elapsed < 2.0
    _report(1, f"500 root-count queries match enumeration ({elapsed:.2f}s < 2s)")


def test_criterion_2_right_order_counting():
    rng = random.Random(102)
    start = time.perf_counter()
    for p in (2, 3, 5):
        for N in range(5):
            assert len(enumerate_ideals(p, N)) == sum(p**i for i in range(N + 1))
    mismatches = 0
    admissible = 0
    while admissible < 102:
        p = rng.choice([2, 3, 5])
        r = rng.randint(0, 2)
        T, Nm = rng.randint(-9, 9), rng.randint(-9, 9)
        comp = companion_matrix(T, Nm, p, r)
        U = PMatrix.of(*(rng.randint(-4, 4) for _ in range(4)))
        if abs(U.norm) != 1:
            continue
        y = U * comp * U.inverse()
        admissible += 1
        for N in range(5):
            formula = count_right_order_ideals(p, N, y, r)
            direct = sum(1 for I in enumerate_ideals(p, N)
                         if is_primitive(I) and right_order_contains(I, y))
            if formula != direct:
                mismatches += 1
    elapsed = time.perf_counter() - start
    assert mismatches == 0
    assert elapsed < 10.0
    _report(2, f"{admissible} admissible elements, norms up to p^4, "
               f"formula = filter ({elapsed:.2f}s < 10s)")


def test_criterion_3_containment_lemma():
    mismatches = checked = 0
    for p in (2, 3):
        ideals = [I for N in range(4) for I in enumerate_ideals(p, N)]
        for I in ideals:
            for J in ideals:
                for j in range(3):
                    for k in range(3):
                        checked += 1
                        if contained_in(j, I, k, J) != \
                                contained_in_by_quotient(j, I, k, J):
                            mismatches += 1
    assert mismatches == 0
    _report(3, f"containment criterion = quotient test on {checked} scaled pairs")


def test_criterion_4_quadratic_ideal_counts():
    start = time.perf_counter()
    mismatches = checked = 0
    for d in range(-400, 0):
        if d % 4 not in (0, 1):
            continue
        disc = discriminant_of(d)
        for M in range(1, 201):
            checked += 1
            if count_invertible_ideals(disc, M) != count_ideals_bruteforce(disc, M):
                mismatches += 1
    elapsed = time.perf_counter() - start
    assert mismatches == 0
    assert elapsed < 30.0
    _report(4, f"{checked} (d, M) ideal counts match the HNF oracle "
               f"({elapsed:.1f}s < 30s)")


def test_criterion_5_hilbert_symbols():
    rng = random.Random(105)
    from cmintersect import INFINITY
    checked = 0
    while checked < 200:
        a, b = rng.randint(-10**4, 10**4), rng.randint(-10**4, 10**4)
        if a == 0 or b == 0:
            continue
        prod = hilbert_symbol(a, b, INFINITY)
        for p in {2} | set(factorize(a).primes()) | set(factorize(b).primes()):
            prod *= hilbert_symbol(a, b, p)
        assert prod == 1, (a, b)
        checked += 1
    oracle_checks = 0
    for p in (3, 5, 7, 11, 13):
        pool = [1, -1, 2, -2, 3, -3, p, -p, 2 * p, -2 * p]
        pairs = 24 if p <= 7 else 8
        for _ in range(pairs):
            a, b = rng.choice(pool), rng.choice(pool)
            assert hilbert_symbol(a, b, p) == hilbert_symbol_oracle(a, b, p), (a, b, p)
            oracle_checks += 1
    for _ in range(40):
        pool = [1, -1, 3, -3, 5, -5, 2, -2, 6, -6, 10, -10]
        a, b = rng.choice(pool), rng.choice(pool)
        assert hilbert_symbol(a, b, 2) == hilbert_symbol_oracle(a, b, 2), (a, b)
        oracle_checks += 1
    _report(5, f"product formula on 200 pairs; {oracle_checks} oracle "
               f"agreements for p <= 13")


def _all_branches(field, ell):
    for dctx in enumerate_delta(field):
        for nctx in enumerate_n(field, dctx, ell):
            for f_u in enumerate_fu(nctx, ell):
                yield dctx, nctx, f_u


def test_criterion_6_internal_identities(corpus):
    assert len(corpus) >= 50
    assert all(2 <= f.params.D <= 60 for f in corpus)
    violations = 0
    branches = 0
    symbol_checks = 0
    for field in corpus:
        D, Dt = field.params.D, field.Dtilde
        for ell in (2, 3):
            for dctx, nctx, f_u in _all_branches(field, ell):
                branches += 1
                if nctx.d_u >= 0:
                    violations += 1
                lhs = nctx.d_x * nctx.d_u - (dctx.t_x * dctx.t_u - 2 * nctx.t_xuv) ** 2
                if lhs != 4 * nctx.N:
                    violations += 1
                if f_u == 1 and frakI(nctx, 1, ell) != 1:
                    violations += 1
                # the two Hilbert-symbol expressions, at every relevant prime
                arg1 = D * (nctx.n**2 - dctx.delta**2 * Dt)
                d1f = Fraction(nctx.d_u, f_u**2)
                t = t_pair(nctx, f_u)
                arg2 = (d1f * nctx.d_x - 2 * t) ** 2 - d1f * nctx.d_x
                primes = {2} | set(factorize(nctx.d_u).primes()) \
                    | set(factorize(D).primes()) | set(factorize(4 * D * nctx.N).primes())
                for p in primes:
                    symbol_checks += 1
                    if hilbert_symbol(nctx.d_u, arg1, p) != \
                            hilbert_symbol(nctx.d_u, arg2, p):
                        violations += 1
    assert violations == 0
    assert symbol_checks >= 500
    _report(6, f"{len(corpus)} fields, {branches} branches: norm identity, "
               f"d_u < 0, unit local product, {symbol_checks} symbol agreements")


def test_criterion_7_cross_formula_agreement(corpus):
    conj_compared = conj_mismatch = 0
    for field in corpus:
        for ell in (2, 3, 5):
            for dctx, nctx, f_u in _all_branches(field, ell):
                q = build_query(nctx, f_u, ell)
                result = scrJ(q)
                conj = scrJ_conjecture(q)
                if conj is None or result.exactness != EXACT:
                    continue
                if q.t.denominator != 1:
                    continue
                m4 = q.d1.d * q.d2 - (q.d1.d * q.d2 - 2 * int(q.t)) ** 2
                if m4 <= 0 or gcd(q.d1.f, m4 // 4) != 1:
                    continue
                conj_compared += 1
                if conj != result.value:
                    conj_mismatch += 1

    special_compared = special_mismatch = 0
    for field in corpus:
        if any(4 * dctx.delta == field.params.D for dctx in enumerate_delta(field)):
            continue
        for ell in (2, 3, 5):
            simple = special_case_value(field, ell)
            if simple is None:
                continue
            report = intersection_number(field, ell)
            if report.exactness != EXACT:
                continue
            special_compared += 1
            if report.value != simple:
                special_mismatch += 1

    assert conj_mismatch == 0 and conj_compared >= 25
    assert special_mismatch == 0 and special_compared >= 10
    _report(7, f"local-factor product = pair count on {conj_compared} branches; "
               f"simplified sum = full sum on {special_compared} field/prime pairs")


def test_criterion_8_worked_value():
    script = REPO / "demos" / "worked_example_rederivation.py"
    proc = subprocess.run([sys.executable, str(script)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "intersection coefficient of log(2) = 1" in proc.stdout

    field = validate(CMFieldParams(5, 0, 1, 1, 1))
    report = intersection_number(field, 2)
    assert report.value == Fraction(1)
    assert report.exactness == EXACT
    assert len(report.rows) == 1
    row = report.rows[0]
    assert (row.delta, row.n, row.f_u, row.C_delta) == (1, -1, 1, 1)
    assert (row.mu, row.frakI, row.scrJ_value) == (Fraction(1), 1, 1)
    zero_primes = 0
    for ell in range(3, 101):
        if not is_prime(ell):
            continue
        assert intersection_number(field, ell).value == 0
        zero_primes += 1
    _report(8, f"re-derivation script confirms the value; library gives 1 "
               f"with the single expected row, 0 for {zero_primes} other primes")


def test_criterion_9_candidate_prime_consistency(corpus):
    primes = [p for p in range(2, 51) if is_prime(p)]
    violations = 0
    nonzero = 0
    for field in corpus:
        candidates = {ell for ell, _ in enumerate_candidate_primes(field)}
        for ell in primes:
            if intersection_number(field, ell).value != 0:
                nonzero += 1
                if ell not in candidates:
                    violations += 1
    assert violations == 0
    assert nonzero > 0
    _report(9, f"{nonzero} nonzero values across {len(corpus)} fields x "
               f"{len(primes)} primes, every prime appears among candidates")


def test_criterion_10_determinism(tmp_path):
    # The children run from an unrelated directory, where a relative
    # PYTHONPATH entry such as `src` resolves to nothing; put the absolute
    # directory of the package this process imported first on their path,
    # so they run the same code as the test.
    env = dict(os.environ)
    package_root = str(Path(cmintersect.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))

    argv = [sys.executable, "-m", "cmintersect", "intersect",
            "--field", '{"D":5,"alpha":[0,1],"beta":[1,1]}',
            "--ell", "2", "--trace"]
    runs = [subprocess.run(argv, capture_output=True, cwd=tmp_path, env=env)
            for _ in range(2)]
    assert runs[0].returncode == runs[1].returncode == 0, \
        (runs[0].stderr + runs[1].stderr).decode(errors="replace")
    assert runs[0].stdout == runs[1].stdout
    assert runs[0].stdout
    payload = json.loads(runs[0].stdout)
    assert payload["value"] == [1, 1]

    argv2 = [sys.executable, "-m", "cmintersect", "primes",
             "--field", '{"D":13,"alpha":[-3,0],"beta":[-3,2]}']
    runs2 = [subprocess.run(argv2, capture_output=True, cwd=tmp_path, env=env)
             for _ in range(2)]
    assert runs2[0].stdout == runs2[1].stdout, \
        (runs2[0].stderr + runs2[1].stderr).decode(errors="replace")
    _report(10, "byte-identical reports across repeated runs")
