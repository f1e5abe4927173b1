"""The `selftest` verb: seeded oracle suites, each closed form against its
brute-force check, plus the worked example end to end.

Only `cmintersect selftest` imports this module, so the other verbs do
not load `random`, `matrix_ideals` or `oracles`.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .cm_fields import CMFieldParams, validate
from .integers import INFINITY, factorize, hilbert_symbol
from .intersection import intersection_number
from .local_roots import count_roots_mod_pk
from .matrix_ideals import (companion_matrix, count_right_order_ideals,
                            enumerate_ideals, is_primitive, right_order_contains)
from .oracles import (count_ideals_bruteforce, count_roots_by_enumeration,
                      hilbert_symbol_oracle)
from .quadratic_orders import count_invertible_ideals, discriminant_of


def _suites() -> list[dict]:
    suites = []
    rng = random.Random(20240 + 1)

    passed = failed = 0
    for _ in range(200):
        p = rng.choice([2, 3, 5, 7])
        q = (p, rng.randint(0, 4), rng.randint(-40, 40), rng.randint(-40, 40))
        if count_roots_mod_pk(*q) == count_roots_by_enumeration(*q):
            passed += 1
        else:
            failed += 1
    suites.append({"name": "local root counts vs enumeration",
                   "passed": passed, "failed": failed})

    passed = failed = 0
    pool = [1, -1, 2, -2, 3, -3, 5, 6, -6, 10, 15, -30]
    for _ in range(60):
        a, b = rng.choice(pool), rng.choice(pool)
        p = rng.choice([2, 3, 5])
        if hilbert_symbol(a, b, p) == hilbert_symbol_oracle(a, b, p):
            passed += 1
        else:
            failed += 1
    for _ in range(60):
        a = rng.randint(-400, 400) or 1
        b = rng.randint(-400, 400) or 1
        prod = hilbert_symbol(a, b, INFINITY)
        for p in {2} | set(factorize(a).primes()) | set(factorize(b).primes()):
            prod *= hilbert_symbol(a, b, p)
        if prod == 1:
            passed += 1
        else:
            failed += 1
    suites.append({"name": "hilbert symbols (oracle + product formula)",
                   "passed": passed, "failed": failed})

    passed = failed = 0
    valid_discs = [d for d in range(-120, 0) if d % 4 in (0, 1)]
    for _ in range(120):
        disc = discriminant_of(rng.choice(valid_discs))
        M = rng.randint(1, 30)
        if count_invertible_ideals(disc, M) == count_ideals_bruteforce(disc, M):
            passed += 1
        else:
            failed += 1
    suites.append({"name": "quadratic-order ideal counts vs HNF oracle",
                   "passed": passed, "failed": failed})

    passed = failed = 0
    for _ in range(40):
        p = rng.choice([2, 3])
        r = rng.randint(0, 1)
        N = rng.randint(0, 3)
        T, Nm = rng.randint(-6, 6), rng.randint(-6, 6)
        y = companion_matrix(T, Nm, p, r)
        formula = count_right_order_ideals(p, N, y, r)
        direct = sum(1 for I in enumerate_ideals(p, N)
                     if is_primitive(I) and right_order_contains(I, y))
        if formula == direct:
            passed += 1
        else:
            failed += 1
    suites.append({"name": "matrix-order right-ideal counts vs filter",
                   "passed": passed, "failed": failed})

    field = validate(CMFieldParams(5, 0, 1, 1, 1))
    report = intersection_number(field, 2)
    ok = report.value == Fraction(1) and len(report.rows) == 1
    suites.append({"name": "worked end-to-end value",
                   "passed": int(ok), "failed": int(not ok)})
    return suites


def run_selftest() -> dict:
    suites = _suites()
    return {
        "task": "selftest",
        "suites": suites,
        "passed": sum(s["passed"] for s in suites),
        "failed": sum(s["failed"] for s in suites),
        "warnings": [],
    }
