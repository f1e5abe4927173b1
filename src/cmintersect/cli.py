"""Command-line front end.

Verbs: `intersect` (coefficient of log ell), `primes` (candidate primes
with witnesses), `special` (simplified-formula value), `selftest`
(built-in oracle suites).  Field data arrives as a JSON document, inline
or from a file, and its values must be JSON integers; batch mode streams
one line per record, the report or, for a bad record, an error naming the
record's 0-based index and its exit class, and exits with the largest
class seen.  All rationals are emitted as [numerator, denominator] pairs
and output is byte-stable for identical inputs.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

from .cm_fields import (CMFieldParams, FieldValidationError,
                        IntegralityViolation, validate)
from .integers import (INFINITY, factorize, hilbert_symbol,
                       hilbert_symbol_oracle)
from .intersection import (IndexHypothesisViolated, enumerate_candidate_primes,
                           intersection_number, special_case_value)

EXIT_OK = 0
EXIT_SELFTEST_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_HYPOTHESIS_VIOLATED = 3
EXIT_INTERNAL_INVARIANT = 4


def _rat(x: Fraction) -> list[int]:
    x = Fraction(x)
    return [x.numerator, x.denominator]


def _load_field_records(args) -> list[dict]:
    if args.batch:
        text = Path(args.batch).read_text()
        records = json.loads(text)
        if not isinstance(records, list):
            raise ValueError("batch file must hold a JSON array of field records")
        return records
    if not args.field:
        raise ValueError("missing --field (or --batch)")
    doc = args.field
    text = doc if doc.lstrip().startswith(("{", "[")) else Path(doc).read_text()
    record = json.loads(text)
    if not isinstance(record, dict):
        raise ValueError("field document must be a JSON object")
    return [record]


def _json_int(value, name: str) -> int:
    # bool is a subclass of int, but JSON true is not the integer 1
    if type(value) is not int:
        raise ValueError(f"{name} must be a JSON integer, not {json.dumps(value)}")
    return value


def _json_pair(value, name: str) -> tuple[int, int]:
    if not isinstance(value, list) or len(value) != 2:
        raise ValueError(f"{name} must be a list of 2 JSON integers")
    return _json_int(value[0], f"{name}[0]"), _json_int(value[1], f"{name}[1]")


def _params_from_record(record: dict, args) -> CMFieldParams:
    try:
        D, alpha, beta = record["D"], record["alpha"], record["beta"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"field record needs D, alpha, beta: {exc}") from exc
    D = _json_int(D, "D")
    a0, a1 = _json_pair(alpha, "alpha")
    b0, b1 = _json_pair(beta, "beta")
    index = _json_int(record.get("index_bound", 1), "index_bound")
    if args.index_bound is not None:
        index = args.index_bound
    return CMFieldParams(D, a0, a1, b0, b1, index)


def _row_payload(row) -> dict:
    return {
        "delta": row.delta, "n": row.n, "f_u": row.f_u,
        "C_delta": row.C_delta, "mu": _rat(row.mu), "frakI": row.frakI,
        "scrJ": [row.scrJ_value, row.scrJ_exactness],
        "product": _rat(row.product),
    }


def _emit(payload: dict, fmt: str, out) -> None:
    if fmt == "json":
        out.write(json.dumps(payload, sort_keys=True, separators=(",", ":")))
        out.write("\n")
        return
    task = payload["task"]
    if task == "intersect":
        num, den = payload["value"]
        out.write(f"intersect ell={payload['ell']}: value = {num}/{den} "
                  f"({payload['exactness']}, {payload['mode']})\n")
        for row in payload.get("rows", []):
            out.write(f"  delta={row['delta']} n={row['n']} f_u={row['f_u']} "
                      f"C={row['C_delta']} mu={row['mu'][0]}/{row['mu'][1]} "
                      f"frakI={row['frakI']} scrJ={row['scrJ'][0]}({row['scrJ'][1]}) "
                      f"product={row['product'][0]}/{row['product'][1]}\n")
    elif task == "primes":
        if not payload["primes"]:
            out.write("no candidate primes\n")
        for entry in payload["primes"]:
            ws = " ".join(f"({d},{n})" for d, n in entry["witnesses"])
            out.write(f"ell={entry['ell']}: witnesses {ws}\n")
    elif task == "special":
        if payload.get("status") == "hypotheses-not-met":
            out.write(f"special ell={payload['ell']}: hypotheses-not-met\n")
        else:
            num, den = payload["value"]
            out.write(f"special ell={payload['ell']}: value = {num}/{den}\n")
    elif task == "selftest":
        for suite in payload["suites"]:
            out.write(f"{suite['name']}: {suite['passed']} passed, "
                      f"{suite['failed']} failed\n")
        out.write(f"total: {payload['passed']} passed, {payload['failed']} failed\n")
    for warning in payload.get("warnings", []):
        out.write(f"warning: {warning}\n")


def _run_intersect(field_data, ell: int, trace: bool) -> dict:
    report = intersection_number(field_data, ell)
    payload = {
        "task": "intersect",
        "ell": report.ell,
        "value": _rat(report.value),
        "exactness": report.exactness,
        "mode": report.mode,
        "warnings": list(report.warnings),
    }
    if trace:
        payload["rows"] = [_row_payload(r) for r in report.rows]
    return payload


def _run_primes(field_data) -> dict:
    cands = enumerate_candidate_primes(field_data)
    return {
        "task": "primes",
        "primes": [{"ell": ell, "witnesses": [list(w) for w in ws]}
                   for ell, ws in cands],
        "warnings": [],
    }


def _run_special(field_data, ell: int) -> dict:
    value = special_case_value(field_data, ell)
    if value is None:
        return {"task": "special", "ell": ell,
                "status": "hypotheses-not-met", "warnings": []}
    return {"task": "special", "ell": ell, "value": _rat(value), "warnings": []}


def _selftest_suites() -> list[dict]:
    from .local_roots import LocalQuery, count_roots_by_enumeration, count_roots_mod_pk
    from .matrix_ideals import (companion_matrix, count_right_order_ideals,
                                enumerate_ideals, is_primitive,
                                right_order_contains)
    from .quadratic_orders import (count_ideals_bruteforce,
                                   count_invertible_ideals, discriminant_of)

    suites = []
    rng = random.Random(20240 + 1)

    passed = failed = 0
    for _ in range(200):
        p = rng.choice([2, 3, 5, 7])
        q = LocalQuery(p, rng.randint(0, 4), rng.randint(-40, 40), rng.randint(-40, 40))
        if count_roots_mod_pk(q) == count_roots_by_enumeration(q):
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


def _run_selftest() -> dict:
    suites = _selftest_suites()
    return {
        "task": "selftest",
        "suites": suites,
        "passed": sum(s["passed"] for s in suites),
        "failed": sum(s["failed"] for s in suites),
        "warnings": [],
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cmintersect",
        description="Exact arithmetic intersection data for quartic CM fields")
    sub = parser.add_subparsers(dest="task", required=True)
    for name in ("intersect", "primes", "special"):
        p = sub.add_parser(name)
        p.add_argument("--field", help="inline JSON or path to a field document")
        p.add_argument("--batch", help="path to a JSON array of field records")
        p.add_argument("--ell", type=int, help="prime ell")
        p.add_argument("--trace", action="store_true",
                       help="include the contribution rows (intersect only)")
        p.add_argument("--format", choices=("json", "table"), default="json")
        p.add_argument("--index-bound", type=int, default=None,
                       help="override the record's index bound")
    st = sub.add_parser("selftest")
    st.add_argument("--format", choices=("json", "table"), default="json")
    return parser


def main(argv=None, out=sys.stdout) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.task == "selftest":
        payload = _run_selftest()
        _emit(payload, args.format, out)
        return EXIT_OK if payload["failed"] == 0 else EXIT_SELFTEST_FAILED

    try:
        records = _load_field_records(args)
    except (OSError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR

    if args.task in ("intersect", "special") and args.ell is None:
        print("input error: --ell is required", file=sys.stderr)
        return EXIT_INPUT_ERROR

    worst = EXIT_OK
    for i, record in enumerate(records):
        try:
            params = _params_from_record(record, args)
            field_data = validate(params)
            if args.task == "intersect":
                payload = _run_intersect(field_data, args.ell, args.trace)
            elif args.task == "primes":
                payload = _run_primes(field_data)
            else:
                payload = _run_special(field_data, args.ell)
        except IndexHypothesisViolated as exc:
            code, label, msg = EXIT_HYPOTHESIS_VIOLATED, "hypothesis violated", str(exc)
        except IntegralityViolation as exc:
            code, label, msg = EXIT_INTERNAL_INVARIANT, "internal invariant failure", str(exc)
        except (FieldValidationError, ValueError) as exc:
            code, label, msg = EXIT_INPUT_ERROR, "input error", str(exc)
        else:
            _emit(payload, args.format, out)
            continue
        print(f"{label}: {msg}", file=sys.stderr)
        if not args.batch:
            return code
        # a bad batch record takes one error line in its place; the rest still run
        worst = max(worst, code)
        if args.format == "json":
            _emit({"error": msg, "exit": code, "record": i}, "json", out)
        else:
            out.write(f"error: record {i}: {msg}\n")
    return worst


if __name__ == "__main__":
    sys.exit(main())
