"""Command-line front end.

Verbs: `intersect` (coefficient of log ell), `primes` (candidate primes
with witnesses), `special` (simplified-formula value), `selftest`
(built-in oracle suites).  Field data arrives as one JSON document
(`--field`, inline or from a file) or as a batch file (`--batch`), never
both; a record may hold only the keys D, alpha, beta and index_bound, each
once, and its values must be JSON integers.  Batch mode streams one line per
record, the report or, for a bad record, an error naming the record's
0-based index and its exit class, and exits with the largest class seen.
All rationals are emitted as [numerator, denominator] pairs and output
is byte-stable for identical inputs.  Exit codes: 0 success, 1 selftest
failures, 2 input errors, 3 hypothesis violations, 4 internal invariant
failures, and 141 (128 + SIGPIPE, as a shell reports it) when the reader
of stdout closes it early, which stops the run without a traceback.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter
from fractions import Fraction

from .cm_fields import CMFieldParams, IntegralityViolation, validate
from .intersection import (IndexHypothesisViolated, enumerate_candidate_primes,
                           intersection_number, special_case_value)

EXIT_OK = 0
EXIT_SELFTEST_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_HYPOTHESIS_VIOLATED = 3
EXIT_INTERNAL_INVARIANT = 4
EXIT_BROKEN_PIPE = 141


def _rat(x: Fraction) -> list[int]:
    return [x.numerator, x.denominator]


class _JSONObject(dict):
    """A JSON object; `repeated` holds the keys given twice or more, sorted,
    so that record alone is refused where json.loads would keep the last."""

    def __init__(self, pairs: list):
        super().__init__(pairs)
        counts = Counter(key for key, _ in pairs)
        self.repeated = sorted(key for key, n in counts.items() if n > 1)


def _load_field_records(args) -> list[dict]:
    doc = args.batch or args.field
    if not doc:
        raise ValueError("missing --field (or --batch)")
    # a --batch value is always a path; a --field value is one unless it
    # is inline JSON
    if args.batch or not doc.lstrip().startswith(("{", "[")):
        from pathlib import Path
        doc = Path(doc).read_text()
    records = json.loads(doc, object_pairs_hook=_JSONObject)
    if not args.batch:
        if not isinstance(records, dict):
            raise ValueError("field document must be a JSON object")
        return [records]
    if not isinstance(records, list):
        raise ValueError("batch file must hold a JSON array of field records")
    return records


def _json_int(value, name: str) -> int:
    # bool is a subclass of int, but JSON true is not the integer 1
    if type(value) is not int:
        raise ValueError(f"{name} must be a JSON integer, not {json.dumps(value)}")
    return value


def _json_pair(value, name: str) -> tuple[int, int]:
    if not isinstance(value, list) or len(value) != 2:
        raise ValueError(f"{name} must be a list of 2 JSON integers")
    return _json_int(value[0], f"{name}[0]"), _json_int(value[1], f"{name}[1]")


def _params_from_record(record: dict, index_bound: int | None) -> CMFieldParams:
    if not isinstance(record, dict):
        raise ValueError("field record must be a JSON object")
    if record.repeated:
        raise ValueError(f"field record has duplicate keys: {', '.join(record.repeated)}")
    unknown = sorted(set(record) - {"D", "alpha", "beta", "index_bound"})
    if unknown:
        raise ValueError(f"field record has unknown keys: {', '.join(unknown)}")
    try:
        D, alpha, beta = record["D"], record["alpha"], record["beta"]
    except KeyError as exc:
        raise ValueError(f"field record needs D, alpha, beta: {exc}") from exc
    D = _json_int(D, "D")
    a0, a1 = _json_pair(alpha, "alpha")
    b0, b1 = _json_pair(beta, "beta")
    index = _json_int(record.get("index_bound", 1), "index_bound")
    if index_bound is not None:
        index = index_bound
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cmintersect",
        description="Exact arithmetic intersection data for quartic CM fields")
    sub = parser.add_subparsers(dest="task", required=True)
    # each verb takes only the flags it reads, so argparse rejects the rest
    for name in ("intersect", "primes", "special"):
        p = sub.add_parser(name)
        source = p.add_mutually_exclusive_group()
        source.add_argument("--field", help="inline JSON or path to a field document")
        source.add_argument("--batch", help="path to a JSON array of field records")
        if name != "primes":
            p.add_argument("--ell", type=int, help="prime ell")
            p.add_argument("--index-bound", type=int,
                           help="override the record's index bound")
        if name == "intersect":
            p.add_argument("--trace", action="store_true",
                           help="include the contribution rows")
        p.add_argument("--format", choices=("json", "table"), default="json")
    st = sub.add_parser("selftest")
    st.add_argument("--format", choices=("json", "table"), default="json")
    return parser


def main(argv=None, out=None) -> int:
    out = sys.stdout if out is None else out
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = _run(args, out)
        out.flush()
    except BrokenPipeError:
        # the reader is gone; stdout goes to devnull so that the
        # interpreter's final flush cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    return code


def _run(args, out) -> int:
    if args.task == "selftest":
        from .selftest import run_selftest
        payload = run_selftest()
        _emit(payload, args.format, out)
        return EXIT_OK if payload["failed"] == 0 else EXIT_SELFTEST_FAILED

    try:
        records = _load_field_records(args)
    except (OSError, ValueError, RecursionError) as exc:
        # RecursionError: json.loads on a document nested too deeply
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR

    if args.task in ("intersect", "special") and args.ell is None:
        print("input error: --ell is required", file=sys.stderr)
        return EXIT_INPUT_ERROR

    worst = EXIT_OK
    for i, record in enumerate(records):
        try:
            params = _params_from_record(record, getattr(args, "index_bound", None))
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
        except ValueError as exc:  # FieldValidationError included
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
