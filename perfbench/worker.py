"""One pass of one workload in a fresh process; results as JSON lines.

    python3 perfbench/worker.py --workload NAME --seed N --mode setup|run|trace
                                [--spans PATH]

Set-up (import plus `validate` of every workload field) is timed first
and reported on one line.  `--mode setup` stops there.  Otherwise the
queries run in a closed loop, one client, and each writes one line as it
finishes, so a pass killed at its time limit still reports what it
completed.  The last line carries the loop's wall time and peak RSS, and
in `--mode trace` the per-layer totals; the spans go to `--spans`.

Outside `--mode trace`, the set-up line carries a few host-speed samples
(`hostspeed.py`) taken right after set-up, and for the library workloads
every later line carries the samples taken since the previous line, one
every `hostspeed.INTERVAL_S`.  Reported times leave out the time spent
sampling.  The CLI workload takes no samples while its queries run: the
work is done in other processes, and scaling their times by this
process's samples made them less steady, not more.
`run.py` starts this script; it is not meant to be run by hand.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import hostspeed
import workloads

ROOT = Path(__file__).resolve().parents[1]
PROBE = Path(__file__).resolve().with_name("cli_probe.py")
SETUP_SAMPLES = 5


def emit(record: dict) -> None:
    sys.stdout.write(json.dumps(record, separators=(",", ":")) + "\n")
    sys.stdout.flush()


def check_source(module) -> None:
    """Refuse to measure a cmintersect that is not this checkout's src/."""
    if not Path(module.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"cmintersect imported from {module.__file__}, "
                         f"not from {ROOT / 'src'}")


def library_output(cm, query, field, now):
    """Call the library; return (seconds by `now`, canonical output)."""
    if query.kind == "intersect":
        t0 = now()
        report = cm.intersection_number(field, query.ell)
        dt = now() - t0
        return dt, {"value": [report.value.numerator, report.value.denominator],
                    "exactness": report.exactness, "rows": len(report.rows)}
    t0 = now()
    primes = cm.enumerate_candidate_primes(field)
    dt = now() - t0
    canon = json.dumps([[ell, [list(w) for w in ws]] for ell, ws in primes],
                       separators=(",", ":"))
    return dt, {"primes": len(primes),
                "sha256": hashlib.sha256(canon.encode()).hexdigest()}


def cli_output(query, trace_files):
    """Run one CLI process; return (seconds, canonical output)."""
    if trace_files is None:
        cmd = [sys.executable, "-m", "cmintersect", *query.argv]
    else:
        cmd = [sys.executable, str(PROBE), *trace_files, *query.argv]
    t0 = perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True)
    dt = perf_counter() - t0
    return dt, {"exit": proc.returncode, "stdout": proc.stdout.decode()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--spans")
    args = parser.parse_args(argv)
    wl = workloads.build(args.workload, args.seed)
    is_cli = args.workload == "cli-cold"
    tracing_on = args.mode == "trace"

    t0 = perf_counter()
    if is_cli:
        import cmintersect.cli
    import cmintersect as cm
    check_source(cm)
    factorize = cm.integers.factorize  # before the tracer rebinds it
    tracer = None
    if tracing_on and not is_cli:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    fields = [cm.validate(cm.CMFieldParams(*p)) for p in wl.fields]
    setup_s = perf_counter() - t0
    sampler = hostspeed.Sampler()
    for _ in range(0 if tracing_on else SETUP_SAMPLES):
        sampler.sample()
    emit({"setup_s": setup_s, "setup_cal": sampler.take()})
    if args.mode == "setup":
        return 0
    if not (tracing_on or is_cli):
        sampler.start()
    try:
        done = run_queries(args, wl, cm, fields, factorize, tracer, sampler)
    finally:
        sampler.stop()
    emit(done)
    return 0


def run_queries(args, wl, cm, fields, factorize, tracer, sampler) -> dict:
    """The closed loop over the query list; returns the last line."""
    is_cli = args.workload == "cli-cold"
    tracing_on = args.mode == "trace"

    cache0 = factorize.cache_info()
    if tracing_on and is_cli:
        open(args.spans, "w").close()
    probe_totals = []
    spans_written = 0
    loop_start = sampler.now()
    for i, query in enumerate(wl.queries):
        trace_files = None
        if is_cli and tracing_on:
            result_path = f"{args.spans}.q{i}.json"
            trace_files = (str(i), str(spans_written), args.spans, result_path)
        if tracer is not None:
            tracer.query = i
        try:
            if is_cli:
                dt, out = cli_output(query, trace_files)
            else:
                dt, out = library_output(cm, query, fields[query.field], sampler.now)
        except Exception:
            emit({"q": i, "error": traceback.format_exc(limit=3), "cal": sampler.take()})
            continue
        if trace_files is not None and os.path.exists(result_path):
            probe = json.loads(Path(result_path).read_text())
            os.unlink(result_path)
            spans_written += probe["spans"]
            probe_totals.append(probe)
        emit({"q": i, "dt": dt, "out": out, "cal": sampler.take()})
    run_s = sampler.now() - loop_start

    who = resource.RUSAGE_CHILDREN if is_cli else resource.RUSAGE_SELF
    done = {"done": True, "run_s": run_s, "cal": sampler.take(),
            "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024}
    if tracing_on:
        if tracer is not None:
            tracer.restore()
            cache = factorize.cache_info()
            totals = tracer.layer_totals()
            totals["cache"] = [cache.hits - cache0.hits, cache.misses - cache0.misses]
            totals["import_s"] = []
            with open(args.spans, "w") as fh:
                tracer.write(fh)
        else:
            totals = merge_probe_totals(probe_totals)
        done["layers"] = totals
    return done


def merge_probe_totals(probes: list) -> dict:
    """Sum the per-process totals of the traced CLI processes."""
    merged = {"calls": {}, "self_s": {}, "counts": {}, "extra": {},
              "cache": [0, 0], "import_s": []}
    for probe in probes:
        for part in ("calls", "self_s", "counts", "extra"):
            for key, value in probe["totals"][part].items():
                merged[part][key] = merged[part].get(key, 0) + value
        merged["cache"] = [a + b for a, b in zip(merged["cache"], probe["cache"])]
        merged["import_s"].append(probe["import_s"])
    return merged


if __name__ == "__main__":
    sys.exit(main())
