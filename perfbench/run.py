"""cmintersect benchmark: one workload, end-to-end or traced per-layer metrics.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; the library is imported from its `src/`.

Workloads (inputs from `workloads.py`, reference answers in
`reference.json`):

- corpus-sweep: `intersection_number` on the 60 corpus fields at the 15
  primes <= 50, 900 queries.  Many small queries; the Hilbert symbol
  dominates and a few branch-heavy fields set the tail.
- wide-field: `intersection_number` on field E3 at ell = 2 and ell = 7.
  One large field: branch enumeration, root and ideal counts do real work.
  Not in BENCHMARK.json: one pass takes about 15 s, and with it the
  gated runs could not be long enough to give prime-screen the passes
  its query_p90_s needs to be steady; run it by name for a before/after
  on the large-field path.
- prime-screen: `enumerate_candidate_primes` on the corpus plus E3,
  61 queries.  Heaviest user of `factorize`; never reaches `enumerate_fu`,
  `frakI`, `scrJ` or the ideal counts.
- cli-cold: 102 fresh `python -m cmintersect` processes on the worked
  example and the pinned D = 13 field.  Interpreter start, import,
  argparse and JSON emission dominate.

Every pass runs in a fresh worker process (`worker.py`) with a wall-clock
limit; queries it did not finish count as failed.  Each query is one
library call or one CLI process, sent after the previous one returned
(closed loop, one client, single-threaded).  A run first times
`SETUP_PROBES` set-ups in fresh processes, then repeats passes while the
next one is expected to end within `--seconds`.

With `--trace 0` it reports:
  run_s        wall time of one pass's query list, after set-up;
               median over passes
  query_p50_s  per-query wall time, 50th percentile of every query of
               every pass (Harrell-Davis estimate, see `percentile`)
  query_p90_s  the same, 90th percentile
  setup_s      import (for cli-cold: `import cmintersect.cli`) plus
               `validate` of every workload field, in a fresh process;
               median over the set-up probes and the passes
  peak_rss_mb  ru_maxrss of the worker (for cli-cold: the largest CLI
               process) at the end of the pass; median over passes
setup_s and the library workloads' query times are in reference-host
seconds: the wall time measured in a worker, times `hostspeed.scale` of
the host-speed samples that worker took beside the measured work
(`hostspeed.py`): after set-up for setup_s, during the pass for the
query times.  On a shared host the speed of a core drifts by about 20%
within a minute, and most of that drift cancels in the scaled times.
cli-cold's query times stay wall times (see `worker.py`).  The unscaled
metrics and the factors are in the record.
query_p50_s and failed_frac (failed / attempted) are printed and recorded
but are not in the result line: the first is too noisy to gate on (see
PRINTED_ONLY), the second is 0 at a correct commit.

With `--trace 1` it runs one untraced and one traced pass, neither of
them sampling host speed, and reports the per-layer calls, self time
(unscaled) and ratios of the traced pass (0 for a layer the workload
does not reach), plus `trace.overhead_s` = traced run_s - untraced run_s.
Spans go to `perfbench/out/`.

Every output is compared with the reference answer of its query; a
query that raised, timed out or differs counts as failed.  The last line
of stdout is one JSON object: correct, attempted, failed, metrics.  A
record with the machine, seed, sample counts and output digest is written
to `perfbench/out/`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import hostspeed
import workloads
from tracing import COUNT_NAMES, SPAN_NAMES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"
WORKER = HERE / "worker.py"

SETUP_PROBES = 4   # plus the set-up of every pass
# Measured and recorded but left out of the result line that regressions
# are judged on: across runs on a shared 2-vCPU VM its IQR/median was up
# to twice that of query_p90_s.
PRINTED_ONLY = ("query_p50_s",)
RUN_LIMIT_S = 150  # every pass ends by then, so a run exits within 180 s


@dataclass
class Pass:
    """What one worker process reported."""

    setup_s: float | None = None
    times: list = field(default_factory=list)          # seconds per finished query
    outputs: dict = field(default_factory=dict)        # query index -> output
    errors: dict = field(default_factory=dict)         # query index -> traceback
    done: dict | None = None
    timed_out: bool = False
    wall: float = 0.0                                  # seconds, process included
    stderr: str = ""
    setup_cal: list = field(default_factory=list)      # host-speed samples after set-up
    cal: list = field(default_factory=list)            # ... while the queries ran

    @property
    def setup_scale(self) -> float:
        return hostspeed.scale(self.setup_cal)

    @property
    def scale(self) -> float:
        return hostspeed.scale(self.cal)


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(workload: str, seed: int, mode: str, limit: float,
               spans: Path | None = None) -> Pass:
    """Start worker.py, wait at most `limit` seconds, parse what it wrote."""
    cmd = [sys.executable, str(WORKER), "--workload", workload,
           "--seed", str(seed), "--mode", mode]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    result = Pass()
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(limit, 1.0))
    except subprocess.TimeoutExpired:
        result.timed_out = True
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    result.wall = perf_counter() - t0
    result.stderr = err.decode(errors="replace")
    for line in out.decode().splitlines():
        record = json.loads(line)
        result.cal += record.get("cal", [])
        if "setup_s" in record:
            result.setup_s = record["setup_s"]
            result.setup_cal = record["setup_cal"]
        elif "q" in record and "error" in record:
            result.errors[record["q"]] = record["error"]
        elif "q" in record:
            result.times.append(record["dt"])
            result.outputs[record["q"]] = record["out"]
        elif record.get("done"):
            result.done = record
    return result


def count_failed(p: Pass, reference: list) -> int:
    """Queries that raised, did not finish, or differ from the reference."""
    return sum(1 for i, expected in enumerate(reference)
               if p.outputs.get(i) != expected)


def outputs_digest(p: Pass, n: int) -> str:
    canon = json.dumps([p.outputs.get(i) for i in range(n)], sort_keys=True,
                       separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def _beta_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta function (modified Lentz)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 10_000):
        for num in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-13:
            break
    return h


def beta_cdf(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_fraction(a, b, x) / a
    return 1.0 - front * _beta_fraction(b, a, 1.0 - x) / b


def percentile(values: list, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile.

    A mean of all order statistics, weighted by a beta distribution
    centred on rank q*n.  Where a few queries of very different length sit
    around rank q*n, host noise that swaps two of them moves a single order
    statistic (nearest rank) by the gap between them; it moves this
    estimate by a fraction of it.
    """
    ordered = sorted(values)
    n = len(ordered)
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    cdf = [beta_cdf(a, b, i / n) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * v for i, v in enumerate(ordered))


def environment(seed: int) -> dict:
    commit = None
    try:
        top, head = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                                   cwd=ROOT, timeout=10, capture_output=True,
                                   text=True).stdout.split()
        if Path(top).resolve() == ROOT:  # not some repository around the checkout
            commit = head
    except (OSError, subprocess.SubprocessError, ValueError):
        pass
    return {"nproc": os.cpu_count(), "cpus_allowed": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "platform": platform.platform(),
            "commit": commit, "seed": seed}


def end_to_end(passes: list, setups: list, n_queries: int,
               scaled: bool = True) -> tuple[dict, dict]:
    """Metrics and the sample count behind each.

    run_s and peak_rss_mb are medians over passes; the query percentiles
    pool every query of every pass.  A pass killed at its limit counts its
    wall time as run_s, and each query it did not finish as taking that long.
    Times are scaled by each worker's host-speed factors unless `scaled`
    is false.  `setups` are the Pass objects that reported a set-up time.
    """
    def k(p):
        return p.scale if scaled else 1.0

    def k_setup(p):
        return p.setup_scale if scaled else 1.0

    def run_s(p):
        return k(p) * (p.done["run_s"] if p.done else p.wall)

    def rss(p):
        # a killed worker reports nothing: take the largest of all workers
        if p.done:
            return p.done["peak_rss_mb"]
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024

    times = [k(p) * t for p in passes
             for t in p.times + [p.wall] * (n_queries - len(p.times))]
    metrics = {
        "run_s": (statistics.median(map(run_s, passes)), "s"),
        "query_p50_s": (percentile(times, 0.5), "s"),
        "query_p90_s": (percentile(times, 0.9), "s"),
        "setup_s": (statistics.median(k_setup(p) * p.setup_s for p in setups), "s"),
        "peak_rss_mb": (statistics.median(map(rss, passes)), "MB"),
    }
    samples = {"passes": len(passes), "queries": len(times),
               "finished_per_pass": [len(p.times) for p in passes],
               "setups": len(setups)}
    return metrics, samples


def per_layer(layers: dict, overhead_s: float) -> dict:
    calls, self_s = layers["calls"], layers["self_s"]
    extra, counts = layers["extra"], layers["counts"]
    metrics = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.calls"] = (calls.get(name, 0), "count")
        metrics[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
    for name in COUNT_NAMES:
        metrics[f"{name}.calls"] = (counts.get(name, 0), "count")
    hits, misses = layers["cache"]
    scrj_calls = calls.get("embedding_counts.scrJ", 0)
    metrics.update({
        "integers.factorize.hit_ratio": (hits / (hits + misses) if hits + misses else 0.0,
                                         "ratio"),
        "cm_fields.enumerate_n.branches": (extra.get("branches", 0), "count"),
        "cm_fields.enumerate_fu.yielded": (extra.get("yielded", 0), "count"),
        "embedding_counts.scrJ.zero_ratio": (
            extra.get("vanished", 0) / scrj_calls if scrj_calls else 0.0, "ratio"),
        "embedding_counts.scrJ.bound_ratio": (
            extra.get("bounded", 0) / scrj_calls if scrj_calls else 0.0, "ratio"),
        "cli.import_s": (statistics.median(layers["import_s"])
                         if layers["import_s"] else 0.0, "s"),
        "trace.overhead_s": (overhead_s, "s"),
    })
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "cmintersect" / "__init__.py").is_file():
        print(f"error: no cmintersect sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    reference = json.loads(REFERENCE.read_text())[args.workload]
    wl = workloads.build(args.workload, args.seed)
    if len(reference) != len(wl.queries):
        print("error: reference answers do not match the query list", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    start = perf_counter()
    deadline = start + args.seconds

    def remaining() -> float:
        return RUN_LIMIT_S - (perf_counter() - start)

    # the first process compiles the bytecode; users do not pay that per run
    run_worker(args.workload, args.seed, "setup", remaining())
    setups = [run_worker(args.workload, args.seed, "setup", remaining())
              for _ in range(0 if args.trace else SETUP_PROBES)]
    passes = []
    if args.trace:
        spans = OUT / f"spans-{tag}.tsv"
        passes.append(run_worker(args.workload, args.seed, "run", remaining()))
        passes.append(run_worker(args.workload, args.seed, "trace", remaining(), spans))
    else:
        while True:
            passes.append(run_worker(args.workload, args.seed, "run", remaining()))
            if passes[-1].done is None:
                break
            expected = statistics.median(p.wall for p in passes)
            if perf_counter() + expected > deadline:
                break

    for p in setups + passes:
        if p.stderr:
            print(p.stderr.rstrip(), file=sys.stderr)
        for i, error in sorted(p.errors.items()):
            print(f"query {i} raised:\n{error.rstrip()}", file=sys.stderr)
    setup_samples = [p for p in setups + passes if p.setup_s is not None]
    if not setup_samples or (args.trace and not all(p.done for p in passes)):
        print("error: the workers failed; see their errors above", file=sys.stderr)
        return 1

    attempted = len(reference) * len(passes)
    failed = sum(count_failed(p, reference) for p in passes)
    if args.trace:
        untraced, traced = passes
        metrics = per_layer(traced.done["layers"],
                            traced.done["run_s"] - untraced.done["run_s"])
        samples = {"passes": 1, "queries": len(reference)}
        raw = {}
    else:
        metrics, samples = end_to_end(passes, setup_samples, len(reference))
        raw = {k: {"value": v, "unit": u} for k, (v, u) in
               end_to_end(passes, setup_samples, len(reference), scaled=False)[0].items()}
        samples["host_scale"] = [p.scale for p in passes]
        samples["host_samples"] = [len(p.cal) for p in passes]
        samples["setup_host_scale"] = [p.setup_scale for p in setup_samples]

    record = {
        "workload": args.workload, "trace": args.trace, "seconds": args.seconds,
        "environment": environment(args.seed), "samples": samples,
        "attempted": attempted, "failed": failed,
        "failed_frac": failed / attempted,
        "outputs_sha256": outputs_digest(passes[0], len(reference)),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "unscaled_metrics": raw,
    }
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=2) + "\n")

    env = record["environment"]
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"nproc={env['nproc']} python={env['python']} commit={env['commit']}")
    print(f"samples: {json.dumps(samples)}")
    for name, (value, unit) in metrics.items():
        unscaled = record["unscaled_metrics"].get(name)
        note = f" (unscaled {unscaled['value']:.6g})" if unscaled and unit == "s" else ""
        print(f"{name} = {value:.6g} {unit}{note}")
    print(f"failed_frac = {record['failed_frac']:.6g} ({failed} of {attempted})")
    print(f"outputs_sha256 = {record['outputs_sha256']}")
    result = {k: v for k, v in record["metrics"].items() if k not in PRINTED_ONLY}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
