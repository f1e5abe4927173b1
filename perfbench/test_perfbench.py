"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

import hashlib
import json
import signal
import sys
from time import perf_counter

import pytest

import hostspeed
import run
import workloads
from tracing import SPAN_NAMES, Tracer, self_times

sys.path.insert(0, str(run.ROOT / "src"))


def test_generator_is_deterministic_per_seed():
    for name in workloads.WORKLOADS:
        for seed in (workloads.DEFAULT_SEED, 7, 123456):
            assert workloads.build(name, seed) == workloads.build(name, seed)
    assert workloads.build("corpus-sweep", 7) != workloads.build("corpus-sweep", 8)


def test_default_corpus_is_the_test_suite_corpus():
    fields = workloads.corpus_fields()
    assert fields[:3] == workloads.PINNED_FIELDS
    assert len(set(fields)) == 60
    assert all(2 <= f[0] <= 60 and max(map(abs, f[1:])) <= 8 for f in fields)
    # digest of make_corpus() in tests/conftest.py, recorded when this was written
    assert hashlib.sha256(repr(fields).encode()).hexdigest() == (
        "e6898821482bd04606cee1c0fcf6af4a324d6c88750370f9f33b353d04aff1b8")


def test_other_seeds_present_the_same_fields():
    base = workloads.build("prime-screen")
    for seed in (1, 99):
        moved = workloads.build("prime-screen", seed)
        assert moved.fields != base.fields
        for a, b in zip(moved.fields, base.fields):
            assert a[0] == b[0] and a[2] == b[2]     # D and alpha1 stay
            assert workloads.dtilde(a) == workloads.dtilde(b) is not None


def test_self_time_subtracts_the_union_of_children():
    # parent [0, 10]; children [1, 3] and [2, 4] overlap (union 3 s);
    # [9, 12] sticks out of the parent (1 s inside); [1.5, 2.5] is a
    # grandchild and only reduces its own parent
    starts = [0.0, 1.0, 2.0, 9.0, 1.5]
    ends = [10.0, 3.0, 4.0, 12.0, 2.5]
    parents = [-1, 0, 0, 0, 1]
    assert self_times(starts, ends, parents) == pytest.approx([6.0, 1.0, 2.0, 3.0, 1.0])


def test_tracer_records_spans_and_restores_the_library():
    import cmintersect
    from cmintersect import cm_fields, embedding_counts, integers, intersection

    originals = (intersection.hilbert_symbol, integers.hilbert_symbol,
                 cmintersect.intersection_number, integers.kronecker)
    tracer = Tracer()
    tracer.install()
    try:
        assert integers.hilbert_symbol is not originals[1]
        tracer.query = 0
        field = cmintersect.validate(cm_fields.CMFieldParams(5, 0, 1, 1, 1))
        report = cmintersect.intersection_number(field, 2)
    finally:
        tracer.restore()
    assert (intersection.hilbert_symbol, integers.hilbert_symbol,
            cmintersect.intersection_number, integers.kronecker) == originals
    assert embedding_counts.scrJ.__module__ == "cmintersect.embedding_counts"
    assert report.value == 1
    totals = tracer.layer_totals()
    assert totals["calls"]["intersection.intersection_number"] == 1
    assert totals["calls"]["embedding_counts.scrJ"] == len(report.rows)
    assert totals["calls"]["integers.hilbert_symbol"] > 0
    assert totals["counts"]["integers.kronecker"] > 0
    assert all(t >= 0 for t in totals["self_s"].values())
    rows = list(tracer.rows())
    assert {r[0] for r in rows} <= set(SPAN_NAMES)
    top = [r for r in rows if r[0] == "intersection.intersection_number"][0]
    assert top[3] == -1 and top[4] == 0
    assert sum(totals["self_s"].values()) == pytest.approx(
        sum(r[2] - r[1] for r in rows if r[3] == -1))


def test_corrupted_reference_answer_counts_as_failed():
    reference = json.loads(run.REFERENCE.read_text())["corpus-sweep"]
    complete = run.Pass(outputs=dict(enumerate(reference)))
    assert run.count_failed(complete, reference) == 0
    corrupted = json.loads(json.dumps(reference))
    corrupted[17]["value"][0] += 1
    assert run.count_failed(complete, corrupted) == 1
    del complete.outputs[3]
    assert run.count_failed(complete, reference) == 1


def test_pass_over_its_limit_counts_unfinished_queries_as_failed():
    reference = json.loads(run.REFERENCE.read_text())["wide-field"]
    p = run.run_worker("wide-field", 0, "run", limit=2.0)
    assert p.timed_out and p.done is None
    assert run.count_failed(p, reference) == len(reference)
    metrics, samples = run.end_to_end([p], [p], len(reference))
    assert p.wall >= 2.0 and p.setup_cal and p.scale == 1.0   # no query line came back
    assert metrics["query_p90_s"][0] == pytest.approx(p.wall)
    assert metrics["setup_s"][0] == pytest.approx(p.setup_s * p.setup_scale)
    assert samples == {"passes": 1, "queries": 2, "finished_per_pass": [0], "setups": 1}


def test_harrell_davis_percentiles():
    assert run.beta_cdf(2.7, 0.3, 0.5) == pytest.approx(0.0343864927129172, rel=1e-9)
    assert run.beta_cdf(110.7, 12.3, 0.9) == pytest.approx(0.4679793786422737, rel=1e-9)
    assert run.percentile(list(range(1, 102)), 0.5) == pytest.approx(51)
    assert run.percentile([3.0] * 7, 0.9) == pytest.approx(3.0)
    # between the two order statistics, nearer the upper one
    assert run.percentile([2.0, 12.0], 0.9) == pytest.approx(11.656135, rel=1e-6)
    # swapping the two queries around rank 0.9 n moves it by less than the gap
    fast = [1.0] * 89 + [2.0, 3.0] + [10.0] * 9
    slow = [1.0] * 89 + [3.0, 3.0] + [10.0] * 9
    assert 0 < run.percentile(slow, 0.9) - run.percentile(fast, 0.9) < 0.5


def test_host_speed_samples_are_left_out_of_the_time():
    assert hostspeed.scale([]) == 1.0
    assert hostspeed.scale([0.001, 0.006, 0.002]) == pytest.approx(
        hostspeed.CAL_REF_S / 0.002)
    sampler = hostspeed.Sampler()
    start, wall = sampler.now(), perf_counter()
    sampler.start()
    try:
        while perf_counter() - wall < 0.35:
            pass
    finally:
        sampler.stop()
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
    taken = sampler.take()
    assert len(taken) >= 2 and sampler.samples == []
    spent = perf_counter() - wall - (sampler.now() - start)
    assert spent == pytest.approx(sampler.spent, abs=1e-3)
    assert spent >= sum(taken)
