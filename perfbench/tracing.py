"""Per-layer spans recorded from outside the library.

`Tracer.install` rebinds each listed public function, in every loaded
`cmintersect` module that binds it (the defining module included, so
internal calls count too), to a wrapper that records a span: name,
start, end, parent span and query id.  `Tracer.restore` puts the
originals back.  Spans stay in flat arrays in memory until `write`.

A layer's self time is its span's duration minus the part of that
interval covered by its direct child spans (`self_times`).
"""

from __future__ import annotations

import sys
from array import array
from collections import defaultdict
from time import perf_counter

# module -> public functions that get a span
SPANNED = {
    "integers": ("hilbert_symbol", "factorize"),
    "cm_fields": ("validate", "enumerate_n", "enumerate_fu"),
    "local_roots": ("frakI",),
    "quadratic_orders": ("discriminant_of", "count_invertible_ideals"),
    "embedding_counts": ("build_query", "scrJ", "vanishing_test"),
    "intersection": ("intersection_number", "enumerate_candidate_primes"),
    "cli": ("main",),
}
# module -> functions whose calls are only counted: too small and too
# frequent for a span each
COUNTED = {"integers": ("kronecker",)}

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in SPANNED.items() for fn in fns)
COUNT_NAMES = tuple(f"{mod}.{fn}" for mod, fns in COUNTED.items() for fn in fns)

# span name -> (extra counter, what of the result it adds)
EXTRAS = {
    "cm_fields.enumerate_n": ("branches", len),
    "cm_fields.enumerate_fu": ("yielded", len),
    "embedding_counts.vanishing_test": ("vanished", bool),
    "embedding_counts.scrJ": ("bounded", lambda r: r.exactness != "exact"),
}


def self_times(starts, ends, parents) -> list[float]:
    """Duration of each span minus the union of its children, clipped to it."""
    children = defaultdict(list)
    for i, p in enumerate(parents):
        if p >= 0:
            children[p].append(i)
    out = [e - s for s, e in zip(starts, ends)]
    for p, kids in children.items():
        lo, hi = starts[p], ends[p]
        covered, reach = 0.0, lo
        for c in sorted(kids, key=starts.__getitem__):
            s, e = max(starts[c], reach), min(ends[c], hi)
            if e > s:
                covered += e - s
                reach = e
        out[p] -= covered
    return out


class Tracer:
    def __init__(self):
        self.query = -1
        self.names = array("B")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("l")
        self.queries = array("l")
        self.counts = dict.fromkeys(COUNT_NAMES, 0)
        self.extra = {key: 0 for key, _ in EXTRAS.values()}
        self._stack = [-1]
        self._saved = []

    def _span(self, name: str, fn):
        nid = SPAN_NAMES.index(name)
        names, starts, ends = self.names, self.starts, self.ends
        parents, queries, stack = self.parents, self.queries, self._stack
        extra = self.extra
        key, measure = EXTRAS.get(name, (None, None))

        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            queries.append(self.query)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if key is not None:
                extra[key] += measure(result)
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Rebind every listed function in every loaded cmintersect module."""
        wrappers = {}
        for mod, fns in SPANNED.items():
            for fn_name in fns:
                name = f"{mod}.{fn_name}"
                original = _original(mod, fn_name)
                if original is not None:
                    wrappers[id(original)] = (original, self._span(name, original))
        for mod, fns in COUNTED.items():
            for fn_name in fns:
                original = _original(mod, fn_name)
                if original is not None:
                    wrappers[id(original)] = (original, self._counter(
                        f"{mod}.{fn_name}", original))
        for module in _loaded_modules():
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def restore(self) -> None:
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved.clear()

    def layer_totals(self) -> dict:
        """calls and self_s per spanned name, counts, and the extras."""
        selfs = self_times(self.starts, self.ends, self.parents)
        calls = dict.fromkeys(SPAN_NAMES, 0)
        self_s = dict.fromkeys(SPAN_NAMES, 0.0)
        for nid, t in zip(self.names, selfs):
            calls[SPAN_NAMES[nid]] += 1
            self_s[SPAN_NAMES[nid]] += t
        return {"calls": calls, "self_s": self_s,
                "counts": dict(self.counts), "extra": dict(self.extra)}

    def rows(self):
        """Spans as (name, start, end, parent, query) tuples."""
        for i in range(len(self.starts)):
            yield (SPAN_NAMES[self.names[i]], self.starts[i], self.ends[i],
                   self.parents[i], self.queries[i])

    def write(self, fh, offset: int = 0) -> int:
        """Append spans as tab-separated lines; parent ids shift by `offset`."""
        for name, start, end, parent, query in self.rows():
            parent = parent + offset if parent >= 0 else -1
            fh.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{query}\n")
        return len(self.starts)


def _loaded_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "cmintersect" or n.startswith("cmintersect."))]


def _original(mod: str, fn_name: str):
    module = sys.modules.get(f"cmintersect.{mod}")
    return None if module is None else getattr(module, fn_name)
