"""Spans for traced runs, and the oracles each job queries.

Jobs call into combinlab only through ``tr.call(span_name, fn, *args)``
and create their oracles through ``tr``.  An untraced run passes a
``NullTracer``: calls go straight through and oracles are the public
classes.  A traced run passes a ``Tracer``: every call becomes a span
(name, start, end, parent, job id) kept in memory, and oracles are
timing subclasses of the public classes.  Oracle queries are too many
and too short for a span each, so their time and count are summed onto
the span open when they run.
"""

from __future__ import annotations

import json
import time
from collections import Counter

from combinlab.oracles import (
    AdversaryMerge,
    AdversarySetEquality,
    CostedOracle,
    CountingComparator,
)
from combinlab.search_games import BalanceOracle

clock = time.perf_counter_ns


class SequenceProbe(CostedOracle):
    """Counted value probes x_i of a fixed sequence, for bitonic_max, which
    takes a plain probe function and has no oracle class of its own."""

    def __init__(self, seq):
        super().__init__()
        self.seq = seq

    def probe(self, i):
        self.counter.tick()
        return self.seq[i - 1]


# The query method of each oracle class a job may create.
QUERY_METHOD = {
    CountingComparator: "less",
    BalanceOracle: "weigh",
    AdversaryMerge: "less",
    AdversarySetEquality: "probe",
    SequenceProbe: "probe",
}


class NullTracer:
    def call(self, name, fn, *args):
        return fn(*args)

    def begin_job(self, job_id):
        pass

    def end_job(self):
        pass

    def oracle(self, cls, *args):
        return cls(*args)


# Open-span frame layout.
_ID, _NAME, _START, _CHILD, _ORACLE_NS, _ORACLE_N = range(6)


class Tracer:
    def __init__(self):
        # Finished spans: (id, name, start_ns, end_ns, parent_id, job_id,
        # child_ns, oracle_ns, oracle_queries).  child_ns includes oracle_ns.
        self.spans: list[tuple] = []
        self.failed: Counter = Counter()
        self._stack: list[list] = []
        self._next_id = 0
        self._job = None

    def _open(self, name):
        self._next_id += 1
        self._stack.append([self._next_id, name, clock(), 0, 0, 0])

    def _close(self):
        end = clock()
        f = self._stack.pop()
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[_CHILD] += end - f[_START]
        self.spans.append(
            (f[_ID], f[_NAME], f[_START], end, parent[_ID] if parent else None,
             self._job, f[_CHILD], f[_ORACLE_NS], f[_ORACLE_N])
        )

    def begin_job(self, job_id):
        self._job = job_id
        self._open("job")

    def end_job(self):
        self._close()
        self._job = None

    def aside(self, job_id, name, fn, *args):
        """A span for job `job_id` outside its job span, so that it is not
        part of the job's time."""
        self._job = job_id
        try:
            return self.call(name, fn, *args)
        finally:
            self._job = None

    def call(self, name, fn, *args):
        self._open(name)
        try:
            return fn(*args)
        except Exception:
            self.failed[name.split(".")[0]] += 1
            raise
        finally:
            self._close()

    def charge(self, ns):
        top = self._stack[-1]
        top[_CHILD] += ns
        top[_ORACLE_NS] += ns
        top[_ORACLE_N] += 1

    def oracle_failed(self):
        self.failed["oracles"] += 1

    def oracle(self, cls, *args):
        return _TIMED[cls](*args, self)

    def dump(self, path):
        fields = ("id", "name", "start_ns", "end_ns", "parent", "job",
                  "child_ns", "oracle_ns", "oracle_queries")
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(dict(zip(fields, s))) + "\n")


def _timed(base, method):
    """Subclass of an oracle class whose `method` charges its wall time to
    the tracer's open span."""
    inner = getattr(base, method)

    def timed(self, *args):
        t0 = clock()
        try:
            return inner(self, *args)
        except Exception:
            self._tracer.oracle_failed()
            raise
        finally:
            self._tracer.charge(clock() - t0)

    def init(self, *args):
        *own, tracer = args
        base.__init__(self, *own)
        self._tracer = tracer

    return type("Timed" + base.__name__, (base,), {"__init__": init, method: timed})


_TIMED = {cls: _timed(cls, method) for cls, method in QUERY_METHOD.items()}


def layer_totals(spans, jobs) -> dict:
    """Per-span-name totals over the spans of the given job ids.

    Returns {"time": {name: ns}, "self": {layer: ns}, "calls": {layer: n},
    "busy": {layer: ns}, "oracle_ns", "job_ns", "covered_ns"}.
    """
    time_of: Counter = Counter()
    self_of: Counter = Counter()
    busy: Counter = Counter()
    calls: Counter = Counter()
    oracle_ns = job_ns = covered_ns = 0
    for _id, name, start, end, _parent, job, child, o_ns, _o_n in spans:
        if job not in jobs:
            continue
        dur = end - start
        oracle_ns += o_ns
        if name == "job":
            job_ns += dur
            covered_ns += child
            continue
        layer = name.split(".")[0]
        time_of[name] += dur
        busy[layer] += dur
        self_of[layer] += dur - child
        calls[layer] += 1
    return {"time": time_of, "self": self_of, "busy": busy, "calls": calls,
            "oracle_ns": oracle_ns, "job_ns": job_ns, "covered_ns": covered_ns}
