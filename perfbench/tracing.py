"""Spans around calls into querydag's layers, recorded from outside.

`install` replaces, for the duration of a traced run, the module or class
attribute that each caller looks up (for example `querydag.solver.
build_compressed`, which `decide_compress` reads at call time) with a wrapper
that records a span: id, name, parent span, start and end.  Spans are kept in
memory and summarised per layer; nothing under `src/` is changed.  A target
that no longer exists is reported as absent and the run goes on.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

# (layer, dotted target under the querydag package, what to count).
# A layer may wrap several targets; "count" names an extra count per call.
TARGETS = (
    ("querygraph.parse", "querygraph.parse_dag", None),
    ("separator.septree", "solver.build_separator_tree", None),
    ("compress.build", "solver.build_compressed", "gstar_nodes"),
    ("compress.expand", "compress.expand_to_gprime", "gprime_nodes"),
    ("compress.conductor", "compress.add_conductor", None),
    ("compress.merge", "compress.merge", None),
    ("compress.evaluate", "compress.evaluate_compressed", None),
    ("compress.compute_output", "compress.compute_output", None),
    ("compress.compute_output", "solver.compute_output", None),
    ("compress.check", "solver.is_correct_compressed", None),
    ("compress.lift", "solver.lift_query_string", None),
    ("weighting.omega", "compress.omega_weights", None),
    ("weighting.rho", "solver.rho_weights", None),
    ("weighting.admissible", "weighting.check_admissible", None),
    ("oracle.sat", "oracle.sat_exists_proof", "sat_distinct"),
    ("oracle.threshold", "oracle.EvaluationBackend.decide", None),
    ("oracle.record", "oracle.OracleStats.record_proof", None),
    ("oracle.record", "oracle.OracleStats.record_threshold", None),
    ("solver.search", "solver.binary_search_T", None),
    ("solver.extract", "solver.extract_query_string", None),
    ("solver.maxt", "solver.max_t_for_assignment", None),
)


class Tracer:
    """In-memory spans of the current solve; cleared by `reset`."""

    def __init__(self):
        self.reset()

    def reset(self):
        self.spans = []  # [id, name, parent id, start, end]
        self.stack = []
        self.counts = defaultdict(int)
        self.distinct = set()

    def span(self, name, fn, args, kwargs):
        parent = self.stack[-1] if self.stack else None
        record = [len(self.spans), name, parent, time.perf_counter(), None]
        self.spans.append(record)
        self.stack.append(record[0])
        try:
            return fn(*args, **kwargs)
        finally:
            record[4] = time.perf_counter()
            self.stack.pop()


def summarize(spans):
    """Per layer: calls, total ms and self ms (total minus child spans)."""
    child_ms = defaultdict(float)
    for _, _, parent, start, end in spans:
        if parent is not None:
            child_ms[parent] += (end - start) * 1000
    out = {}
    for sid, name, _, start, end in spans:
        row = out.setdefault(name, {"calls": 0, "ms": 0.0, "self_ms": 0.0})
        ms = (end - start) * 1000
        row["calls"] += 1
        row["ms"] += ms
        row["self_ms"] += ms - child_ms[sid]
    return out


def _wrapper(tracer, layer, fn, count):
    if count == "gstar_nodes":
        def wrapped(*args, **kwargs):
            result = tracer.span(layer, fn, args, kwargs)
            tracer.counts["compress.gstar_nodes"] += len(result[0].nodes)
            return result
    elif count == "gprime_nodes":
        def wrapped(*args, **kwargs):
            result = tracer.span(layer, fn, args, kwargs)
            tracer.counts["compress.gprime_nodes"] += len(result.nodes)
            return result
    elif count == "sat_distinct":
        def wrapped(node, input_bits):
            tracer.distinct.add((node.id, str(input_bits)))
            return tracer.span(layer, fn, (node, input_bits), {})
    else:
        def wrapped(*args, **kwargs):
            return tracer.span(layer, fn, args, kwargs)
    return functools.wraps(fn)(wrapped)


def install(package, tracer):
    """Wrap every target that exists; return (undo, absent target names)."""
    undo = []
    absent = []
    for layer, target, count in TARGETS:
        *path, attr = target.split(".")
        owner = package
        try:
            for part in path:
                owner = getattr(owner, part)
            fn = getattr(owner, attr)
        except AttributeError:
            absent.append(target)
            continue
        setattr(owner, attr, _wrapper(tracer, layer, fn, count))
        undo.append((owner, attr, fn))

    def uninstall():
        for owner, attr, fn in reversed(undo):
            setattr(owner, attr, fn)

    return uninstall, absent
