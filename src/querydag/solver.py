"""Binary search and decision pipelines over the scaled objective.

The objective, oracle.max_t_for_assignment, is scaled by 2 so the NP
midpoint gamma = 1/2 disappears: a string x scores sum over nodes of
w * (2 * x_i * sat_i + (1 - x_i)), always an integer.  Binary search over
[0, 2W] recovers the exact maximum 2T with ceil(log2(2W + 1)) threshold
queries; one more pinned query at 2T decides the instance, because at that
threshold only the correct query string is available.
"""

from __future__ import annotations

import json
from types import MappingProxyType

from .compress import build_compressed, lift_query_string
from .errors import PipelineError
from .oracle import EvaluationBackend, ProofOracle, threshold_query

# The benchmark tracer wraps solver.max_t_for_assignment by name, so the
# objective, which lives in oracle, is imported back here until ROADMAP item
# 1a retargets the tracer.
from .oracle import max_t_for_assignment  # noqa: F401
from .querygraph import Record, decimal_str, evaluate, is_correct_query_string
from .separator import build_separator_tree
from .weighting import rho_weights, total_weight


class ThresholdInstance(Record):
    """One threshold question: dag, weighting, scaled threshold, pinned bits.

    A slots record, not a tuple: it has no unpacking, indexing or
    `_replace`, and nothing writes to its fields after construction.

    Nothing copies the pins mapping: the backend that answered a query may
    compare later ones with it, and a transcript, when the solve keeps one,
    reads it again whenever it is rendered.  So, transcript or not, a
    mapping may change after its query only as follows; without a position
    it must not change at all.  A witness extraction hands every query the
    same dict and extends it between queries; such a query carries its
    `position` k: the pins are k + 1 entries, the last one the node this
    query pins at 1.  The dict is then only extended: its entry at k may be
    settled and entries added after it, but the k entries before it never
    change, and the dict is not cleared or reused.  A backend may then
    check only what is new since position k - 1, and a transcript rebuilds
    the query's pins from k.
    """

    __slots__ = _FIELDS = ("dag", "weights", "threshold", "pins", "position")

    def __init__(self, dag, weights, threshold, pins, position=None):
        self.dag = dag
        self.weights = weights
        self.threshold = threshold
        self.pins = pins
        self.position = position


# The pins of every binary-search probe: one read-only empty mapping shared
# by all of them, instead of a fresh dict per probe.
_NO_PINS = MappingProxyType({})


class SolveReport(Record):
    """Outcome of one decision pipeline, with exact query accounting.

    The proof queries are counted once, in `stats`, the oracle's own
    record; the document holds its transcript exactly when the solve kept
    one.
    """

    __slots__ = _FIELDS = (
        "answer", "method", "t_scaled", "w_total", "queries", "budget", "query_string", "stats"
    )

    def __init__(self, answer, method, t_scaled, w_total, queries, budget, query_string, stats):
        self.answer = answer
        self.method = method
        self.t_scaled = t_scaled  # 2T, or None for the direct method
        self.w_total = w_total
        self.queries = queries  # threshold queries spent on the decision itself
        self.budget = budget  # ceil(log2(2W+1)) + 1, or None for the direct method
        self.query_string = query_string
        self.stats = stats  # the oracle's OracleStats

    def to_doc(self):
        doc = {
            "answer": self.answer,
            "method": self.method,
            "T_scaled": None if self.t_scaled is None else decimal_str(self.t_scaled),
            "W": None if self.w_total is None else decimal_str(self.w_total),
            "queries": self.queries,
            "budget": self.budget,
            "proof_queries": self.stats.proof_queries,
            "witness": None
            if self.query_string is None
            else {str(k): v for k, v in sorted(self.query_string.items())},
        }
        if self.stats.transcript is not None:
            doc["transcript"] = self.stats.to_doc()
        return doc

    def serialize(self):
        return json.dumps(self.to_doc(), sort_keys=True) + "\n"


def search_budget(weights):
    """Threshold queries needed for one exact binary search: ceil(log2(2W+1))."""
    return (2 * total_weight(weights)).bit_length()


def binary_search_T(dag, weights, proof_oracle, backend):
    """Exact maximum 2T by bitwise descent over [0, 2^B - 1] covering [0, 2W].

    Every probe is a real threshold query, so the count is exactly B; probes
    beyond 2W simply answer no.
    """
    bits = search_budget(weights)
    result = 0
    for bit in range(bits - 1, -1, -1):
        candidate = result | (1 << bit)
        inst = ThresholdInstance(dag, weights, candidate, _NO_PINS)
        if threshold_query(inst, proof_oracle, backend):
            result = candidate
    return result


def extract_query_string(dag, weights, t_tilde, proof_oracle, backend, order):
    """Recover the string attaining 2t >= t_tilde, one pinned query per node.

    Bits are pinned in the given order; a prefix extends to the maximizer as
    long as every pinned bit matches it, and at threshold 2T the maximizer is
    unique and correct.  Every query is handed the one pins dict, holding the
    bits fixed so far and the next node at 1, and its position in it, as
    ThresholdInstance allows: the evaluation backend checks only the newest
    pins, and a transcript, if the solve keeps one, records that position
    rather than a copy, so its memory stays linear.
    """
    pins = {}
    for k, nid in enumerate(order):
        pins[nid] = 1
        inst = ThresholdInstance(dag, weights, t_tilde, pins, k)
        if not threshold_query(inst, proof_oracle, backend):
            pins[nid] = 0
    # A copy, so a caller changing the string cannot rewrite the pins that
    # the backend and a transcript may still hold.
    return dict(pins)


def _decide(method, g, witness, backend, transcript):
    """Weighted graph for the method, binary search, one pinned query on its
    output; in witness mode one pinned query per node, checked, and pulled
    back to g when the graph was compressed.  The oracle keeps a transcript
    only if `transcript` is set."""
    proof_oracle = ProofOracle(transcript)
    stats = proof_oracle.stats
    backend = backend if backend is not None else EvaluationBackend()
    if method == "compress":
        dag, weights = build_compressed(g, build_separator_tree(g))
    else:
        dag, weights = g, rho_weights(g)
    t_tilde = binary_search_T(dag, weights, proof_oracle, backend)
    final = ThresholdInstance(dag, weights, t_tilde, {dag.output: 1})
    answer = threshold_query(final, proof_oracle, backend)
    used = stats.threshold_queries
    query_string = None
    if witness:
        query_string = extract_query_string(
            dag, weights, t_tilde, proof_oracle, backend, dag.topo_order()
        )
        if not is_correct_query_string(dag, query_string, proof_oracle):
            raise PipelineError("extracted query string is not correct")
        if dag is not g:
            query_string = lift_query_string(g, dag, query_string)
            if not is_correct_query_string(g, query_string, proof_oracle):
                raise PipelineError("lifted query string is not correct")
    return SolveReport(
        answer=1 if answer else 0,
        method=method,
        t_scaled=t_tilde,
        w_total=total_weight(weights),
        queries=used,
        budget=search_budget(weights) + 1,
        query_string=query_string,
        stats=stats,
    )


def decide_compress(g, witness=False, backend=None, transcript=False):
    """Full compression pipeline: separator tree, compressed graph, binary
    search, one pinned query on the conductor.

    Witness mode spends |V*| extra pinned queries (outside the budget) to
    recover the compressed query string, then lifts it back to g.  With
    `transcript` the report also keeps every oracle query in order.
    """
    return _decide("compress", g, witness, backend, transcript)


def decide_depth(g, witness=False, backend=None, transcript=False):
    """Bounded-depth pipeline: no graph transformation, the depth-based
    weighting directly on g, then the same search and final pinned query."""
    return _decide("depth", g, witness, backend, transcript)


def decide_direct(g, witness=False, transcript=False):
    """Baseline: straight evaluation, one proof query per node, no thresholds."""
    proof_oracle = ProofOracle(transcript)
    bits = evaluate(g, proof_oracle)
    return SolveReport(
        answer=bits[g.output],
        method="direct",
        t_scaled=None,
        w_total=None,
        queries=0,
        budget=None,
        query_string=bits if witness else None,
        stats=proof_oracle.stats,
    )
