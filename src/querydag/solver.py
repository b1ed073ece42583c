"""Binary search and decision pipelines over the scaled objective.

The objective, oracle.max_t_for_assignment, is scaled by 2 so the NP
midpoint gamma = 1/2 disappears: a string x scores sum over nodes of
w * (2 * x_i * sat_i + (1 - x_i)), always an integer.  Binary search over
[0, 2W] recovers the exact maximum 2T with ceil(log2(2W + 1)) threshold
queries; one more pinned query at 2T decides the instance, because at that
threshold only the correct query string is available.  A solve binds its
weighted graph and proof oracle to the threshold backend once
(oracle.threshold_oracle), so each of these queries passes only its
threshold and pins.
"""

from __future__ import annotations

import json

from .compress import build_compressed, lift_query_string
from .errors import PipelineError
from .oracle import EvaluationBackend, ProofOracle, entry_doc, threshold_oracle

# The benchmark tracer wraps solver.max_t_for_assignment by name, so the
# objective, which lives in oracle, is imported back here until ROADMAP item
# 1a retargets the tracer.
from .oracle import max_t_for_assignment  # noqa: F401
from .querygraph import Record, decimal_str, evaluate, is_correct_query_string
from .separator import build_separator_tree
from .weighting import rho_weights, total_weight, weigh


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

    def to_doc(self, transcript=True):
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
        if transcript and self.stats.transcript is not None:
            doc["transcript"] = self.stats.to_doc()
        return doc

    def serialize(self):
        # Without a transcript, one json.dumps: the generator chunks() would
        # add 368 B to a 12 KB solve peak (sat-layered-depth-witness).
        if self.stats.transcript is None:
            return json.dumps(self.to_doc(), sort_keys=True) + "\n"
        return "".join(self.chunks())

    def chunks(self, indent=None):
        """json.dumps(self.to_doc(), sort_keys=True, indent=indent) plus a
        newline, in pieces: the transcript, which holds every pinned query's
        pins, one entry at a time, so writing them out holds one at once."""
        entries = self.stats.transcript
        doc = self.to_doc(transcript=False)
        if entries is None:
            yield json.dumps(doc, sort_keys=True, indent=indent) + "\n"
            return
        doc["transcript"] = []
        head, _, tail = json.dumps(doc, sort_keys=True, indent=indent).partition('"transcript": []')
        # Indented, an entry's lines sit two levels deep, the closing bracket one.
        pad = "" if indent is None else "\n" + " " * 2 * indent
        yield head + '"transcript": ['
        for i, entry in enumerate(entries):
            text = json.dumps(entry_doc(entry), sort_keys=True, indent=indent)
            yield ("," + (pad or " ") if i else pad) + text.replace("\n", pad)
        yield (pad[: indent + 1] if pad and entries else "") + "]" + tail + "\n"


def search_budget(weights):
    """Threshold queries needed for one exact binary search: ceil(log2(2W+1))."""
    return (2 * total_weight(weights)).bit_length()


def binary_search_T(ask, bits):
    """Exact maximum 2T by bitwise descent over [0, 2^bits - 1], which
    covers [0, 2W] when bits is search_budget(weights).

    `ask` is the solve's threshold query (oracle.threshold_oracle).  Every
    probe is a real threshold query without pins, so the count is exactly
    `bits`; probes beyond 2W simply answer no.
    """
    result = 0
    for bit in range(bits - 1, -1, -1):
        candidate = result | (1 << bit)
        if ask(candidate):
            result = candidate
    return result


def extract_query_string(ask, dag, t_tilde):
    """Recover the string attaining 2t >= t_tilde, one pinned query per node.

    Bits are pinned in dag.topo_order(); a prefix extends to the maximizer as
    long as every pinned bit matches it, and at threshold 2T the maximizer is
    unique and correct.  Every query is handed the one pins dict, holding the
    bits fixed so far and the next node at 1, one entry longer each time, as
    the pins contract of threshold_oracle allows, so a transcript's memory
    stays linear.
    """
    pins = {}
    for nid in dag.topo_order():
        pins[nid] = 1
        if not ask(t_tilde, pins):
            pins[nid] = 0
    # A copy, so a caller changing the string cannot rewrite the pins that
    # the backend and a transcript may still hold.
    return dict(pins)


def _decide(method, g, witness, backend, transcript):
    """Weighted graph for the method, bound once to the backend; binary
    search, one pinned query on its output; in witness mode one pinned query
    per node, checked, and pulled back to g when the graph was compressed.
    The oracle keeps a transcript only if `transcript` is set."""
    proof_oracle = ProofOracle(transcript)
    stats = proof_oracle.stats
    backend = backend if backend is not None else EvaluationBackend()
    if method == "compress":
        dag, weights = build_compressed(g, build_separator_tree(g))
    else:
        dag, weights = g, rho_weights(g)
    w_total = weigh(dag.weight_runs(weights))  # W, a run of equal weights at a time
    bits = (2 * w_total).bit_length()  # search_budget(weights)
    ask = threshold_oracle(dag, weights, proof_oracle, backend)
    t_tilde = binary_search_T(ask, bits)
    answer = ask(t_tilde, {dag.output: 1})
    used = stats.threshold_queries
    query_string = None
    if witness:
        query_string = extract_query_string(ask, dag, t_tilde)
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
        w_total=w_total,
        queries=used,
        budget=bits + 1,
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
