"""Data model, parsing, and reference evaluation of NP query graphs.

A query graph is a DAG whose nodes are SAT queries.  Each node reads one bit
per incoming edge (the answers of its parent queries, in `inputs` order), may
use private proof variables, and answers 1 exactly when some assignment of
the proof variables satisfies every clause.  The unique sink is the result
node; evaluating all queries in topological order and returning the sink's
bit decides the graph.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass

from .errors import ParseError, ValidationError

VERIFIER = "verifier"
CONDUCTOR = "conductor"

# An answer bit per node id.
QueryString = dict


@dataclass(frozen=True)
class QueryNode:
    """One query node: a CNF over input wires and private proof variables.

    Variables 1..indeg are the input wires (in `inputs` order); variables
    indeg+1..indeg+proof_var_count are the proof block.  A conductor node has
    no clauses and no proof variables; its semantics are procedural and live
    in the compress module.
    """

    id: int
    kind: str
    inputs: tuple
    proof_var_count: int
    clauses: tuple

    @property
    def var_count(self):
        return len(self.inputs) + self.proof_var_count


@dataclass(frozen=True)
class EvalTrace:
    """Result of one reference evaluation: order used, all bits, final answer."""

    order: tuple
    bits: dict
    answer: int


class QueryDag:
    """A validated query graph with a unique result node."""

    def __init__(self, nodes, output):
        self.nodes = tuple(nodes)
        self.output = output
        self.by_id = {}
        for node in self.nodes:
            if node.id in self.by_id:
                raise ValidationError(f"node {node.id}: duplicate id")
            self.by_id[node.id] = node
        children = {node.id: [] for node in self.nodes}
        for node in self.nodes:
            for parent in node.inputs:
                if parent not in self.by_id:
                    raise ValidationError(f"node {node.id}: dangling input {parent}")
                children[parent].append(node.id)
        self._children = {nid: tuple(sorted(kids)) for nid, kids in children.items()}
        _validate(self)

    def node_ids(self):
        return [node.id for node in self.nodes]

    def out_neighbors(self):
        return self._children

    def in_neighbors(self):
        return {node.id: node.inputs for node in self.nodes}

    def topo_order(self):
        return topological_order(self)

    def fixed_bits(self):
        """Every answer bit of a plain query graph is free."""
        return {}

    def forced_bit(self, nid, x, sat):
        """Answer of query `nid` when its input wires read their bits in x."""
        node = self.by_id[nid]
        z = "".join("1" if x[p] else "0" for p in node.inputs)
        return proof_bit(node, z, sat)

    def undirected_edges(self):
        """Edge set of the undirected skeleton, as (min, max) pairs."""
        edges = set()
        for node in self.nodes:
            for parent in node.inputs:
                edges.add((min(parent, node.id), max(parent, node.id)))
        return sorted(edges)

    def __repr__(self):
        return f"QueryDag(n={len(self.nodes)}, output={self.output})"


def _validate(g):
    if not g.nodes:
        raise ValidationError("graph has no nodes")
    for node in g.nodes:
        if node.kind not in (VERIFIER, CONDUCTOR):
            raise ValidationError(f"node {node.id}: unknown kind {node.kind!r}")
        if node.proof_var_count < 0:
            raise ValidationError(f"node {node.id}: negative proof_vars")
        if len(set(node.inputs)) != len(node.inputs):
            raise ValidationError(f"node {node.id}: repeated input")
        if node.kind == CONDUCTOR and (node.proof_var_count or node.clauses):
            raise ValidationError(
                f"node {node.id}: conductor carries clauses or proof variables"
            )
        limit = node.var_count
        for clause in node.clauses:
            for lit in clause:
                if lit == 0 or abs(lit) > limit:
                    raise ValidationError(f"node {node.id}: literal {lit} out of range")
    if g.output not in g.by_id:
        raise ValidationError(f"node {g.output}: missing output node")
    # Acyclicity via Kahn's algorithm; report the smallest node left on a cycle.
    indeg = {node.id: len(node.inputs) for node in g.nodes}
    ready = [nid for nid, d in indeg.items() if d == 0]
    seen = 0
    while ready:
        nid = ready.pop()
        seen += 1
        for child in g._children[nid]:
            indeg[child] -= 1
            if indeg[child] == 0:
                ready.append(child)
    if seen != len(g.nodes):
        stuck = min(nid for nid, d in indeg.items() if d > 0)
        raise ValidationError(f"node {stuck}: cycle detected")
    sinks = [nid for nid, kids in g._children.items() if not kids]
    if g.output not in sinks:
        raise ValidationError(f"node {g.output}: output node has outgoing edges")
    for nid in sinks:
        if nid != g.output:
            raise ValidationError(f"node {nid}: out-degree 0 but not the output")


def build_dag(node_specs, output):
    """Construct a QueryDag from (id, kind, inputs, proof_vars, clauses) tuples."""
    nodes = []
    for nid, kind, inputs, proof_vars, clauses in node_specs:
        nodes.append(
            QueryNode(
                id=nid,
                kind=kind,
                inputs=tuple(inputs),
                proof_var_count=proof_vars,
                clauses=tuple(tuple(cl) for cl in clauses),
            )
        )
    return QueryDag(nodes, output)


def parse_dag(text):
    """Parse an instance document into a validated QueryDag.

    Schema: {"nodes": [{"id", "kind", "inputs", "proof_vars", "clauses"}, ...],
    "output": int}.  Malformed documents raise ParseError; semantic violations
    (cycles, dangling ids, out-of-range literals, ...) raise ValidationError
    naming the offending node.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed document: {exc}") from exc
    if not isinstance(doc, dict) or "nodes" not in doc or "output" not in doc:
        raise ParseError("document must be an object with 'nodes' and 'output'")
    if not isinstance(doc["output"], int) or isinstance(doc["output"], bool):
        raise ParseError("'output' must be an integer node id")
    if not isinstance(doc["nodes"], list):
        raise ParseError("'nodes' must be a list")
    specs = []
    for i, raw in enumerate(doc["nodes"]):
        if not isinstance(raw, dict):
            raise ParseError(f"node at index {i}: not an object")
        try:
            nid = raw["id"]
            kind = raw.get("kind", VERIFIER)
            inputs = raw.get("inputs", [])
            proof_vars = raw.get("proof_vars", 0)
            clauses = raw.get("clauses", [])
        except KeyError as exc:
            raise ParseError(f"node at index {i}: missing field {exc}") from exc
        if not isinstance(nid, int) or isinstance(nid, bool):
            raise ParseError(f"node at index {i}: id must be an integer")
        if not isinstance(kind, str):
            raise ParseError(f"node {nid}: kind must be a string")
        if not isinstance(inputs, list) or not all(
            isinstance(p, int) and not isinstance(p, bool) for p in inputs
        ):
            raise ParseError(f"node {nid}: inputs must be a list of node ids")
        if not isinstance(proof_vars, int) or isinstance(proof_vars, bool):
            raise ParseError(f"node {nid}: proof_vars must be an integer")
        if not isinstance(clauses, list) or not all(
            isinstance(cl, list)
            and all(isinstance(l, int) and not isinstance(l, bool) for l in cl)
            for cl in clauses
        ):
            raise ParseError(f"node {nid}: clauses must be lists of literals")
        specs.append((nid, kind, inputs, proof_vars, clauses))
    return build_dag(specs, doc["output"])


def serialize_dag(g):
    """Canonical single-line document for g; round-trips byte-identically."""
    doc = {
        "nodes": [
            {
                "id": node.id,
                "kind": node.kind,
                "inputs": list(node.inputs),
                "proof_vars": node.proof_var_count,
                "clauses": [list(cl) for cl in node.clauses],
            }
            for node in sorted(g.nodes, key=lambda n: n.id)
        ],
        "output": g.output,
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def topo_sort(ids, out):
    """Order of `ids` with every node before its `out` targets, ties broken
    by ascending id."""
    indeg = {nid: 0 for nid in ids}
    for nid in ids:
        for child in out[nid]:
            indeg[child] += 1
    heap = [nid for nid, d in indeg.items() if d == 0]
    heapq.heapify(heap)
    order = []
    while heap:
        nid = heapq.heappop(heap)
        order.append(nid)
        for child in out[nid]:
            indeg[child] -= 1
            if indeg[child] == 0:
                heapq.heappush(heap, child)
    if len(order) != len(ids):
        raise ValidationError("graph is not acyclic")
    return order


def topological_order(g):
    """Parents-first order over node ids, ties broken by ascending id."""
    return topo_sort(g.node_ids(), g.out_neighbors())


def proof_bit(node, z, sat):
    """1 iff `sat` finds a proof for the verifier `node` on input wires z.

    A conductor has no clauses to decide: only a compressed graph gives it a
    meaning, so a graph that declares one is rejected here, on every path.
    """
    if node.kind == CONDUCTOR:
        raise ValidationError(f"node {node.id}: conductor outside a compressed graph")
    return 1 if sat.exists(node, z) else 0


def evaluate(g, sat):
    """Decide g by answering every query in g's topological order.

    `sat` decides proof existence per node given fixed input bits.  NP has no
    invalid queries, so the trace is deterministic.  Works on any graph with
    the topo_order()/forced_bit()/output protocol.
    """
    order = g.topo_order()
    bits = {}
    for nid in order:
        bits[nid] = g.forced_bit(nid, bits, sat)
    return EvalTrace(order=tuple(order), bits=bits, answer=bits[g.output])


def is_correct_query_string(g, x, sat):
    """True iff every bit of x matches the forced answer of its query."""
    if set(x) != set(g.node_ids()):
        raise ValidationError("query string does not cover the node set")
    return all(x[nid] == g.forced_bit(nid, x, sat) for nid in g.node_ids())
