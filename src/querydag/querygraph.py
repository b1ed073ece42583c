"""Data model, parsing, and reference evaluation of NP query graphs.

A query graph is a DAG whose nodes are SAT queries.  Each node reads one bit
per incoming edge (the answers of its parent queries, in `inputs` order), may
use private proof variables, and answers 1 exactly when some assignment of
the proof variables satisfies every clause.  The unique sink is the result
node; evaluating all queries in topological order and returning the sink's
bit decides the graph.
"""

from __future__ import annotations

import decimal
import heapq
import json
from dataclasses import dataclass
from functools import cached_property

from .errors import ParseError, ValidationError

VERIFIER = "verifier"


def decimal_str(n):
    """The integer n in decimal, at any length.  str(n) refuses integers of
    more digits than sys.get_int_max_str_digits() (4300 by default), and
    that limit is process-wide; Decimal's conversion has none."""
    return str(decimal.Decimal(n))


@dataclass(frozen=True)
class QueryNode:
    """One query node: a CNF over input wires and private proof variables.

    Variables 1..indeg are the input wires (in `inputs` order); variables
    indeg+1..indeg+proof_var_count are the proof block.  The only kind is
    "verifier"; a compressed graph's conductor lives in the compress module.
    """

    id: int
    kind: str
    inputs: tuple
    proof_var_count: int
    clauses: tuple

    @property
    def var_count(self):
        return len(self.inputs) + self.proof_var_count

    # The proof memo keys on nodes, and a tuple of clauses does not keep
    # its hash, so a node keeps the one the dataclass would compute.  A
    # clause-free node, as compression's throwaway dummies are, hashes as
    # fast without and keeps nothing.
    def __hash__(self):
        if not self.clauses:
            return hash((self.id, self.kind, self.inputs, self.proof_var_count, ()))
        return self._hash

    @cached_property
    def _hash(self):
        return hash((self.id, self.kind, self.inputs, self.proof_var_count, self.clauses))

    @cached_property
    def cnf(self):
        """The clauses compiled for the proof oracle's DPLL, built on the
        node's first decision, never at parse or validation time."""
        from .oracle import CompiledCnf

        return CompiledCnf(self)

    def __reduce__(self):
        # Pickle and copy the fields alone: a string's hash differs between
        # processes, and the compiled form is rebuilt on use.
        return type(self), (self.id, self.kind, self.inputs, self.proof_var_count, self.clauses)


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

    def topo_order(self):
        """Parents first, ties by ascending id; computed once by validation."""
        return list(self._order)

    def fixed_bits(self):
        """Every answer bit of a plain query graph is free."""
        return {}

    def forced_bit(self, nid, x, sat):
        """Answer of query `nid` when its input wires read their bits in x."""
        node = self.by_id[nid]
        z = "".join("1" if x[p] else "0" for p in node.inputs)
        return 1 if sat.exists(node, z) else 0

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
        if node.kind != VERIFIER:
            raise ValidationError(f"node {node.id}: unknown kind {node.kind!r}")
        if node.proof_var_count < 0:
            raise ValidationError(f"node {node.id}: negative proof_vars")
        if len(set(node.inputs)) != len(node.inputs):
            raise ValidationError(f"node {node.id}: repeated input")
        limit = node.var_count
        for clause in node.clauses:
            for lit in clause:
                if lit == 0 or abs(lit) > limit:
                    raise ValidationError(f"node {node.id}: literal {lit} out of range")
    if g.output not in g.by_id:
        raise ValidationError(f"node {g.output}: missing output node")
    g._order = tuple(topo_sort(g.node_ids(), g._children))
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
    except ValueError as exc:
        # JSONDecodeError, or a number past the integer digit limit.
        raise ParseError(f"malformed document: {exc}") from exc
    except RecursionError as exc:
        raise ParseError("malformed document: nested too deeply") from exc
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
    by ascending id; a cycle raises, naming the smallest node left on or
    below one."""
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
        # The nodes left over are those on or below a cycle, whatever the
        # processing order, so the smallest of them is a stable report.
        stuck = min(nid for nid, d in indeg.items() if d > 0)
        raise ValidationError(f"node {stuck}: cycle detected")
    return order


def evaluate(g, sat, pins=None):
    """Answer every query of g in g's topological order; returns the bits,
    a dict keyed in g.topo_order(), whose entry at g.output decides g.

    `sat` decides proof existence per node given fixed input bits.  NP has no
    invalid queries, so the bits are deterministic.  A node in `pins` keeps
    its pinned bit instead of its forced one.  Under a weighting admissible
    with c >= 2 the result is the unique best string among those agreeing
    with the pins: a forced bit reads only the node's in-neighbours, so
    setting an unpinned node u to it gains w_u in u's own term and moves
    only the terms of u's children, each by at most 2 w_child, a total that
    admissibility keeps below w_u.  Works on any graph with the
    topo_order()/forced_bit()/output protocol.
    """
    pins = pins or {}
    bits = {}
    for nid in g.topo_order():
        bits[nid] = pins[nid] if nid in pins else g.forced_bit(nid, bits, sat)
    return bits


def is_correct_query_string(g, x, sat):
    """True iff every bit of x matches the forced answer of its query."""
    if set(x) != set(g.node_ids()):
        raise ValidationError("query string does not cover the node set")
    return all(x[nid] == g.forced_bit(nid, x, sat) for nid in g.node_ids())
