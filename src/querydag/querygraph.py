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
from functools import cached_property
from itertools import chain
from operator import eq, itemgetter

from .errors import ParseError, ValidationError

VERIFIER = "verifier"


def decimal_str(n):
    """The integer n in decimal, at any length.  str(n) refuses integers of
    more digits than sys.get_int_max_str_digits() (4300 by default), and
    that limit is process-wide; Decimal's conversion has none."""
    return str(decimal.Decimal(n))


class Record:
    """A plain record of the fields its class names in `_FIELDS`: equal,
    hashed and shown by their values, with no code generated when the class
    is defined."""

    __slots__ = ()
    _FIELDS = ()

    def _values(self):
        return tuple([getattr(self, name) for name in self._FIELDS])

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._FIELDS)
        return f"{type(self).__name__}({fields})"


class QueryNode(Record):
    """One query node: a CNF over input wires and private proof variables.

    Variables 1..indeg are the input wires (in `inputs` order); variables
    indeg+1..indeg+proof_var_count are the proof block.  The only kind is
    "verifier"; a compressed graph's conductor lives in the compress module.
    A node is a value, never changed once built.  It has a `__dict__` for
    its cached hash and compiled clauses.
    """

    _FIELDS = ("id", "kind", "inputs", "proof_var_count", "clauses")

    def __init__(self, id, kind, inputs, proof_var_count, clauses):
        self.id = id
        self.kind = kind
        self.inputs = inputs
        self.proof_var_count = proof_var_count
        self.clauses = clauses

    @property
    def var_count(self):
        return len(self.inputs) + self.proof_var_count

    # The proof memo keys on nodes, and a tuple of clauses does not keep
    # its hash, so a node keeps the hash of its fields once computed.
    def __hash__(self):
        return self._hash

    @cached_property
    def _hash(self):
        return hash(self._values())

    @cached_property
    def cnf(self):
        """The clauses compiled for the proof oracle's DPLL, built on the
        node's first decision, never at parse or validation time."""
        from .oracle import CompiledCnf

        return CompiledCnf(self)

    def __reduce__(self):
        # Pickle and copy the fields alone: a string's hash differs between
        # processes, and the compiled form is rebuilt on use.
        return type(self), self._values()


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

    def out_neighbors(self):
        return self._children

    def topo_order(self):
        """Parents first, ties by ascending id; computed once by validation."""
        return list(self._order)

    def pins(self):
        """A new empty dict to pin, and the ids in topo order to pin it in
        (see solver.extract_query_string)."""
        return {}, self._order

    def forced_bits(self, x, sat, pins):
        """(id, bit) for every node in topo order: its pin if `pins` holds
        it, with no proof call, else its forced bit, the answer of its query
        when its input wires read their bits in x, read when the pair is
        taken.  So a caller that puts each pair in x before taking the next
        evaluates.  A proof call gets its input bits as one code."""
        by_id = self.by_id
        for nid in self._order:
            if nid in pins:
                yield nid, pins[nid]
                continue
            node = by_id[nid]
            code = 0
            for p in node.inputs:
                code += code + (1 if x[p] else 0)
            yield nid, 1 if sat.exists(node, code) else 0

    def evaluate(self, sat, pins):
        """The bits of forced_bits as a dict keyed in topo order, each pair
        put in it before the next is taken."""
        bits = {}
        bits.update(self.forced_bits(bits, sat, pins))
        return bits

    def positions(self, x):
        """The string x as (seq, base), to read by position: here x itself
        and 0, so the bit of node nid is x[nid]."""
        return x, 0

    def out_sums(self, weights):
        """The sum of `weights` over each node's out-neighbours, as one
        block: yields the node ids and their sums once."""
        children, f = self._children, weights.__getitem__
        yield children.keys(), [sum(map(f, kids)) for kids in children.values()]

    def weight_runs(self, weights):
        """The weights in topo order, one per node, and None for the sizes
        of runs that are all one node long (see weighting.weigh)."""
        return map(weights.__getitem__, self._order), None

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
        # The least and greatest literal, and 0, settle the range; the node
        # is walked in order only to name its first bad literal.
        limit = node.var_count
        values = set(chain.from_iterable(node.clauses))
        if values and (0 in values or min(values) < -limit or max(values) > limit):
            lit = next(
                lit for lit in chain.from_iterable(node.clauses) if lit == 0 or abs(lit) > limit
            )
            raise ValidationError(f"node {node.id}: literal {lit} out of range")
    if g.output not in g.by_id:
        raise ValidationError(f"node {g.output}: missing output node")
    g._order = tuple(topo_sort(g._children, g._children))
    sinks = [nid for nid, kids in g._children.items() if not kids]
    if g.output not in sinks:
        raise ValidationError(f"node {g.output}: output node has outgoing edges")
    for nid in sinks:
        if nid != g.output:
            raise ValidationError(f"node {nid}: out-degree 0 but not the output")


def build_dag(node_specs, output):
    """Construct a QueryDag from (id, kind, inputs, proof_vars, clauses) tuples."""
    return QueryDag(
        [
            QueryNode(nid, kind, tuple(inputs), proof_vars, tuple(map(tuple, clauses)))
            for nid, kind, inputs, proof_vars, clauses in node_specs
        ],
        output,
    )


def _all_of_type(values, kind):
    """True when every value is exactly of type `kind`: JSON yields no
    subclasses, and bool, though a subclass of int, is not int."""
    return set(map(type, values)) <= {kind}


def parse_dag(text):
    """Parse an instance document into a validated QueryDag.

    Schema: {"nodes": [{"id", "kind", "inputs", "proof_vars", "clauses"}, ...],
    "output": int}.  Malformed documents raise ParseError; semantic violations
    (cycles, dangling ids, out-of-range literals, ...) raise ValidationError
    naming the offending node.  Every type fault of the document is found
    before any semantic one; README.md gives the order of the checks.
    """
    try:
        doc = json.loads(text)
    except ValueError as exc:
        # JSONDecodeError, or a number past the integer digit limit.
        raise ParseError(f"malformed document: {exc}") from exc
    except RecursionError as exc:
        raise ParseError("malformed document: nested too deeply") from exc
    if type(doc) is not dict or "nodes" not in doc or "output" not in doc:
        raise ParseError("document must be an object with 'nodes' and 'output'")
    if type(doc["output"]) is not int:
        raise ParseError("'output' must be an integer node id")
    if type(doc["nodes"]) is not list:
        raise ParseError("'nodes' must be a list")
    specs = []
    for i, raw in enumerate(doc["nodes"]):
        if type(raw) is not dict:
            raise ParseError(f"node at index {i}: not an object")
        try:
            nid = raw["id"]
        except KeyError as exc:
            raise ParseError(f"node at index {i}: missing field {exc}") from exc
        kind = raw.get("kind", VERIFIER)
        inputs = raw.get("inputs", [])
        proof_vars = raw.get("proof_vars", 0)
        clauses = raw.get("clauses", [])
        if type(nid) is not int:
            raise ParseError(f"node at index {i}: id must be an integer")
        if type(kind) is not str:
            raise ParseError(f"node {nid}: kind must be a string")
        if type(inputs) is not list or not _all_of_type(inputs, int):
            raise ParseError(f"node {nid}: inputs must be a list of node ids")
        if type(proof_vars) is not int:
            raise ParseError(f"node {nid}: proof_vars must be an integer")
        if (
            type(clauses) is not list
            or not _all_of_type(clauses, list)
            or not _all_of_type(chain.from_iterable(clauses), int)
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
    """Answer every query of g in the topological order g.pins() lists;
    returns the bits, a mapping iterated in that order, whose entry at
    g.output decides g: a dict on a query graph, a read-only mapping with
    one byte per copy on a compressed graph (compress.CompactString).

    `sat` decides proof existence per node given fixed input bits.  NP has no
    invalid queries, so the bits are deterministic.  A node in `pins` keeps
    its pinned bit instead of its forced one, and issues no proof call;
    every other node reads the bits already settled, pinned or forced.
    Under a weighting admissible with c >= 2 the result is the unique best
    string among those agreeing with the pins: a forced bit reads only the
    node's in-neighbours, so setting an unpinned node u to it gains w_u in
    u's own term and moves only the terms of u's children, each by at most
    2 w_child, a total that admissibility keeps below w_u.  The bits come
    from g.evaluate, which puts those of g.forced_bits in the string before
    making the next: a query graph settles a node at a time, a compressed
    graph a block of copies.
    """
    return g.evaluate(sat, pins or {})


def is_correct_query_string(g, x, sat):
    """True iff every bit of x matches the forced answer of its query,
    checked in g.forced_bits order, up to the first pair that differs.
    A string g reads by position (g.positions), G*'s own, lists its bits
    in that order, and covers the node set if it is as long."""
    seq, _ = g.positions(x)
    ids = g.out_neighbors()
    if len(x) != len(ids) or seq is x and not all(map(x.__contains__, ids)):
        raise ValidationError("query string does not cover the node set")
    pairs = g.forced_bits(x, sat, {})
    if seq is x:
        return all(map(x.items().__contains__, pairs))
    return all(map(eq, seq, map(itemgetter(1), pairs)))
