"""The element-by-element instance parser, kept as a test reference.

querydag.querygraph.parse_dag checks types and literal ranges with C-level
passes over each node (the set of types of its literals, the least and
greatest of its literal values) and scans a node in order only once a check
has failed, to name the first bad literal.  parse_dag below is the parser it
replaced, which tests every literal with isinstance in nested generators and
walks every literal again in Python for the range check.  The two must raise
the same error class and message on every document, or build equal graphs:
the same nodes, output and topological order.
"""

from __future__ import annotations

import json

from querydag import querygraph
from querydag.errors import ParseError, ValidationError
from querydag.querygraph import VERIFIER, QueryNode, topo_sort


class QueryDag(querygraph.QueryDag):
    """The package's QueryDag, validated by the reference checks."""

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
