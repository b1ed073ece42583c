import copy
import json
import pickle
import random
import re

import pytest

from querydag import (
    ParseError,
    ProofOracle,
    QueryDagError,
    QueryNode,
    Supervertex,
    ValidationError,
    build_dag,
    evaluate,
    is_correct_query_string,
    parse_dag,
    serialize_dag,
)

import parse_reference
from conftest import enum_evaluate, random_instance
from querydag.cli import gen_instance
from querydag.compress import CompressedNode

CHAIN2_DOC = json.dumps(
    {
        "nodes": [
            {"id": 1, "kind": "verifier", "inputs": [], "proof_vars": 1, "clauses": [[1]]},
            {
                "id": 2,
                "kind": "verifier",
                "inputs": [1],
                "proof_vars": 1,
                "clauses": [[1], [2]],
            },
        ],
        "output": 2,
    }
)


def test_parse_chain2():
    g = parse_dag(CHAIN2_DOC)
    assert len(g.nodes) == 2
    assert g.output == 2
    assert g.by_id[2].inputs == (1,)
    assert g.by_id[2].clauses == ((1,), (2,))


def test_parse_single_vacuous_node():
    g = parse_dag('{"nodes":[{"id":1,"kind":"verifier","inputs":[],"proof_vars":0,"clauses":[]}],"output":1}')
    assert len(g.nodes) == 1


def test_parse_self_loop_reports_cycle():
    doc = '{"nodes":[{"id":2,"kind":"verifier","inputs":[2],"proof_vars":1,"clauses":[[1]]}],"output":2}'
    with pytest.raises(ValidationError, match="node 2: cycle"):
        parse_dag(doc)


def test_parse_two_cycle_reports_cycle():
    doc = json.dumps(
        {
            "nodes": [
                {"id": 1, "kind": "verifier", "inputs": [2], "proof_vars": 1, "clauses": []},
                {"id": 2, "kind": "verifier", "inputs": [1], "proof_vars": 1, "clauses": []},
            ],
            "output": 2,
        }
    )
    with pytest.raises(ValidationError, match="cycle"):
        parse_dag(doc)


def test_parse_errors_name_the_node():
    with pytest.raises(ValidationError, match="node 1: dangling input 7"):
        parse_dag('{"nodes":[{"id":1,"inputs":[7],"proof_vars":0,"clauses":[]}],"output":1}')
    with pytest.raises(ValidationError, match="node 1: literal 3 out of range"):
        parse_dag('{"nodes":[{"id":1,"inputs":[],"proof_vars":1,"clauses":[[3]]}],"output":1}')
    with pytest.raises(ValidationError, match="node 5: missing output"):
        parse_dag('{"nodes":[{"id":1,"inputs":[],"proof_vars":0,"clauses":[]}],"output":5}')
    with pytest.raises(ValidationError, match="out-degree 0 but not the output"):
        parse_dag(
            json.dumps(
                {
                    "nodes": [
                        {"id": 1, "inputs": [], "proof_vars": 0, "clauses": []},
                        {"id": 2, "inputs": [], "proof_vars": 0, "clauses": []},
                    ],
                    "output": 2,
                }
            )
        )


def _node(nid, inputs=(), proof_vars=0, clauses=(), **fields):
    return {"id": nid, "inputs": list(inputs), "proof_vars": proof_vars,
            "clauses": [list(cl) for cl in clauses], **fields}


# Documents with two faults each, and the first error parse_dag reports:
# the output's type, then every type fault (ParseError), then duplicate ids,
# dangling inputs, the per-node checks in node order (kind, proof_vars,
# repeated input, literal range), the missing output, a cycle, an output
# with out-edges and an extra sink.
FIRST_ERRORS = [
    ("output type before node types",
     {"nodes": [_node("x")], "output": "a"},
     ParseError, "'output' must be an integer node id"),
    ("type fault on node 2 before dangling input on node 1",
     {"nodes": [_node(1, inputs=[7]), _node(2, proof_vars=1, clauses=[[True]])], "output": 2},
     ParseError, "node 2: clauses must be lists of literals"),
    ("duplicate id on a later node before dangling input",
     {"nodes": [_node(1, inputs=[7]), _node(2), _node(2)], "output": 2},
     ValidationError, "node 2: duplicate id"),
    ("dangling input before unknown kind",
     {"nodes": [_node(1, kind="oracle"), _node(2, inputs=[9])], "output": 2},
     ValidationError, "node 2: dangling input 9"),
    ("node 1's literal range before node 2's kind",
     {"nodes": [_node(1, proof_vars=1, clauses=[[5]]), _node(2, inputs=[1], kind="gate")],
      "output": 2},
     ValidationError, "node 1: literal 5 out of range"),
    ("unknown kind before negative proof_vars",
     {"nodes": [_node(1, proof_vars=-1, kind="x")], "output": 1},
     ValidationError, "node 1: unknown kind 'x'"),
    ("negative proof_vars before repeated input",
     {"nodes": [_node(1), _node(2, inputs=[1, 1], proof_vars=-1)], "output": 2},
     ValidationError, "node 2: negative proof_vars"),
    ("repeated input before literal range",
     {"nodes": [_node(1), _node(2, inputs=[1, 1], clauses=[[9]])], "output": 2},
     ValidationError, "node 2: repeated input"),
    ("per-node checks before missing output",
     {"nodes": [_node(1, proof_vars=1, clauses=[[0]])], "output": 5},
     ValidationError, "node 1: literal 0 out of range"),
    ("missing output before cycle",
     {"nodes": [_node(1, inputs=[2]), _node(2, inputs=[1])], "output": 5},
     ValidationError, "node 5: missing output node"),
    ("cycle before output with out-edges",
     {"nodes": [_node(1, inputs=[2]), _node(2, inputs=[1]), _node(3), _node(4, inputs=[3])],
      "output": 3},
     ValidationError, "node 1: cycle detected"),
    ("output with out-edges before extra sink",
     {"nodes": [_node(1), _node(2, inputs=[1]), _node(3)], "output": 1},
     ValidationError, "node 1: output node has outgoing edges"),
    ("no nodes before missing output",
     {"nodes": [], "output": 1},
     ValidationError, "graph has no nodes"),
    # A set of literal values would fold true and 1.0 into an earlier 1;
    # the type check must see every literal.
    ("a bool literal after an equal int",
     {"nodes": [_node(1, proof_vars=1, clauses=[[1, True]])], "output": 1},
     ParseError, "node 1: clauses must be lists of literals"),
    ("a float literal after an equal int",
     {"nodes": [_node(1, proof_vars=1, clauses=[[1, 1.0]])], "output": 1},
     ParseError, "node 1: clauses must be lists of literals"),
    # The least (-5) and greatest (6) literal are out of range too, but the
    # report names the first bad literal in document order.
    ("first bad literal after a good one in a later clause",
     {"nodes": [_node(1, proof_vars=2, clauses=[[2], [1, 4, -5, 6]])], "output": 1},
     ValidationError, "node 1: literal 4 out of range"),
]


@pytest.mark.parametrize(
    "doc, error, message",
    [case[1:] for case in FIRST_ERRORS],
    ids=[case[0] for case in FIRST_ERRORS],
)
def test_parse_reports_the_first_error_in_a_fixed_order(doc, error, message):
    with pytest.raises(error) as caught:
        parse_dag(json.dumps(doc))
    assert type(caught.value) is error
    assert str(caught.value) == message


def test_parse_syntax_errors():
    with pytest.raises(ParseError, match="malformed"):
        parse_dag("{not json")
    with pytest.raises(ParseError):
        parse_dag('{"nodes": 3, "output": 1}')
    with pytest.raises(ParseError):
        parse_dag('{"nodes":[{"id":"x","inputs":[],"proof_vars":0,"clauses":[]}],"output":1}')


def test_serialize_round_trip_is_byte_identical(chain2):
    text = serialize_dag(chain2)
    assert serialize_dag(parse_dag(text)) == text


def test_topological_order(chain2, star4, single_vacuous):
    assert chain2.topo_order() == [1, 2]
    assert star4.topo_order() == [1, 2, 3, 4]
    assert single_vacuous.topo_order() == [1]


def test_evaluate_chain2(chain2):
    bits = evaluate(chain2, ProofOracle())
    assert bits == {1: 1, 2: 1}
    assert bits[chain2.output] == 1


def test_evaluate_degenerates(single_vacuous, single_contradictory):
    assert evaluate(single_vacuous, ProofOracle())[single_vacuous.output] == 1
    assert evaluate(single_contradictory, ProofOracle())[single_contradictory.output] == 0


def test_evaluate_is_deterministic(chain2):
    oracle = ProofOracle()
    first = evaluate(chain2, oracle)
    second = evaluate(chain2, oracle)
    assert first == second


def test_conductor_cannot_be_evaluated_standalone():
    with pytest.raises(ValidationError, match="node 2: unknown kind 'conductor'"):
        build_dag([(1, "verifier", [], 1, [[1]]), (2, "conductor", [1], 0, [])], 2)


def wide_random_instance(seed, n=10, max_proof_vars=3):
    """Forward-edge DAG with up to 3 proof variables per node."""
    import random as _random

    rng = _random.Random(seed)
    specs = []
    for i in range(1, n + 1):
        inputs = sorted(rng.sample(range(i + 1, n + 1), 1)) if i < n else []
        # inputs above point forward; flip them into the receiving nodes
        specs.append([i, inputs])
    incoming = {i: [] for i in range(1, n + 1)}
    for i, outs in specs:
        for t in outs:
            incoming[t].append(i)
    nodes = []
    for i in range(1, n + 1):
        pv = rng.randint(1, max_proof_vars)
        total = len(incoming[i]) + pv
        clauses = []
        for _ in range(rng.randint(1, 3)):
            clauses.append(
                [rng.randint(1, total) * rng.choice((1, -1)) for _ in range(rng.randint(1, 3))]
            )
        nodes.append((i, "verifier", sorted(incoming[i]), pv, clauses))
    return build_dag(nodes, n)


def test_evaluate_matches_enumeration_on_random_instances():
    for seed in range(60):
        g = random_instance(seed)
        got = evaluate(g, ProofOracle())
        bits, answer = enum_evaluate(g)
        assert got == bits
        assert got[g.output] == answer


def test_evaluate_matches_enumeration_up_to_ten_nodes_three_proof_vars():
    for seed in range(25):
        g = wide_random_instance(seed)
        got = evaluate(g, ProofOracle())
        bits, answer = enum_evaluate(g)
        assert got == bits
        assert got[g.output] == answer


def test_is_correct_query_string(chain2, single_vacuous):
    oracle = ProofOracle()
    assert is_correct_query_string(chain2, {1: 1, 2: 1}, oracle)
    assert not is_correct_query_string(chain2, {1: 0, 2: 1}, oracle)
    assert is_correct_query_string(single_vacuous, {1: 1}, oracle)


def test_is_correct_query_string_rejects_a_string_missing_a_node(chain2):
    with pytest.raises(ValidationError, match="does not cover the node set"):
        is_correct_query_string(chain2, {1: 1}, ProofOracle())


@pytest.mark.parametrize("x", [{1: 1, 2: 1, 3: 1}, {1: 1, 3: 1}, {}])
def test_is_correct_query_string_rejects_a_string_off_the_node_set(chain2, x):
    # An extra key, or one node swapped for a stranger, fails the cover
    # check as a missing node does.
    with pytest.raises(ValidationError, match="does not cover the node set"):
        is_correct_query_string(chain2, x, ProofOracle())


def test_evaluate_produces_correct_string_on_random_instances():
    oracle = ProofOracle()
    for seed in range(40):
        g = random_instance(seed)
        assert is_correct_query_string(g, evaluate(g, oracle), oracle)


def test_nodes_of_two_parses_are_equal_and_hash_alike():
    doc = serialize_dag(random_instance(9))
    first, second = parse_dag(doc), parse_dag(doc)
    for a, b in zip(first.nodes, second.nodes):
        assert a is not b
        assert a == b and not a != b
        assert repr(a) == repr(b) == (
            f"QueryNode(id={a.id!r}, kind={a.kind!r}, inputs={a.inputs!r}, "
            f"proof_var_count={a.proof_var_count!r}, clauses={a.clauses!r})"
        )
        assert hash(a) == hash(b)
        # The hash of the fields, computed once per node.
        assert hash(a) == hash((a.id, a.kind, a.inputs, a.proof_var_count, a.clauses))
        # A node pickled from one parse is the same value as in the other.
        restored = pickle.loads(pickle.dumps(a))
        assert type(restored) is QueryNode
        assert restored == b and hash(restored) == hash(b) and repr(restored) == repr(b)
    assert len({*first.nodes, *second.nodes}) == len(first.nodes)
    memo = {(node, "1"): node.id for node in first.nodes}
    assert all(memo[(node, "1")] == node.id for node in second.nodes)
    assert serialize_dag(first) == serialize_dag(second) == doc
    # A node differing in one literal is another node.
    node = first.nodes[-1]
    other = QueryNode(node.id, node.kind, node.inputs, node.proof_var_count,
                      node.clauses + ((1,),))
    assert other != node and (other, "1") not in memo
    assert node != (node.id, node.kind, node.inputs, node.proof_var_count, node.clauses)
    bare = QueryNode(node.id, node.kind, node.inputs, node.proof_var_count, ())
    assert hash(bare) == hash(QueryNode(node.id, node.kind, node.inputs, node.proof_var_count, ()))
    assert hash(bare) == hash((node.id, node.kind, node.inputs, node.proof_var_count, ()))
    # Every node keeps its hash once computed, clause-free or not.
    assert "_hash" in node.__dict__ and "_hash" in bare.__dict__


def test_node_copies_carry_fields_only():
    g = parse_dag(CHAIN2_DOC)
    node = g.by_id[2]
    ProofOracle().exists(node, 1)
    assert "cnf" in node.__dict__
    for copied in (copy.copy(node), copy.deepcopy(node), pickle.loads(pickle.dumps(node))):
        assert copied == node and hash(copied) == hash(node)
        assert "cnf" not in copied.__dict__


def test_supervertices_and_copies_compare_by_value():
    sv = Supervertex(id=2, members=(3, 4), parent=1)
    assert sv == Supervertex(id=2, members=(3, 4), parent=1)
    assert hash(sv) == hash(Supervertex(id=2, members=(3, 4), parent=1))
    assert sv != Supervertex(id=2, members=(3, 4), parent=None)
    assert sv != Supervertex(id=2, members=(4, 3), parent=1)
    assert sv != (2, (3, 4), 1)
    assert repr(sv) == "Supervertex(id=2, members=(3, 4), parent=1)"
    assert not hasattr(sv, "__dict__")
    fields = dict(cid=5, origin=3, supervertex=2, position=1, conditioning=("1*",),
                  signature=((1, 1),))
    assert CompressedNode(**fields) == CompressedNode(**fields)
    assert CompressedNode(**fields) != CompressedNode(**{**fields, "cid": 6})


# Documents that hold no valid instance, from the tests of parse_dag and of
# the command line, besides the FIRST_ERRORS rows.
HOSTILE_TEXTS = [
    "",
    "{not json",
    "[" * 100_000,
    '{"nodes": [], "output": 1' + "0" * 5000 + "}",
    "null",
    "[]",
    '{"nodes": 3, "output": 1}',
    '{"nodes": [], "output": true}',
    '{"nodes": [1], "output": 1}',
    '{"nodes": [{"kind": "verifier"}], "output": 1}',
    '{"nodes":[{"id":"x","inputs":[],"proof_vars":0,"clauses":[]}],"output":1}',
    '{"nodes":[{"id":2,"kind":"verifier","inputs":[2],"proof_vars":1,"clauses":[[1]]}],"output":2}',
    '{"nodes":[{"id":1,"inputs":[2],"proof_vars":1,"clauses":[]},'
    '{"id":2,"inputs":[1],"proof_vars":1,"clauses":[]}],"output":2}',
    '{"nodes":[{"id":1,"inputs":[7],"proof_vars":0,"clauses":[]}],"output":1}',
    '{"nodes":[{"id":1,"inputs":[],"proof_vars":1,"clauses":[[3]]}],"output":1}',
    '{"nodes":[{"id":1,"inputs":[],"proof_vars":0,"clauses":[]}],"output":5}',
    '{"nodes":[{"id":1,"inputs":[],"proof_vars":0,"clauses":[]},'
    '{"id":2,"inputs":[],"proof_vars":0,"clauses":[]}],"output":2}',
    '{"nodes":[{"id":1,"kind":"conductor","inputs":[]},'
    '{"id":2,"kind":"verifier","inputs":[1],"proof_vars":1,"clauses":[[1],[2]]}],"output":2}',
    '{"nodes":[{"id":1,"kind":"verifier","inputs":[],"proof_vars":1,"clauses":[[1]]},'
    '{"id":2,"kind":"conductor","inputs":[1]}],"output":2}',
] + [json.dumps(case[1]) for case in FIRST_ERRORS]


def _outcome(parse, text):
    """The error class and message, or the graph's nodes, output and order.
    Any other exception fails the test: a document must fail cleanly."""
    try:
        g = parse(text)
    except QueryDagError as exc:
        return type(exc), str(exc)
    return g.nodes, g.output, g.topo_order()


def _assert_parsers_agree(text):
    outcome = _outcome(parse_dag, text)
    assert outcome == _outcome(parse_reference.parse_dag, text), text[:300]
    return outcome


def test_parse_matches_the_reference_on_hostile_documents():
    for text in HOSTILE_TEXTS:
        assert isinstance(_assert_parsers_agree(text)[0], type), text[:80]


def _sat_clauses(rng, var_count):
    """A random 3-CNF near the satisfiability threshold over the proof
    variables after `var_count - 18` input wires, as the SAT-heavy
    benchmark nodes are drawn."""
    first = var_count - 17
    clauses = []
    for _ in range(round(18 * 4.2)):
        chosen = rng.sample(range(first, var_count + 1), 3)
        clauses.append([v if rng.random() < 0.5 else -v for v in chosen])
    return clauses


def _base_document(rng):
    family = rng.choice(("chain", "star", "layered", "random-sep"))
    doc = json.loads(serialize_dag(gen_instance(family, rng.randint(1, 9), rng.randrange(50))))
    for node in doc["nodes"]:
        if rng.random() < 0.3:
            node["proof_vars"] = 18
            node["clauses"] = _sat_clauses(rng, len(node["inputs"]) + 18)
    if rng.random() < 0.3:
        rng.shuffle(doc["nodes"])
    return doc


def _literal_places(doc):
    return [
        (node, clause, k)
        for node in doc["nodes"]
        for clause in node["clauses"]
        for k in range(len(clause))
    ]


def _set_literal(rng, doc, value):
    places = _literal_places(doc)
    if not places:
        return False
    node, clause, k = rng.choice(places)
    clause[k] = value(node, clause[k])
    return True


def _var_count(node):
    return len(node["inputs"]) + node["proof_vars"]


def _fault(rng, doc, kind):
    """Inject one fault of `kind` into doc; False when it has no place."""
    nodes = doc["nodes"]
    node = rng.choice(nodes)
    if kind == "bool":
        return _set_literal(rng, doc, lambda n, lit: rng.choice((True, False)))
    if kind == "float":
        return _set_literal(rng, doc, lambda n, lit: rng.choice((float(lit), lit + 0.5)))
    if kind == "string":
        return _set_literal(rng, doc, lambda n, lit: str(lit))
    if kind == "zero":
        return _set_literal(rng, doc, lambda n, lit: 0)
    if kind == "range":
        return _set_literal(
            rng, doc, lambda n, lit: rng.choice((1, -1)) * (_var_count(n) + rng.randint(1, 3))
        )
    if kind == "clause":
        if not node["clauses"]:
            return False
        k = rng.randrange(len(node["clauses"]))
        node["clauses"][k] = rng.choice((1, "1", None, {"a": 1}, (node["clauses"][k] or [1])[0]))
        return True
    if kind == "field":
        field = rng.choice(("id", "id", "kind", "inputs", "proof_vars", "clauses"))
        node.pop(field)
        return True
    if kind == "type":
        field, value = rng.choice((
            ("id", "1"), ("id", True), ("id", 1.0), ("kind", 3), ("kind", "gate"),
            ("inputs", 1), ("inputs", [1.0]), ("inputs", [True]), ("proof_vars", -1),
            ("proof_vars", 1.5), ("proof_vars", False), ("clauses", [1]), ("clauses", {}),
        ))
        node[field] = value
        return True
    if kind == "duplicate":
        node["id"] = rng.choice(nodes)["id"]
        return len(nodes) > 1
    if kind == "dangling":
        node["inputs"].insert(rng.randint(0, len(node["inputs"])), 100 + rng.randrange(5))
        return True
    if kind == "repeated":
        if not node["inputs"]:
            return False
        node["inputs"].append(rng.choice(node["inputs"]))
        return True
    if kind == "cycle":
        by_id = {n["id"]: n for n in nodes}
        parents = [p for p in node["inputs"] if p in by_id]
        target = by_id[rng.choice(parents)] if parents else node
        target["inputs"].append(node["id"])
        return True
    if kind == "sink":
        nodes.insert(rng.randint(0, len(nodes)), {"id": max(n["id"] for n in nodes) + 1})
        return True
    if kind == "output":
        ids = [n["id"] for n in nodes]
        doc["output"] = rng.choice((max(ids) + 1, rng.choice(ids), "1", True, 1.5, None))
        return True
    if kind == "document":
        rng.choice((
            lambda: doc.pop(rng.choice(("nodes", "output"))),
            lambda: nodes.__setitem__(rng.randrange(len(nodes)), rng.choice((5, [], None))),
            lambda: doc.__setitem__("nodes", {}),
        ))()
        return True
    raise AssertionError(kind)


FAULTS = ("bool", "float", "string", "zero", "range", "clause", "field", "type",
          "duplicate", "dangling", "repeated", "cycle", "sink", "output", "document")


def test_parse_matches_the_reference_on_mutated_documents():
    rng = random.Random(25)
    bases = [_base_document(rng) for _ in range(60)]
    injected = {kind: 0 for kind in FAULTS}
    errors, graphs = set(), 0
    for _ in range(2400):
        doc = rng.choice(bases)
        for _ in range(rng.randint(1, 2)):
            kind = rng.choice(FAULTS)
            # On a copy: a first fault may leave no place for the second.
            trial = json.loads(json.dumps(doc))
            try:
                placed = _fault(rng, trial, kind)
            except (KeyError, TypeError, AttributeError, IndexError, ValueError):
                continue
            doc = trial
            injected[kind] += placed
        outcome = _assert_parsers_agree(json.dumps(doc))
        if isinstance(outcome[0], type):
            errors.add((outcome[0].__name__, re.sub(r"-?\d+(\.\d+)?", "N", outcome[1])))
        else:
            graphs += 1
    assert min(injected.values()) >= 100, injected
    # Valid graphs, and every message but "graph has no nodes" and a
    # malformed document's, with its numbers taken out.
    assert graphs >= 50 and len(errors) >= 20, (graphs, sorted(errors))
