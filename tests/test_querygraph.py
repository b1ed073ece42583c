import copy
import dataclasses
import json
import pickle

import pytest

from querydag import (
    ParseError,
    ProofOracle,
    ValidationError,
    build_dag,
    evaluate,
    is_correct_query_string,
    parse_dag,
    serialize_dag,
)

from conftest import enum_evaluate, random_instance

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
        assert a == b and repr(a) == repr(b)
        assert hash(a) == hash(b)
        # The value a frozen dataclass computes on every call.
        assert hash(a) == hash((a.id, a.kind, a.inputs, a.proof_var_count, a.clauses))
    memo = {(node, "1"): node.id for node in first.nodes}
    assert all(memo[(node, "1")] == node.id for node in second.nodes)
    assert serialize_dag(first) == serialize_dag(second) == doc
    # A node differing in one literal is another node.
    node = first.nodes[-1]
    other = dataclasses.replace(node, clauses=node.clauses + ((1,),))
    assert other != node and (other, "1") not in memo
    bare = dataclasses.replace(node, clauses=())
    assert hash(bare) == hash(dataclasses.replace(node, clauses=()))
    assert hash(bare) == hash((node.id, node.kind, node.inputs, node.proof_var_count, ()))
    # A node with clauses keeps its hash; a clause-free one keeps nothing.
    assert "_hash" in node.__dict__ and "_hash" not in bare.__dict__


def test_node_copies_carry_fields_only():
    g = parse_dag(CHAIN2_DOC)
    node = g.by_id[2]
    ProofOracle().exists(node, "1")
    assert "cnf" in node.__dict__
    for copied in (copy.copy(node), copy.deepcopy(node), pickle.loads(pickle.dumps(node))):
        assert copied == node and hash(copied) == hash(node)
        assert "cnf" not in copied.__dict__
