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
    trace = evaluate(chain2, ProofOracle())
    assert trace.bits == {1: 1, 2: 1}
    assert trace.answer == 1
    assert trace.answer == trace.bits[chain2.output]


def test_evaluate_degenerates(single_vacuous, single_contradictory):
    assert evaluate(single_vacuous, ProofOracle()).answer == 1
    assert evaluate(single_contradictory, ProofOracle()).answer == 0


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
        trace = evaluate(g, ProofOracle())
        bits, answer = enum_evaluate(g)
        assert trace.bits == bits
        assert trace.answer == answer


def test_evaluate_matches_enumeration_up_to_ten_nodes_three_proof_vars():
    for seed in range(25):
        g = wide_random_instance(seed)
        trace = evaluate(g, ProofOracle())
        bits, answer = enum_evaluate(g)
        assert trace.bits == bits
        assert trace.answer == answer


def test_is_correct_query_string(chain2, single_vacuous):
    oracle = ProofOracle()
    assert is_correct_query_string(chain2, {1: 1, 2: 1}, oracle)
    assert not is_correct_query_string(chain2, {1: 0, 2: 1}, oracle)
    assert is_correct_query_string(single_vacuous, {1: 1}, oracle)


def test_evaluate_produces_correct_string_on_random_instances():
    oracle = ProofOracle()
    for seed in range(40):
        g = random_instance(seed)
        trace = evaluate(g, oracle)
        assert is_correct_query_string(g, trace.bits, oracle)


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
