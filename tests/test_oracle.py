import random

import pytest

from querydag import (
    BruteForceBackend,
    CapacityError,
    EvaluationBackend,
    ProofOracle,
    QueryNode,
    ThresholdInstance,
    build_compressed,
    build_separator_tree,
    decide_compress,
    omega_weights,
    sat_exists_proof,
    threshold_query,
    total_weight,
)

from conftest import enum_sat, random_instance


def test_sat_chain2_nodes(chain2):
    v1, v2 = chain2.nodes
    assert sat_exists_proof(v1, "")
    assert not sat_exists_proof(v2, "0")
    assert sat_exists_proof(v2, "1")


def test_sat_empty_clause_list():
    node = QueryNode(1, "verifier", (), 0, ())
    assert sat_exists_proof(node, "")


def test_sat_empty_clause_is_unsat():
    node = QueryNode(1, "verifier", (), 2, ((),))
    assert not sat_exists_proof(node, "")


def test_sat_matches_enumeration_on_random_cnfs():
    rng = random.Random(7)
    for _ in range(200):
        pv = rng.randint(0, 12)
        indeg = rng.randint(0, 3)
        clauses = []
        for _ in range(rng.randint(0, 6)):
            width = rng.randint(1, 4)
            clause = []
            for _ in range(width):
                var = rng.randint(1, max(1, indeg + pv))
                clause.append(var if rng.random() < 0.5 else -var)
            clauses.append(tuple(clause))
        if any(abs(l) > indeg + pv for cl in clauses for l in cl):
            continue
        node = QueryNode(1, "verifier", tuple(range(100, 100 + indeg)), pv, tuple(clauses))
        bits = "".join(rng.choice("01") for _ in range(indeg))
        assert sat_exists_proof(node, bits) == enum_sat(node, bits)


def test_sat_agrees_with_enumeration_at_sixteen_proof_vars():
    rng = random.Random(3)
    clauses = []
    for _ in range(8):
        clauses.append(
            tuple(rng.randint(1, 16) * rng.choice((1, -1)) for _ in range(3))
        )
    node = QueryNode(1, "verifier", (), 16, tuple(clauses))
    assert sat_exists_proof(node, "") == enum_sat(node, "")


def test_threshold_examples_chain2(chain2):
    oracle = ProofOracle()
    stats = oracle.stats
    backend = BruteForceBackend()
    weights = omega_weights(chain2, 2)
    answers = {}
    for theta in (8, 9, 0):
        inst = ThresholdInstance(chain2, weights, theta, {})
        answers[theta] = threshold_query(inst, oracle, backend)
    assert answers == {8: True, 9: False, 0: True}
    assert stats.threshold_queries == 3


def test_threshold_is_monotone(chain2):
    oracle = ProofOracle()
    backend = BruteForceBackend()
    weights = omega_weights(chain2, 2)
    results = [
        threshold_query(
            ThresholdInstance(chain2, weights, theta, {}), oracle, backend
        )
        for theta in range(0, 2 * total_weight(weights) + 2)
    ]
    assert results == sorted(results, reverse=True)


def test_brute_backend_capacity_error(chain2):
    tree = build_separator_tree(chain2)
    gstar, fstar = build_compressed(chain2, tree)
    inst = ThresholdInstance(gstar, fstar, 1, {})
    with pytest.raises(CapacityError, match="exceed"):
        BruteForceBackend(cap=3).decide(inst, ProofOracle())


def test_backends_agree_on_plain_and_compressed_instances():
    for seed in range(12):
        g = random_instance(seed, max_n=4)
        weights = omega_weights(g, 2)
        oracle = ProofOracle()
        brute = BruteForceBackend()
        smart = EvaluationBackend()
        top = 2 * total_weight(weights)
        for theta in range(0, top + 2):
            inst = ThresholdInstance(g, weights, theta, {})
            assert brute.decide(inst, oracle) == smart.decide(inst, oracle)
        tree = build_separator_tree(g)
        gstar, fstar = build_compressed(g, tree)
        if len(gstar.nodes) > 16:
            continue
        top = 2 * total_weight(fstar)
        for theta in range(0, top + 2, max(1, top // 7)):
            inst = ThresholdInstance(gstar, fstar, theta, {})
            assert brute.decide(inst, oracle) == smart.decide(inst, oracle)


def test_backends_agree_under_pins(chain2):
    weights = omega_weights(chain2, 2)
    oracle = ProofOracle()
    brute = BruteForceBackend()
    smart = EvaluationBackend()
    for theta in range(0, 10):
        for pins in ({}, {1: 1}, {1: 0}, {2: 1}, {2: 0}, {1: 1, 2: 0}):
            inst = ThresholdInstance(chain2, weights, theta, pins)
            assert brute.decide(inst, oracle) == smart.decide(inst, oracle), (
                theta,
                pins,
            )


def test_evaluation_backend_rejects_inadmissible_weights(chain2):
    from querydag import ValidationError, WeightAssignment

    inst = ThresholdInstance(chain2, WeightAssignment({1: 1, 2: 1}, 2), 1, {})
    with pytest.raises(ValidationError, match="admissible"):
        EvaluationBackend().decide(inst, ProofOracle())


def test_transcript_replays_identically(chain2):
    first = decide_compress(chain2).stats.to_doc()
    second = decide_compress(chain2).stats.to_doc()
    assert first == second
    assert any(entry["kind"] == "threshold" for entry in first)


def test_transcript_export_fields(chain2):
    oracle = ProofOracle()
    stats = oracle.stats
    weights = omega_weights(chain2, 2)
    threshold_query(
        ThresholdInstance(chain2, weights, 8, {2: 1}),
        oracle,
        BruteForceBackend(),
    )
    entry = stats.to_doc()[-1]
    assert entry["kind"] == "threshold"
    assert entry["threshold"] == "8"
    assert entry["pins"] == {"2": 1}
    assert entry["answer"] is True
