import itertools
import random
from fractions import Fraction

import pytest

from querydag import (
    CapacityError,
    PipelineError,
    ProofOracle,
    QueryNode,
    ThresholdInstance,
    max_t_for_assignment,
    omega_weights,
)
from querydag.arithmetize import (
    CircuitBuilder,
    arithmetize_clause,
    audit_weak_compression,
    brute_force_max,
    build_p,
    extract_from_optimum,
    multilinear_eval,
    three_cnf_for_dag,
    to_three_cnf,
)

from conftest import brute_two_t, random_instance


def node_with(clauses, proof_vars=1, inputs=()):
    return QueryNode(1, "verifier", tuple(inputs), proof_vars, tuple(clauses))


def test_three_cnf_long_clause_split():
    node = node_with([(1, 2, 3, 4)], proof_vars=4)
    nc = to_three_cnf(node)
    assert len(nc.clauses) == 2
    assert nc.var_count - node.var_count == 1
    a = 5
    assert nc.clauses == ((1, 2, a), (-a, 3, 4))


def test_three_cnf_padding_by_repetition():
    nc = to_three_cnf(node_with([(1,)], proof_vars=1))
    assert nc.clauses == ((1, 1, 1),)


def test_three_cnf_chain2_v2(chain2):
    nc = to_three_cnf(chain2.by_id[2])
    assert nc.clauses == ((1, 1, 1), (2, 2, 2))


def test_three_cnf_preserves_satisfiability_under_fixed_inputs():
    from conftest import enum_sat

    rng = random.Random(5)
    for _ in range(120):
        pv = rng.randint(1, 3)
        indeg = rng.randint(0, 2)
        clauses = []
        for _ in range(rng.randint(1, 3)):
            width = rng.randint(1, 5)
            clause = tuple(
                rng.randint(1, indeg + pv) * rng.choice((1, -1)) for _ in range(width)
            )
            clauses.append(clause)
        node = QueryNode(1, "verifier", tuple(range(50, 50 + indeg)), pv, tuple(clauses))
        nc = to_three_cnf(node)
        widened = QueryNode(
            1, "verifier", node.inputs, nc.var_count - indeg, nc.clauses
        )
        bits = "".join(rng.choice("01") for _ in range(indeg))
        assert enum_sat(node, bits) == enum_sat(widened, bits)


def test_arithmetize_clause_matches_paper_form():
    # (z1 or not-z2 or z3) becomes 1 - (1 - z1) z2 (1 - z3).
    circuit = arithmetize_clause((1, -2, 3))
    for z in itertools.product((0, 1), repeat=3):
        truth = int(z[0] or (not z[1]) or z[2])
        assert circuit.eval(z) == truth
    assert circuit.eval((Fraction(1, 2),) * 3) == Fraction(7, 8)


def test_arithmetize_clause_interior_value():
    circuit = arithmetize_clause((1, 2, 3))
    assert circuit.eval((Fraction(1, 2),) * 3) == Fraction(7, 8)


def test_arithmetize_repeated_literal_boolean_agreement():
    circuit = arithmetize_clause((1, 1, 1))
    assert circuit.eval((1, 0, 0)) == 1
    assert circuit.eval((0, 1, 1)) == 0


def test_build_p_chain2_boolean_points(chain2):
    built = build_p(chain2, omega_weights(chain2))
    # Layout: x1, x2, then v1's block (proof + padding), then v2's proof.
    assert built.var_count == 5
    point = [1, 1, 1, 0, 1]
    assert built.circuit.eval(point) == 4
    # All answers claimed 0: every node contributes w/2.
    for proofs in itertools.product((0, 1), repeat=3):
        assert built.circuit.eval([0, 0, *proofs]) == 2


def test_build_p_single_vacuous(single_vacuous):
    built = build_p(single_vacuous, omega_weights(single_vacuous))
    assert built.circuit.eval([1]) == 1
    assert built.circuit.eval([0]) == Fraction(1, 2)


def test_multilinear_eval_equals_circuit_on_vertices(chain2):
    built = build_p(chain2, omega_weights(chain2))
    rng = random.Random(1)
    for _ in range(200):
        point = [rng.randint(0, 1) for _ in range(built.var_count)]
        assert multilinear_eval(built.circuit, point) == built.circuit.eval(point)


def test_multilinear_eval_single_vacuous_midpoint(single_vacuous):
    built = build_p(single_vacuous, omega_weights(single_vacuous))
    assert multilinear_eval(built.circuit, [Fraction(1, 2)]) == Fraction(3, 4)


def test_multilinear_eval_capacity():
    built = build_p_for_capacity()
    with pytest.raises(CapacityError):
        multilinear_eval(built.circuit, [Fraction(1, 2)] * built.var_count, cap=2)


def build_p_for_capacity():
    from querydag import build_dag

    g = build_dag(
        [(1, "verifier", [], 2, [[1], [2]]), (2, "verifier", [1], 2, [[1]])], 2
    )
    return build_p(g, omega_weights(g))


def test_unsatisfiable_two_sat_shows_why_linearization_matters():
    # Arithmetize the four 2-literal clauses of an unsatisfiable 2-SAT formula
    # directly: the raw product evaluates to (3/4)^4 at the all-1/2 point even
    # though no Boolean point scores above 0, while the multilinear extension
    # stays 0 there.
    builder = CircuitBuilder()
    factors = []
    for l1, l2 in ((1, 2), (-1, 2), (1, -2), (-1, -2)):
        prod = builder.mul(
            (
                builder.literal(abs(l1) - 1, l1 < 0),
                builder.literal(abs(l2) - 1, l2 < 0),
            )
        )
        factors.append(
            builder.add((builder.const(1), builder.mul((builder.const(-1), prod))))
        )
    q = builder.finish(builder.mul(tuple(factors)))
    for z in itertools.product((0, 1), repeat=2):
        assert q.eval(z) == 0
    half = (Fraction(1, 2), Fraction(1, 2))
    assert q.eval(half) == Fraction(3, 4) ** 4
    assert multilinear_eval(q, half) == 0


def test_multilinearity_affine_in_each_coordinate(chain2):
    built = build_p(chain2, omega_weights(chain2))
    rng = random.Random(3)
    points = (Fraction(0), Fraction(1, 2), Fraction(1))
    for _ in range(100):
        k = rng.randrange(built.var_count)
        base = [rng.randint(0, 1) for _ in range(built.var_count)]
        values = []
        for s in points:
            point = list(base)
            point[k] = s
            values.append(multilinear_eval(built.circuit, point))
        assert values[1] - values[0] == values[2] - values[1]


def test_range_of_multilinear_extension(chain3):
    built = build_p(chain3, omega_weights(chain3))
    top = sum(omega_weights(chain3).values())
    rng = random.Random(9)
    for _ in range(40):
        point = [Fraction(rng.randint(0, 4), 4) for _ in range(built.var_count)]
        value = multilinear_eval(built.circuit, point)
        assert 0 <= value <= top


def test_interior_points_never_beat_the_vertex_maximum(chain2):
    built = build_p(chain2, omega_weights(chain2))
    best, _ = brute_force_max(built.circuit, built.var_count)
    rng = random.Random(11)
    for _ in range(100):
        point = [Fraction(rng.randint(0, 8), 8) for _ in range(built.var_count)]
        assert multilinear_eval(built.circuit, point) <= best


def test_brute_force_max_chain2(chain2):
    built = build_p(chain2, omega_weights(chain2))
    best, witness = brute_force_max(built.circuit, built.var_count)
    assert best == 4
    assert witness[:2] == (1, 1)
    x = extract_from_optimum(chain2, built, witness)
    assert x == {1: 1, 2: 1}


def test_brute_force_max_v1_unsat(chain2_v1_unsat):
    # Best is the x1 = 0 branch; computed exactly by enumeration the maximum
    # is 3/2 + 1/2 = 2 at x = 00.
    built = build_p(chain2_v1_unsat, omega_weights(chain2_v1_unsat))
    best, witness = brute_force_max(built.circuit, built.var_count)
    assert best == 2
    x = extract_from_optimum(chain2_v1_unsat, built, witness)
    assert x == {1: 0, 2: 0}


def test_brute_force_max_single_vacuous(single_vacuous):
    built = build_p(single_vacuous, omega_weights(single_vacuous))
    best, witness = brute_force_max(built.circuit, built.var_count)
    assert best == 1
    assert witness == (1,)
    assert extract_from_optimum(single_vacuous, built, witness) == {1: 1}


def test_brute_force_max_capacity(chain2):
    built = build_p(chain2, omega_weights(chain2))
    with pytest.raises(CapacityError):
        brute_force_max(built.circuit, built.var_count, cap=3)


def test_extract_from_optimum_rejects_bad_vertex(chain2):
    built = build_p(chain2, omega_weights(chain2))
    with pytest.raises(PipelineError):
        extract_from_optimum(chain2, built, (0, 1, 0, 0, 0))


def test_maximum_equivalence_with_objective_on_random_instances():
    for seed in range(8):
        g = random_instance(seed, max_n=4)
        weights = omega_weights(g)
        built = build_p(g, weights)
        if built.var_count > 14:
            continue
        best, witness = brute_force_max(built.circuit, built.var_count)
        assert 2 * best == brute_two_t(g, weights)
        x = extract_from_optimum(g, built, witness)
        oracle = ProofOracle()
        inst = ThresholdInstance(g, weights, 0, {})
        assert max_t_for_assignment(inst, x, oracle) == 2 * best


def test_audit_chain2(chain2):
    audit = audit_weak_compression(chain2)
    assert audit.bits == 4  # 2T = 8
    assert audit.queries_used <= audit.bits + 1


def test_audit_single_vacuous(single_vacuous):
    audit = audit_weak_compression(single_vacuous)
    assert audit.bits == 2  # 2T = 2
    assert audit.queries_used <= 3


def test_audit_chain3(chain3):
    audit = audit_weak_compression(chain3)
    assert audit.bits == 5  # 2T = 26 with weights 9, 3, 1
    assert audit.queries_used <= 6


def test_common_padding_invariant(chain2):
    clauses_by_node, n_common = three_cnf_for_dag(chain2)
    assert n_common == 2
    assert list(clauses_by_node) == chain2.topo_order()
    for nid in clauses_by_node:
        assert len(clauses_by_node[nid]) == 2
        assert all(abs(l) <= n_common for cl in clauses_by_node[nid] for l in cl)
