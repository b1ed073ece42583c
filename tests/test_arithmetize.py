import itertools
import random
from fractions import Fraction

import pytest

from querydag import (
    CapacityError,
    PipelineError,
    ProofOracle,
    QueryNode,
    max_t_for_assignment,
    omega_weights,
)
from querydag.arithmetize import (
    CircuitBuilder,
    audit_weak_compression,
    brute_force_max,
    build_p,
    extract_from_optimum,
    three_cnf_for_dag,
    to_three_cnf,
)

from arithmetize_reference import brute_force_max_full, multilinear_eval
from conftest import brute_two_t, random_instance


def node_with(clauses, proof_vars=1, inputs=()):
    return QueryNode(1, "verifier", tuple(inputs), proof_vars, tuple(clauses))


def test_three_cnf_long_clause_split():
    node = node_with([(1, 2, 3, 4)], proof_vars=4)
    clauses, var_count = to_three_cnf(node)
    assert len(clauses) == 2
    assert var_count - node.var_count == 1
    a = 5
    assert clauses == ((1, 2, a), (-a, 3, 4))


def test_three_cnf_padding_by_repetition():
    # Clauses of 1 to 3 literals repeat their last literal up to width 3.
    clauses, var_count = to_three_cnf(node_with([(1,), (1, -2), (-1, 2, 1)], proof_vars=2))
    assert clauses == ((1, 1, 1), (1, -2, -2), (-1, 2, 1))
    assert var_count == 2


def test_three_cnf_empty_clause_is_a_fresh_contradictory_pair():
    clauses, var_count = to_three_cnf(node_with([(1,), ()], proof_vars=1))
    assert clauses == ((1, 1, 1), (2, 2, 2), (-2, -2, -2))
    assert var_count == 2


def test_three_cnf_chain2_v2(chain2):
    clauses, _ = to_three_cnf(chain2.by_id[2])
    assert clauses == ((1, 1, 1), (2, 2, 2))


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
        clauses3, var_count = to_three_cnf(node)
        widened = QueryNode(1, "verifier", node.inputs, var_count - indeg, clauses3)
        bits = "".join(rng.choice("01") for _ in range(indeg))
        assert enum_sat(node, bits) == enum_sat(widened, bits)


def test_arithmetize_clause_matches_paper_form():
    # (z1 or not-z2 or z3) becomes 1 - (1 - z1) z2 (1 - z3).
    builder = CircuitBuilder()
    circuit = builder.finish(builder.clause(((0, True), (1, False), (2, True))), 3)
    for z in itertools.product((0, 1), repeat=3):
        truth = int(z[0] or (not z[1]) or z[2])
        assert circuit.eval(z) == truth
    assert circuit.eval((Fraction(1, 2),) * 3) == Fraction(7, 8)


def test_arithmetize_clause_interior_value():
    builder = CircuitBuilder()
    circuit = builder.finish(builder.clause(((0, True), (1, True), (2, True))), 3)
    assert circuit.eval((Fraction(1, 2),) * 3) == Fraction(7, 8)


def test_arithmetize_repeated_literal_boolean_agreement():
    builder = CircuitBuilder()
    circuit = builder.finish(builder.clause(((0, True), (0, True), (0, True))), 3)
    assert circuit.eval((1, 0, 0)) == 1
    assert circuit.eval((0, 1, 1)) == 0


def test_build_p_chain2_boolean_points(chain2):
    circuit, x_coord = build_p(chain2, omega_weights(chain2))
    # Layout: x1, x2, then v1's block (proof + padding), then v2's proof.
    assert circuit.var_count == 5
    assert x_coord == {1: 0, 2: 1}
    point = [1, 1, 1, 0, 1]
    assert circuit.eval(point) == 4
    # All answers claimed 0: every node contributes w/2.
    for proofs in itertools.product((0, 1), repeat=3):
        assert circuit.eval([0, 0, *proofs]) == 2


def test_build_p_single_vacuous(single_vacuous):
    circuit, _ = build_p(single_vacuous, omega_weights(single_vacuous))
    assert circuit.eval([1]) == 1
    assert circuit.eval([0]) == Fraction(1, 2)


def test_multilinear_eval_equals_circuit_on_vertices(chain2):
    circuit, _ = build_p(chain2, omega_weights(chain2))
    rng = random.Random(1)
    for _ in range(200):
        point = [rng.randint(0, 1) for _ in range(circuit.var_count)]
        assert multilinear_eval(circuit, point) == circuit.eval(point)


def test_multilinear_eval_single_vacuous_midpoint(single_vacuous):
    circuit, _ = build_p(single_vacuous, omega_weights(single_vacuous))
    assert multilinear_eval(circuit, [Fraction(1, 2)]) == Fraction(3, 4)


def test_multilinear_eval_capacity():
    circuit, _ = build_p_for_capacity()
    with pytest.raises(CapacityError):
        multilinear_eval(circuit, [Fraction(1, 2)] * circuit.var_count, cap=2)


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
    q = builder.finish(builder.mul(tuple(factors)), 2)
    for z in itertools.product((0, 1), repeat=2):
        assert q.eval(z) == 0
    half = (Fraction(1, 2), Fraction(1, 2))
    assert q.eval(half) == Fraction(3, 4) ** 4
    assert multilinear_eval(q, half) == 0


def test_multilinearity_affine_in_each_coordinate(chain2):
    circuit, _ = build_p(chain2, omega_weights(chain2))
    rng = random.Random(3)
    points = (Fraction(0), Fraction(1, 2), Fraction(1))
    for _ in range(100):
        k = rng.randrange(circuit.var_count)
        base = [rng.randint(0, 1) for _ in range(circuit.var_count)]
        values = []
        for s in points:
            point = list(base)
            point[k] = s
            values.append(multilinear_eval(circuit, point))
        assert values[1] - values[0] == values[2] - values[1]


def test_range_of_multilinear_extension(chain3):
    circuit, _ = build_p(chain3, omega_weights(chain3))
    top = sum(omega_weights(chain3).values())
    rng = random.Random(9)
    for _ in range(40):
        point = [Fraction(rng.randint(0, 4), 4) for _ in range(circuit.var_count)]
        value = multilinear_eval(circuit, point)
        assert 0 <= value <= top


def test_interior_points_never_beat_the_vertex_maximum(chain2):
    circuit, _ = build_p(chain2, omega_weights(chain2))
    best, _ = brute_force_max(circuit)
    rng = random.Random(11)
    for _ in range(100):
        point = [Fraction(rng.randint(0, 8), 8) for _ in range(circuit.var_count)]
        assert multilinear_eval(circuit, point) <= best


def test_brute_force_max_chain2(chain2):
    circuit, x_coord = build_p(chain2, omega_weights(chain2))
    best, witness = brute_force_max(circuit)
    assert best == 4
    assert witness[:2] == (1, 1)
    x = extract_from_optimum(chain2, x_coord, witness)
    assert x == {1: 1, 2: 1}


def test_brute_force_max_v1_unsat(chain2_v1_unsat):
    # Best is the x1 = 0 branch; computed exactly by enumeration the maximum
    # is 3/2 + 1/2 = 2 at x = 00.
    circuit, x_coord = build_p(chain2_v1_unsat, omega_weights(chain2_v1_unsat))
    best, witness = brute_force_max(circuit)
    assert best == 2
    x = extract_from_optimum(chain2_v1_unsat, x_coord, witness)
    assert x == {1: 0, 2: 0}


def test_brute_force_max_single_vacuous(single_vacuous):
    circuit, x_coord = build_p(single_vacuous, omega_weights(single_vacuous))
    best, witness = brute_force_max(circuit)
    assert best == 1
    assert witness == (1,)
    assert extract_from_optimum(single_vacuous, x_coord, witness) == {1: 1}


def test_brute_force_max_capacity(chain2):
    circuit, _ = build_p(chain2, omega_weights(chain2))
    with pytest.raises(CapacityError):
        brute_force_max(circuit, cap=3)


def test_brute_force_max_enumerates_only_read_coordinates(chain2):
    # Coordinate 3 pads v1's block to v2's two local variables and no gate
    # reads it: 2^4 points are evaluated, not 2^5, and the maximum and the
    # lex-least witness are those of enumerating every point.
    circuit, _ = build_p(chain2, omega_weights(chain2))
    assert circuit.var_count == 5
    evaluated = []
    full = brute_force_max_full(circuit)
    circuit.eval = lambda point, eval=circuit.eval: evaluated.append(point[3]) or eval(point)
    assert brute_force_max(circuit) == full == (4, (1, 1, 1, 0, 1))
    assert evaluated == [0] * 16


def test_brute_force_max_matches_full_enumeration_on_the_corpus():
    # Every corpus instance whose circuit has at most 12 coordinates, 363 of
    # the 1000; 138 of those circuits read every coordinate.
    compared = skipping = 0
    for seed in range(1000):
        g = random_instance(seed)
        circuit, _ = build_p(g, omega_weights(g))
        if circuit.var_count > 12:
            continue
        read = {value for kind, value, _ in circuit.gates if kind == "var"}
        skipping += len(read) < circuit.var_count
        assert brute_force_max(circuit) == brute_force_max_full(circuit), seed
        compared += 1
    assert (compared, skipping) == (363, 225)


def test_extract_from_optimum_rejects_bad_vertex(chain2):
    _, x_coord = build_p(chain2, omega_weights(chain2))
    with pytest.raises(PipelineError):
        extract_from_optimum(chain2, x_coord, (0, 1, 0, 0, 0))


def test_maximum_equivalence_with_objective_on_random_instances():
    for seed in range(8):
        g = random_instance(seed, max_n=4)
        weights = omega_weights(g)
        circuit, x_coord = build_p(g, weights)
        if circuit.var_count > 14:
            continue
        best, witness = brute_force_max(circuit)
        assert 2 * best == brute_two_t(g, weights)
        x = extract_from_optimum(g, x_coord, witness)
        oracle = ProofOracle()
        assert max_t_for_assignment(g, weights, x, oracle) == 2 * best


def test_audit_chain2(chain2):
    bits, queries_used = audit_weak_compression(chain2, omega_weights(chain2))
    assert bits == 4  # 2T = 8
    assert queries_used <= bits + 1


def test_audit_single_vacuous(single_vacuous):
    bits, queries_used = audit_weak_compression(
        single_vacuous, omega_weights(single_vacuous)
    )
    assert bits == 2  # 2T = 2
    assert queries_used <= 3


def test_audit_chain3(chain3):
    bits, queries_used = audit_weak_compression(chain3, omega_weights(chain3))
    assert bits == 5  # 2T = 26 with weights 9, 3, 1
    assert queries_used <= 6


def test_common_padding_invariant(chain2):
    clauses_by_node, n_common = three_cnf_for_dag(chain2)
    assert n_common == 2
    assert list(clauses_by_node) == chain2.topo_order()
    for nid in clauses_by_node:
        assert len(clauses_by_node[nid]) == 2
        assert all(abs(l) <= n_common for cl in clauses_by_node[nid] for l in cl)


def test_build_p_checks_its_cap_against_the_circuit_it_would_build():
    # The count build_p checks before laying out any coordinate is the
    # circuit's own var_count: a cap of exactly that builds the same
    # circuit, one less is refused with brute_force_max's message.
    for seed in range(300):
        g = random_instance(seed)
        weights = omega_weights(g)
        circuit, x_coord = build_p(g, weights)
        n = circuit.var_count
        capped, capped_coord = build_p(g, weights, cap=n)
        assert (capped.to_doc(), capped_coord) == (circuit.to_doc(), x_coord), seed
        with pytest.raises(CapacityError, match=f"^{n} variables exceed the cap of {n - 1}$"):
            build_p(g, weights, cap=n - 1)
