import builtins
import gc
import itertools
import random
import sys
import tracemalloc
import weakref

import pytest

from querydag import (
    BruteForceBackend,
    CapacityError,
    EvaluationBackend,
    PipelineError,
    ProofOracle,
    QueryNode,
    ValidationError,
    build_compressed,
    build_dag,
    build_separator_tree,
    binary_search_T,
    check_admissible,
    decide_compress,
    decide_depth,
    decide_direct,
    evaluate,
    extract_query_string,
    max_t_for_assignment,
    omega_weights,
    rho_weights,
    sat_exists_proof,
    search_budget,
    threshold_oracle,
    total_weight,
)

from querydag.cli import gen_instance

from compress_reference import least_weights
from conftest import brute_two_t, code_of, enum_evaluate, enum_sat, random_instance, search


def test_sat_chain2_nodes(chain2):
    v1, v2 = chain2.nodes
    assert sat_exists_proof(v1, 0)
    assert not sat_exists_proof(v2, 0)
    assert sat_exists_proof(v2, 1)


def test_sat_empty_clause_list():
    node = QueryNode(1, "verifier", (), 0, ())
    assert sat_exists_proof(node, 0)


def test_sat_empty_clause_is_unsat():
    node = QueryNode(1, "verifier", (), 2, ((),))
    assert not sat_exists_proof(node, 0)


@pytest.mark.parametrize("code", [-1, 2])
def test_sat_rejects_a_code_outside_the_input_width(chain2, code):
    # Node 2 has one input, so its codes are 0 and 1; the check comes
    # before the clause-free shortcut, and the memo keeps no bad code.
    node = chain2.by_id[2]
    bare = QueryNode(2, "verifier", (1,), 0, ())
    oracle = ProofOracle()
    for target in (node, bare):
        with pytest.raises(ValueError, match=rf"node 2: input code {code} outside \[0, 2\*\*1\)"):
            sat_exists_proof(target, code)
        with pytest.raises(ValueError, match="node 2: input code"):
            oracle.exists(target, code)
        with pytest.raises(ValueError, match="node 2: input code"):
            oracle.exists_each(target, [0, code])
    assert oracle.stats.proof_distinct == 2
    # A code of 2**70 or more is out of range for a node of 70 inputs.
    wide = QueryNode(9, "verifier", tuple(range(100, 170)), 0, ((1, 70),))
    assert sat_exists_proof(wide, 2**70 - 1)
    with pytest.raises(ValueError, match="node 9: input code"):
        sat_exists_proof(wide, 2**70)


def _near_threshold_cnf(rng, proof_vars, wires):
    """A random 3-CNF over the proof block at clause ratio 4.2, plus a clause
    (-wire, l1, l2) per input wire, as the benchmark's SAT-heavy nodes are."""
    proof = range(wires + 1, wires + proof_vars + 1)

    def clause(width):
        return tuple(v * rng.choice((1, -1)) for v in rng.sample(proof, width))

    clauses = [clause(3) for _ in range(round(4.2 * proof_vars))]
    clauses += [(-wire,) + clause(2) for wire in range(1, wires + 1)]
    inputs = tuple(range(100, 100 + wires))
    bits = "".join(rng.choice("01") for _ in range(wires))
    return QueryNode(1, "verifier", inputs, proof_vars, tuple(clauses)), bits


def _random_cnfs():
    """The formulas of test_sat_matches_enumeration_on_random_cnfs: 2,000
    small ones, then 100 near the threshold, as (node, input bits) lists."""
    # Narrow variable ranges and wide clauses make tautologies, duplicate
    # literals and input-only clauses common; a few clauses are empty.
    rng = random.Random(7)
    small = []
    for _ in range(2000):
        pv = rng.randint(0, 10)
        indeg = rng.randint(0, 3)
        n = indeg + pv
        clauses = []
        for _ in range(rng.randint(0, 9)):
            width = rng.randint(1, 4) if n and rng.random() > 0.03 else 0
            clauses.append(
                tuple(rng.randint(1, n) * rng.choice((1, -1)) for _ in range(width))
            )
        node = QueryNode(1, "verifier", tuple(range(100, 100 + indeg)), pv, tuple(clauses))
        bits = "".join(rng.choice("01") for _ in range(indeg))
        small.append((node, bits))
    # Those are almost all satisfiable.  Near ratio 4.2 both answers are
    # common, and the search keeps reaching states with clauses of two free
    # literals and states with none.
    rng = random.Random(11)
    near = [_near_threshold_cnf(rng, 10, rng.randint(0, 3)) for _ in range(100)]
    return small, near


def _branching_cnfs():
    """The 40 formulas of test_dpll_branches_on_two_literal_clauses."""
    rng = random.Random(12)
    return [_near_threshold_cnf(rng, 18, rng.randint(0, 3)) for _ in range(40)]


def test_sat_matches_enumeration_on_random_cnfs():
    for cases in _random_cnfs():
        answers = set()
        for node, bits in cases:
            answer = sat_exists_proof(node, code_of(bits))
            assert answer == enum_sat(node, bits), (node, bits)
            answers.add(answer)
        assert answers == {True, False}


@pytest.fixture
def searches(monkeypatch):
    """Search nodes, i.e. _propagate calls, of oracle's DPLL and of the
    clause-list reference's, counted under each module as it runs."""
    import dpll_reference
    from querydag import oracle

    calls = {oracle: 0, dpll_reference: 0}
    for module in calls:

        def wrapped(*args, module=module, propagate=module._propagate):
            calls[module] += 1
            return propagate(*args)

        monkeypatch.setattr(module, "_propagate", wrapped)
    return calls


def test_dpll_branches_on_two_literal_clauses(searches):
    # Branching on the smallest free variable needed 810 search nodes on
    # these 40 formulas.  A branch on a clause with two free literals
    # satisfies it or forces its other literal, and the search needs 503.
    from querydag import oracle

    answers = set()
    for node, bits in _branching_cnfs():
        answers.add(sat_exists_proof(node, code_of(bits)))
    assert answers == {True, False}
    assert searches[oracle] == 503


def _assert_searches_as_the_reference(searches, cases):
    """Each of `cases`, (node, input bits) pairs, gets the reference's
    answer from a search tree of the same size, the package's DPLL given
    the bits' code and the reference the bits; returns the total size."""
    import dpll_reference
    from querydag import oracle

    total = 0
    for node, bits in cases:
        searches[oracle] = searches[dpll_reference] = 0
        answer = sat_exists_proof(node, code_of(bits))
        assert answer == dpll_reference.sat_exists_proof(node, bits), (node, bits)
        # A clause-free node is answered before any search.
        searched = searches[dpll_reference] if node.clauses else 0
        assert searches[oracle] == searched, (node, bits)
        total += searched
    return total


def test_dpll_searches_as_the_clause_list_reference(searches):
    # Incremental propagation reaches the same fixpoint as re-scanning the
    # live clauses, and the branch rule is the same, so every formula gets
    # the same answer from a search tree of the same size.
    small, near = _random_cnfs()
    assert _assert_searches_as_the_reference(searches, small + near) == 3486
    _assert_searches_as_the_reference(searches, _branching_cnfs())


# Hand-built nodes for the root's clause list: inputs 100.. are variables
# 1..k, the wires, and the proof variables follow.
ROOT_CNFS = (
    # An empty clause, among clauses over wires only and wire-plus-proof.
    ((100, 101), 2, ((1, 3), (), (-2, 4), (1, -2))),
    # A wire forcing a proof variable whose clauses, none of them read at
    # the root, then shorten to units and a conflict.
    ((100, 101), 3, ((-1, 3), (-3, 4, 5), (-3, -4), (-3, -5), (2, 4, 5))),
    # A unit proof clause, repeated literals and tautologies.
    ((100,), 3, ((3,), (2, 2), (-3, 4, 4), (2, -2, 3), (1, -1), (4, -2, -4, 1), (-1, 2, 2))),
    # An input wire in no clause: variable 2 takes no bit.
    ((100, 101, 102), 3, ((1, 4), (-3, -4, 5), (4, 5, 6), (-5, -6), (-4, 6), (3, 3, 5))),
    # Only wires, so every clause is read at the root.
    ((100, 101), 0, ((1, 2), (-1, -2), (1, -2))),
    # No wires: the root reads only the clauses over one variable.
    ((), 3, ((1, 2), (-1,), (2, 3, -1), (-2, 3), (-3, -3))),
)


def test_root_reads_the_clauses_with_at_most_one_literal_off_the_wires(searches):
    for inputs, pv, clauses in ROOT_CNFS:
        node = QueryNode(1, "verifier", inputs, pv, clauses)
        cnf = node.cnf
        k = len(inputs)
        kept = [c for c in clauses if not any(-lit in c for lit in c)]
        assert len(kept) == len(cnf.clauses)
        assert all(both == pos | neg for pos, neg, both in cnf.clauses)
        expected = [
            entry
            for clause, entry in zip(kept, cnf.clauses)
            if len({abs(lit) for lit in clause if abs(lit) > k}) <= 1
        ]
        assert list(map(id, cnf.on_false[0])) == list(map(id, expected)), clauses
        strings = ["".join(bits) for bits in itertools.product("01", repeat=k)]
        _assert_searches_as_the_reference(searches, [(node, bits) for bits in strings])
        answers = [sat_exists_proof(node, code_of(bits)) for bits in strings]
        assert answers == [enum_sat(node, bits) for bits in strings], clauses


def test_compiled_form_is_reused_across_input_strings():
    # One node object answers every input string, forwards and then
    # backwards, from the one compiled form it keeps; a decision that left
    # anything behind in that form would show in a later answer.
    rng = random.Random(5)
    nodes = [_near_threshold_cnf(rng, 8, 3)[0] for _ in range(12)]
    for _ in range(30):
        k = rng.randint(1, 3)
        clauses = tuple(
            tuple(rng.randint(1, k + 4) * rng.choice((1, -1)) for _ in range(rng.randint(1, 3)))
            for _ in range(rng.randint(1, 12))
        )
        nodes.append(QueryNode(1, "verifier", tuple(range(100, 100 + k)), 4, clauses))
    varied = 0
    for node in nodes:
        k = len(node.inputs)
        strings = ["".join(bits) for bits in itertools.product("01", repeat=k)]
        expected = {bits: enum_sat(node, bits) for bits in strings}
        answers = [sat_exists_proof(node, code_of(bits)) for bits in strings + strings[::-1]]
        assert answers == [expected[bits] for bits in strings + strings[::-1]], node
        assert "cnf" in node.__dict__
        varied += len(set(answers)) == 2
    assert varied >= 10


def test_clause_free_nodes_and_parsing_compile_nothing():
    g = gen_instance("layered", 12, 3)
    assert not any("cnf" in node.__dict__ for node in g.nodes)
    free = QueryNode(1, "verifier", (4, 5), 3, ())
    assert sat_exists_proof(free, 0b01)
    assert "cnf" not in free.__dict__
    node = g.by_id[g.output]
    sat_exists_proof(node, 0)
    assert "cnf" in node.__dict__


def test_sat_agrees_with_enumeration_at_sixteen_proof_vars():
    rng = random.Random(3)
    clauses = []
    for _ in range(8):
        clauses.append(
            tuple(rng.randint(1, 16) * rng.choice((1, -1)) for _ in range(3))
        )
    node = QueryNode(1, "verifier", (), 16, tuple(clauses))
    assert sat_exists_proof(node, 0) == enum_sat(node, "")


# (inputs, proof vars, clauses, input bits, expected answer)
EDGE_CNFS = {
    "tautology": ((), 1, ((-1, 1),), "", True),
    "tautology-beside-unit": ((), 1, ((-1, 1), (-1,)), "", True),
    "tautology-beside-contradiction": ((), 1, ((1, -1), (1,), (-1,)), "", False),
    "tautology-over-input": ((5,), 0, ((-1, 1),), "0", True),
    "duplicate-literals-contradict": ((), 1, ((1, 1), (-1, -1)), "", False),
    "duplicate-literals-satisfiable": ((), 2, ((1, 1, 2), (-1,)), "", True),
    "zero-proof-vars-sat": ((7, 8), 0, ((1, 2), (-1,)), "01", True),
    "zero-proof-vars-unsat": ((7, 8), 0, ((1, 2), (-1,)), "00", False),
    "zero-proof-vars-false-unit": ((7, 8), 0, ((1, 2), (-1,)), "10", False),
    "input-only-clauses-beside-proof-vars": ((7,), 2, ((1,),), "0", False),
    "input-only-clauses-satisfied": ((7,), 2, ((1,), (-1, 2, 3)), "1", True),
}


@pytest.mark.parametrize("name", sorted(EDGE_CNFS))
def test_sat_edge_cases(name):
    inputs, pv, clauses, bits, expected = EDGE_CNFS[name]
    node = QueryNode(1, "verifier", inputs, pv, clauses)
    assert sat_exists_proof(node, code_of(bits)) is expected
    assert enum_sat(node, bits) is expected


def test_sat_masks_do_not_grow_with_variable_numbers():
    # Bit v of a mask for variable v would make every mask about 1.25 MB
    # here; only the four variables in use may take bits.
    big = 10**7
    clauses = ((big, -1), (-big, big - 1), (-(big - 1),), (1, 2))
    node = QueryNode(1, "verifier", (5, 6, 7), big, clauses)
    tracemalloc.start()
    try:
        answers = [sat_exists_proof(node, code) for code in (0b000, 0b100, 0b010)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert answers == [False, False, True]
    assert peak < 5 * 2**20


def test_proof_memo_keeps_graphs_with_colliding_ids_apart():
    sat = build_dag([(1, "verifier", [], 1, [[1]])], 1)
    unsat = build_dag([(1, "verifier", [], 1, [[1], [-1]])], 1)
    oracle = ProofOracle()
    assert evaluate(sat, oracle)[sat.output] == 1
    assert evaluate(unsat, oracle)[unsat.output] == 0
    assert evaluate(sat, oracle)[sat.output] == 1
    stats = oracle.stats
    assert (stats.proof_queries, stats.proof_distinct) == (3, 2)


def test_proof_memo_records_every_issued_call(chain2):
    oracle = ProofOracle(transcript=True)
    v1, v2 = chain2.nodes
    answers = [oracle.exists(v2, 0) for _ in range(3)] + [oracle.exists(v2, 1)]
    assert answers == [False, False, False, True]
    stats = oracle.stats
    assert stats.proof_queries == len(stats.to_doc()) == 4
    assert stats.proof_distinct == 2
    assert [entry["inputs"] for entry in stats.to_doc()] == ["0", "0", "0", "1"]


def test_proof_oracle_keys_its_memo_on_node_and_code():
    # The memo key is the node and the code as given; the transcript
    # renders the code as the node's '0'/'1' string.
    node = build_dag(
        [(1, "verifier", [], 0, []), (2, "verifier", [], 0, []),
         (3, "verifier", [1, 2], 1, [[1], [-2], [3]])],
        3,
    ).by_id[3]
    oracle = ProofOracle(transcript=True)
    given = int("10", 2)
    answers = [
        oracle.exists(node, given),
        oracle.exists(node, 0b10),
        oracle.exists(node, 0b11),
    ]
    assert answers == [True, True, False]
    stats = oracle.stats
    assert [key[1] for key in stats.decisions] == [0b10, 0b11]
    assert list(stats.decisions) == [(node, 2), (node, 3)]
    assert next(iter(stats.decisions))[0] is node
    assert [entry["inputs"] for entry in stats.to_doc()] == ["10", "10", "11"]
    assert (stats.proof_queries, stats.proof_distinct) == (3, 2)


def test_exists_and_exists_each_share_one_memo(monkeypatch):
    # A decision made through either method is a memo hit through the
    # other: one DPLL run, one distinct decision, every call counted.
    from querydag import oracle as oracle_module

    runs = []

    def counted(node, code):
        runs.append((node.id, code))
        return sat_exists_proof(node, code)

    monkeypatch.setattr(oracle_module, "sat_exists_proof", counted)
    node = build_dag([(1, "verifier", [], 0, []), (2, "verifier", [1], 1, [[1, 2], [-2]])], 2).by_id[2]
    for first, second in (("each", "one"), ("one", "each")):
        oracle = ProofOracle(transcript=True)
        runs.clear()
        answers = []
        for how in (first, second):
            if how == "one":
                answers.append(oracle.exists(node, 1))
            else:
                answers.append(oracle.exists_each(node, [1, 1]) == {1: 1})
        stats = oracle.stats
        assert answers == [True, True]
        assert runs == [(2, 1)]
        assert stats.proof_distinct == 1
        assert stats.proof_queries == 3
        assert [entry["inputs"] for entry in stats.to_doc()] == ["1"] * 3


def test_transcript_renders_codes_at_the_node_width():
    # Width 0 renders as "", and leading zeros are kept: code 1 at width 3
    # is "001", through record_proof and record_proofs alike.
    node = build_dag(
        [(1, "verifier", [], 0, []), (2, "verifier", [], 0, []), (3, "verifier", [], 0, []),
         (4, "verifier", [1, 2, 3], 1, [[-1, 4], [-4, 3]])],
        4,
    ).by_id
    oracle = ProofOracle(transcript=True)
    oracle.exists(node[1], 0)
    oracle.exists_each(node[2], [0])
    oracle.exists(node[4], 1)
    oracle.exists_each(node[4], [1, 0b100])
    assert [(entry["node"], entry["inputs"], entry["answer"]) for entry in oracle.stats.to_doc()] == [
        (1, "", True), (2, "", True), (4, "001", True), (4, "001", True), (4, "100", False),
    ]


@pytest.mark.parametrize("last", [0, 1])
def test_a_star_of_seventy_sources_is_decided_through_one_wide_code(last):
    # The output reads 70 wires, so its input code is 70 bits wide, more
    # than a machine word.  Its clauses read the first input, the most
    # significant bit, and the last, the least, whose source answers
    # `last`, and the answer follows it.  Every method must give
    # enumeration's answer and witness.
    n = 70
    specs = [(i, "verifier", [], 1, [[1], [-1]] if i % 3 == 0 else [[1]]) for i in range(1, n)]
    specs.append((n, "verifier", [], 1, [[1]] if last else [[1], [-1]]))
    specs.append((n + 1, "verifier", list(range(1, n + 1)), 1, [[1], [-n, n + 1], [-(n + 1), 3]]))
    g = build_dag(specs, n + 1)
    bits, answer = enum_evaluate(g)
    assert answer == 1 - last
    code = int("".join(str(bits[p]) for p in range(1, n + 1)), 2)
    assert code.bit_length() == n > 64
    for decide in (decide_direct, decide_depth, decide_compress):
        report = decide(g, witness=True)
        assert (report.answer, report.query_string) == (answer, bits), decide
        assert (g.by_id[n + 1], code) in report.stats.decisions, decide


def test_profile_takes_two_t_in_closed_form():
    # On the correct string every forced bit equals its bit, so the profile
    # scores it as sum of w(1 + x) without a further proof call: one call
    # per node that asks one, |V| on g and |G*| - 1 on G*, whose conductor
    # asks none.  The objective must agree.
    checked = 0
    for seed in range(1000):
        g = random_instance(seed)
        gstar, fstar = build_compressed(g, build_separator_tree(g))
        for dag, weights, calls in (
            (g, rho_weights(g), len(g.nodes)),
            (gstar, fstar, len(gstar.nodes) - 1),
        ):
            oracle = ProofOracle()
            backend = EvaluationBackend()
            backend.bind(dag, weights, oracle)
            bits, two_t = backend._correct, backend._two_t
            assert oracle.stats.proof_queries == calls, seed
            assert two_t == max_t_for_assignment(dag, weights, bits, ProofOracle()), seed
            checked += 1
    assert checked == 2000


def test_proof_distinct_counts_decisions_not_calls():
    for seed in range(6):
        g = random_instance(seed)
        direct = decide_direct(g).stats
        assert direct.proof_distinct == direct.proof_queries == len(g.nodes)
        report = decide_compress(g, witness=True, transcript=True)
        assert 0 < report.stats.proof_distinct <= report.stats.proof_queries
        assert "proof_distinct" not in report.to_doc()


def test_threshold_examples_chain2(chain2):
    oracle = ProofOracle()
    stats = oracle.stats
    ask = threshold_oracle(chain2, omega_weights(chain2), oracle, BruteForceBackend())
    answers = {}
    for theta in (8, 9, 0):
        answers[theta] = ask(theta, {})
    assert answers == {8: True, 9: False, 0: True}
    assert stats.threshold_queries == 3


def test_threshold_is_monotone(chain2):
    weights = omega_weights(chain2)
    ask = threshold_oracle(chain2, weights, ProofOracle(), BruteForceBackend())
    results = [ask(theta, {}) for theta in range(0, 2 * total_weight(weights) + 2)]
    assert results == sorted(results, reverse=True)


def test_brute_backend_capacity_error(chain2):
    tree = build_separator_tree(chain2)
    gstar, fstar = build_compressed(chain2, tree)
    oracle = ProofOracle()
    brute = BruteForceBackend(cap=3)
    brute.bind(gstar, fstar, oracle)
    with pytest.raises(CapacityError, match="exceed"):
        brute.decide(1, {})


def test_backends_agree_on_plain_and_compressed_instances():
    for seed in range(12):
        g = random_instance(seed, max_n=4)
        weights = omega_weights(g)
        oracle = ProofOracle()
        brute = BruteForceBackend()
        smart = EvaluationBackend()
        brute.bind(g, weights, oracle)
        smart.bind(g, weights, oracle)
        top = 2 * total_weight(weights)
        for theta in range(0, top + 2):
            assert brute.decide(theta, {}) == smart.decide(theta, {})
        tree = build_separator_tree(g)
        gstar, fstar = build_compressed(g, tree)
        if len(gstar.nodes) > 16:
            continue
        brute.bind(gstar, fstar, oracle)
        smart.bind(gstar, fstar, oracle)
        top = 2 * total_weight(fstar)
        for theta in range(0, top + 2, max(1, top // 7)):
            assert brute.decide(theta, {}) == smart.decide(theta, {})


def test_backends_agree_under_pins(chain2):
    weights = omega_weights(chain2)
    oracle = ProofOracle()
    brute = BruteForceBackend()
    smart = EvaluationBackend()
    brute.bind(chain2, weights, oracle)
    smart.bind(chain2, weights, oracle)
    for theta in range(0, 10):
        for pins in ({}, {1: 1}, {1: 0}, {2: 1}, {2: 0}, {1: 1, 2: 0}):
            assert brute.decide(theta, pins) == smart.decide(theta, pins), (theta, pins)


def test_backends_agree_under_pins_on_compressed_instances():
    # Pins agreeing with the maximizer are a comparison against 2T; a
    # flipped pin is false at 2T and above and goes to brute force below.
    for seed in range(12):
        g = random_instance(seed, max_n=4)
        gstar, fstar = build_compressed(g, build_separator_tree(g))
        if len(gstar.nodes) > 12:
            continue
        oracle = ProofOracle()
        correct = evaluate(gstar, oracle)
        brute = BruteForceBackend()
        smart = EvaluationBackend()
        brute.bind(gstar, fstar, oracle)
        smart.bind(gstar, fstar, oracle)
        two_t = max_t_for_assignment(gstar, fstar, correct, oracle)
        order = gstar.topo_order()
        for k in range(len(order) + 1):
            pins = {nid: correct[nid] for nid in order[:k]}
            flipped = dict(pins)
            if k:
                flipped[order[k - 1]] ^= 1
            for theta in (0, two_t - 1, two_t, two_t + 1):
                for p in (pins, flipped):
                    assert brute.decide(theta, p) == smart.decide(theta, p)


WEIGHTED_GRAPHS = {
    "omega": lambda g: (g, omega_weights(g)),
    "rho": lambda g: (g, rho_weights(g)),
    "tightest": lambda g: (g, least_weights(g)),
    "gstar": lambda g: build_compressed(g, build_separator_tree(g)),
}


@pytest.mark.parametrize("kind", sorted(WEIGHTED_GRAPHS))
def test_backends_agree_under_random_pins(kind):
    # Below 2T, a query whose pins disagree with the maximizer is answered
    # by one evaluation under its pins.  Enumeration must agree at 2T - 1,
    # 2T and 2T + 1, at the pinned maximum and one above, and at a sample
    # of lower thresholds.
    rng = random.Random(11)
    below = 0
    for seed in range(36):
        dag, weights = WEIGHTED_GRAPHS[kind](random_instance(seed, max_n=12))
        if len(dag.nodes) > 12:
            continue
        oracle = ProofOracle()
        brute = BruteForceBackend()
        smart = EvaluationBackend()
        brute.bind(dag, weights, oracle)
        smart.bind(dag, weights, oracle)
        two_t = brute_two_t(dag, weights)
        ids = dag.node_ids()
        for _ in range(4):
            pinned = rng.sample(ids, rng.randint(1, len(ids)))
            pins = {nid: rng.randint(0, 1) for nid in pinned}
            best = brute_two_t(dag, weights, pins)
            thetas = {two_t - 1, two_t, two_t + 1, best, best + 1}
            thetas.update(rng.sample(range(two_t), min(3, two_t)))
            below += best < two_t
            for theta in sorted(thetas):
                assert smart.decide(theta, pins) == brute.decide(theta, pins), (seed, theta, pins)
    assert below >= 20


def test_evaluation_backend_decides_a_flipped_pin_on_a_30_chain():
    # 29 free bits: more than enumeration can take, one evaluation for the
    # evaluation backend.
    g = gen_instance("chain", 30, 0)
    weights = rho_weights(g)
    oracle = ProofOracle()
    ask, two_t = search(g, weights, oracle, EvaluationBackend())
    first = g.topo_order()[0]
    flipped = {first: evaluate(g, ProofOracle())[first] ^ 1}
    before = oracle.stats.proof_queries
    assert ask(two_t - 1, flipped) is False
    assert oracle.stats.proof_queries - before <= len(g.nodes)


BACKENDS = {"brute": BruteForceBackend, "eval": EvaluationBackend}


@pytest.mark.parametrize("backend", sorted(BACKENDS))
@pytest.mark.parametrize("kind", ["omega", "gstar"])
def test_a_malformed_pin_is_a_validation_error(kind, backend):
    # Each id the bound graph lacks (past its last node, below its first,
    # between G*'s conductor and its copies, not an int) and each value
    # that is not the bit 0 or 1 must fail one way on both backends: alone,
    # after a settled pin and in a query one entry longer than the last
    # on the same dict, as its newest pin or, for a value, as its settled
    # one, the entries the evaluation backend checks on that path.
    dag, weights = WEIGHTED_GRAPHS[kind](random_instance(2, max_n=6))
    chooser = BACKENDS[backend]()
    chooser.bind(dag, weights, ProofOracle())
    ids = sorted(dag.node_ids())
    outside = [ids[-1] + 1, ids[0] - 1, "a", None]
    if ids[1] - ids[0] > 1:
        outside.append(ids[0] + 1)
    first, second, third = dag.topo_order()[:3]

    def extending(settled, cid, bit):
        pins = {first: 1}
        chooser.decide(0, pins)
        pins[first] = settled
        pins[cid] = bit
        return pins

    # Pins dicts asked alone, the malformed pin newest or after a first pin
    # that agrees with the maximizer or not; and queries on a dict one
    # entry longer, as (settled, newest id, newest bit).
    alone, extended = [], []
    for cid in outside:
        assert cid not in ids
        alone += [{cid: 1}] + [{first: b, cid: 1, second: 0} for b in (0, 1)]
        extended.append((1, cid, 0))
    for bit in (2, -1, 256, "1", 1.0, None):
        alone += [{first: bit}] + [{first: b, second: bit, third: 0} for b in (0, 1)]
        extended += [(1, second, bit), (bit, second, 0)]
    for pins in alone:
        with pytest.raises(ValidationError):
            chooser.decide(0, pins)
    for args in extended:
        with pytest.raises(ValidationError):
            chooser.decide(0, extending(*args))
    assert chooser.decide(0, {first: 0}) is True
    assert chooser.decide(0, extending(False, second, True)) is True


@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_a_weighting_that_lacks_a_node_is_a_validation_error(backend):
    # Binding either backend, and the admissibility check, read every
    # node's weight and must name the node a weighting lacks.
    g = random_instance(2)
    for nid in g.node_ids():
        weights = rho_weights(g)
        del weights[nid]
        with pytest.raises(ValidationError, match=rf"^node {nid}: "):
            threshold_oracle(g, weights, ProofOracle(), BACKENDS[backend]())
        with pytest.raises(ValidationError, match=rf"^node {nid}: "):
            check_admissible(g, weights)


def test_positioned_queries_agree_with_brute_force():
    # Pins sequences driven by hand, each query one entry longer than the
    # last, many of them with settled entries off the maximizer: the
    # evaluation backend's check of the newest pins only must answer as
    # enumeration does.
    rng = random.Random(5)
    off_settled = 0
    for seed in range(32):
        g = random_instance(seed)
        assert len(g.nodes) <= 8
        weights = rho_weights(g)
        oracle = ProofOracle()
        correct = evaluate(g, oracle)
        two_t = max_t_for_assignment(g, weights, correct, oracle)
        brute = BruteForceBackend()
        smart = EvaluationBackend()
        brute.bind(g, weights, oracle)
        smart.bind(g, weights, oracle)
        order = g.topo_order()

        def ask(pins):
            nonlocal off_settled
            off_settled += any(correct[nid] != pins[nid] for nid in order[: len(pins) - 1])
            for theta in (two_t - 1, two_t, two_t + 1):
                assert smart.decide(theta, pins) == brute.decide(theta, pins), (
                    seed, theta, dict(pins)
                )

        def run(pins, settle, stop=len(order)):
            for k, nid in enumerate(order[:stop]):
                pins[nid] = 1
                ask(pins)
                pins[nid] = settle(k, nid)

        flip = rng.randrange(len(order))
        reused = {}
        run(reused, lambda k, nid: correct[nid] ^ (k == flip))
        # The same dict again, cleared and refilled from its first entry, now
        # following the maximizer.  The transcript's contract forbids this,
        # but the backend must still answer right: the refilled dict is not
        # one entry longer than the last query's.
        reused.clear()
        run(reused, lambda k, nid: correct[nid])
        run({}, lambda k, nid: 1)
        run({}, lambda k, nid: rng.randint(0, 1))
        if len(order) >= 3:
            # A different dict one entry longer than the last query's: its
            # first entry is off, the entry the last query left final is not.
            run({}, lambda k, nid: correct[nid], stop=len(order) - 1)
            other = {nid: correct[nid] for nid in order}
            other[order[0]] ^= 1
            ask(other)
    assert off_settled > 100


def test_one_backend_serves_interleaved_profiles():
    # One evaluation backend goes back and forth between three profiles: one
    # graph under rho and under omega, the very same graph object, then a
    # second graph.  An extraction's pinned queries on one of them are
    # separated by pin-free probes on all three, so a profile is found again
    # only by the identity of both the graph and the weighting.
    differ = 0
    for seed in range(16):
        g, h = random_instance(seed), random_instance(seed + 3)
        profiles = [(g, rho_weights(g)), (g, omega_weights(g)), (h, rho_weights(h))]
        two_ts = [brute_two_t(dag, weights) for dag, weights in profiles]
        differ += two_ts[0] != two_ts[1]
        oracle = ProofOracle()
        brute = BruteForceBackend()
        smart = EvaluationBackend()

        def ask(dag, weights, theta, pins):
            smart.bind(dag, weights, oracle)
            brute.bind(dag, weights, oracle)
            answer = smart.decide(theta, pins)
            assert answer == brute.decide(theta, pins), (seed, theta, pins)
            return answer

        def probe():
            for (dag, weights), two_t in zip(profiles, two_ts):
                for theta in (two_t, two_t + 1):
                    ask(dag, weights, theta, {})

        for (dag, weights), two_t in zip(profiles, two_ts):
            for theta in (two_t, two_t - 1):
                pins = {}
                for nid in dag.topo_order():
                    probe()
                    pins[nid] = 1
                    if not ask(dag, weights, theta, pins):
                        pins[nid] = 0
                probe()
    assert differ >= 8


def test_profiled_queries_import_and_recompute_nothing(monkeypatch):
    # Once (dag, weights) is profiled, a threshold query is a lookup: a
    # second binary search and the witness extraction on the bound pair run
    # no import statement, and evaluate neither the admissibility check nor
    # the objective again.
    from querydag import weighting

    g = random_instance(7)
    weights = rho_weights(g)
    oracle = ProofOracle()
    backend = EvaluationBackend()
    ask, two_t = search(g, weights, oracle, backend)

    def forbidden(*args, **kwargs):
        raise AssertionError("a profiled query recomputed its profile")

    imports = []
    real_import = builtins.__import__

    def counting_import(*args, **kwargs):
        imports.append(args[0])
        return real_import(*args, **kwargs)

    # The backends look the objective up in oracle, where it is defined.
    monkeypatch.setattr("querydag.oracle.max_t_for_assignment", forbidden)
    monkeypatch.setattr(weighting, "check_admissible", forbidden)
    monkeypatch.setattr(builtins, "__import__", counting_import)
    again = binary_search_T(ask, search_budget(weights))
    bits = extract_query_string(ask, g, two_t)
    monkeypatch.undo()
    assert imports == []
    assert again == two_t
    assert bits == evaluate(g, ProofOracle())


def _reaches(root, target):
    """Is `target` among the objects held by `root`'s attributes, through
    tuples, lists, sets and dicts?  (A dict takes no weak reference.)"""
    seen = set()
    stack = [vars(root)]
    while stack:
        obj = stack.pop()
        if obj is target:
            return True
        if id(obj) in seen or not isinstance(obj, (tuple, list, set, dict)):
            continue
        seen.add(id(obj))
        stack.extend(gc.get_referents(obj))
    return False


def test_evaluation_backend_keeps_only_the_current_profile(monkeypatch):
    # A backend reused across solves must not keep earlier graphs alive, nor
    # the pins dicts of an earlier solve's queries.
    from querydag import solver

    built = []
    pins_seen = []

    def recording_build(g, tree):
        gstar, fstar = build_compressed(g, tree)
        built.append(weakref.ref(gstar))
        return gstar, fstar

    def recording_oracle(dag, weights, proof_oracle, backend):
        ask = threshold_oracle(dag, weights, proof_oracle, backend)

        def recording_ask(threshold, *pins):
            if pins and type(pins[0]) is dict and len(built) == 1:
                pins_seen.append(pins[0])
            return ask(threshold, *pins)

        return recording_ask

    monkeypatch.setattr(solver, "build_compressed", recording_build)
    monkeypatch.setattr(solver, "threshold_oracle", recording_oracle)
    backend = EvaluationBackend()
    g = random_instance(3)
    first = decide_compress(g, witness=True, backend=backend, transcript=True)
    assert any(_reaches(backend, pins) for pins in pins_seen)
    second = decide_compress(g, backend=backend, transcript=True)
    gc.collect()
    assert len(built) == 2
    assert built[0]() is None and built[1]() is not None
    assert len(pins_seen) > 2
    assert not any(_reaches(backend, pins) for pins in pins_seen)
    assert first.answer == second.answer == evaluate(g, ProofOracle())[g.output]
    witness_doc = first.stats.to_doc()
    assert witness_doc[: len(second.stats.to_doc())] == second.stats.to_doc()


def test_evaluation_backend_rejects_inadmissible_weights(chain2):
    from querydag import ValidationError

    with pytest.raises(ValidationError, match="admissible"):
        EvaluationBackend().bind(chain2, {1: 1, 2: 1}, ProofOracle())


def test_evaluation_backend_rejects_non_integer_weights(chain2):
    from fractions import Fraction

    from querydag import ValidationError

    # Admissible, but a fractional weight leaves no one-unit gap below 2T.
    with pytest.raises(ValidationError, match="integer"):
        EvaluationBackend().bind(chain2, {1: Fraction(7, 2), 2: 1}, ProofOracle())


def test_transcript_replays_identically(chain2):
    first = decide_compress(chain2, transcript=True).stats.to_doc()
    second = decide_compress(chain2, transcript=True).stats.to_doc()
    assert first == second
    assert any(entry["kind"] == "threshold" for entry in first)


def test_transcript_export_fields(chain2):
    oracle = ProofOracle(transcript=True)
    stats = oracle.stats
    weights = omega_weights(chain2)
    threshold_oracle(chain2, weights, oracle, BruteForceBackend())(8, {2: 1})
    entry = stats.to_doc()[-1]
    assert entry["kind"] == "threshold"
    assert entry["threshold"] == "8"
    assert entry["pins"] == {"2": 1}
    assert entry["answer"] is True
    # str() of an int refuses more than 4,300 digits by default.
    threshold_oracle(chain2, weights, oracle, EvaluationBackend())(10**5000, {})
    assert stats.to_doc()[-1]["threshold"] == "1" + "0" * 5000


def test_transcript_renders_the_pins_each_query_was_given():
    # The newest pin may change after its query, and the next query extends
    # the dict by one entry: here each query pins its newest node at 0 or 1
    # in turn, and the caller flips that pin before it pins the next node.
    # The transcript renders every query's pins as they were asked.
    g = gen_instance("chain", 6, 0)
    oracle = ProofOracle(transcript=True)
    ask = threshold_oracle(g, rho_weights(g), oracle, EvaluationBackend())
    pins, asked = {}, []
    for k, nid in enumerate(g.topo_order()):
        pins[nid] = k % 2
        ask(0, pins)
        asked.append({str(n): bit for n, bit in sorted(pins.items())})
        pins[nid] ^= 1
    assert asked[0] == {str(g.topo_order()[0]): 0}
    assert [entry["pins"] for entry in oracle.stats.to_doc() if entry["kind"] == "threshold"] == asked


@pytest.mark.parametrize("make", [BruteForceBackend, EvaluationBackend])
def test_binding_the_bound_pair_again_takes_the_new_proof_oracle(make):
    # A backend bound to one pair under a first proof oracle, then again
    # under a second, as two solves of the same pair would: the evaluation
    # backend profiles the pair again on the second oracle, one proof call
    # per node, and a pinned query below 2T that disagrees with the
    # maximizer makes its proof calls on the second oracle only.
    g = gen_instance("chain", 8, 0)
    weights = rho_weights(g)
    two_t = brute_two_t(g, weights)
    first, second = ProofOracle(), ProofOracle()
    backend = make()
    threshold_oracle(g, weights, first, backend)
    before = first.stats.proof_queries
    ask = threshold_oracle(g, weights, second, backend)
    assert second.stats.proof_queries == (len(g.nodes) if make is EvaluationBackend else 0)
    head = g.topo_order()[0]
    flipped = {head: evaluate(g, ProofOracle())[head] ^ 1}
    assert ask(two_t - 1, flipped) is (brute_two_t(g, weights, flipped) >= two_t - 1)
    assert first.stats.proof_queries == before
    assert first.stats.threshold_queries == 0
    assert second.stats.proof_queries > 0


@pytest.mark.parametrize("decide", [decide_compress, decide_depth])
def test_solve_profiles_once(decide, monkeypatch):
    # The search, the final pinned query and the witness extraction share
    # the one profile the solve binds: one admissibility check and one
    # evaluation of the maximizer, transcript or not.
    from querydag import oracle, weighting

    calls = {"check_admissible": 0, "evaluate": 0}

    def counted(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapped

    monkeypatch.setattr(weighting, "check_admissible", counted("check_admissible", weighting.check_admissible))
    monkeypatch.setattr(oracle, "evaluate", counted("evaluate", oracle.evaluate))
    for seed in range(6):
        g = random_instance(seed)
        calls.update(check_admissible=0, evaluate=0)
        report = decide(g, witness=True, transcript=True)
        assert report.query_string == evaluate(g, ProofOracle()), seed
        assert calls == {"check_admissible": 1, "evaluate": 1}, seed


def test_binary_search_probe_makes_three_python_calls():
    # Bound once, a probe is the query function, the backend's decide and
    # the stats' record_threshold: no record per query, no profile lookup.
    g = gen_instance("chain", 64, 0)
    weights = rho_weights(g)
    ask = threshold_oracle(g, weights, ProofOracle(), EvaluationBackend())
    bits = search_budget(weights)
    calls = []

    def profile(frame, event, arg):
        if event == "call":
            calls.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        two_t = binary_search_T(ask, bits)
    finally:
        sys.setprofile(None)
    assert two_t == max_t_for_assignment(g, weights, evaluate(g, ProofOracle()), ProofOracle())
    assert bits > 400
    assert calls[0] == "binary_search_T"
    assert len(calls) - 1 <= 3 * bits, len(calls)


@pytest.mark.parametrize("make", [BruteForceBackend, EvaluationBackend])
def test_decide_before_bind_is_refused(make, chain2):
    oracle = ProofOracle()
    backend = make()
    with pytest.raises(PipelineError, match="before bind"):
        backend.decide(0, {})
    # A bind that fails validation leaves the backend unbound, not answering
    # off the pair bound before it.
    if make is EvaluationBackend:
        backend.bind(chain2, omega_weights(chain2), oracle)
        assert backend.decide(8, {}) is True
        with pytest.raises(ValidationError):
            backend.bind(chain2, {1: 1, 2: 1}, oracle)
        with pytest.raises(PipelineError, match="before bind"):
            backend.decide(0, {})
