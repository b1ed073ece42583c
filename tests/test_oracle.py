import builtins
import gc
import itertools
import random
import tracemalloc
import weakref

import pytest

from querydag import (
    BruteForceBackend,
    CapacityError,
    EvaluationBackend,
    ProofOracle,
    QueryNode,
    ThresholdInstance,
    build_compressed,
    build_dag,
    build_separator_tree,
    binary_search_T,
    decide_compress,
    decide_direct,
    evaluate,
    extract_query_string,
    max_t_for_assignment,
    omega_weights,
    rho_weights,
    sat_exists_proof,
    threshold_query,
    total_weight,
)

from querydag.cli import gen_instance

from compress_reference import least_weights
from conftest import brute_two_t, enum_sat, random_instance


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
            answer = sat_exists_proof(node, bits)
            assert answer == enum_sat(node, bits), (node, bits)
            answers.add(answer)
        assert answers == {True, False}


def test_dpll_branches_on_two_literal_clauses(monkeypatch):
    # Search nodes are _propagate calls.  Branching on the smallest free
    # variable needed 810 on these 40 formulas.  A branch on a clause with
    # two free literals satisfies it or forces its other literal, and the
    # search needs 503.
    from querydag import oracle

    propagate = oracle._propagate
    calls = 0

    def counting(*args):
        nonlocal calls
        calls += 1
        return propagate(*args)

    monkeypatch.setattr(oracle, "_propagate", counting)
    answers = set()
    for node, bits in _branching_cnfs():
        answers.add(sat_exists_proof(node, bits))
    assert answers == {True, False}
    assert calls < 600


def test_dpll_searches_as_the_clause_list_reference(monkeypatch):
    # Incremental propagation reaches the same fixpoint as re-scanning the
    # live clauses, and the branch rule is the same, so every formula gets
    # the same answer from a search tree of the same size.
    import dpll_reference
    from querydag import oracle

    calls = {}

    def counting(module):
        propagate = module._propagate

        def wrapped(*args):
            calls[module] += 1
            return propagate(*args)

        monkeypatch.setattr(module, "_propagate", wrapped)

    counting(oracle)
    counting(dpll_reference)
    small, near = _random_cnfs()
    for node, bits in small + near + _branching_cnfs():
        calls[oracle] = calls[dpll_reference] = 0
        answer = sat_exists_proof(node, bits)
        assert answer == dpll_reference.sat_exists_proof(node, bits), (node, bits)
        # A clause-free node is answered before any search.
        searched = calls[dpll_reference] if node.clauses else 0
        assert calls[oracle] == searched, (node, bits)


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
        answers = [sat_exists_proof(node, bits) for bits in strings + strings[::-1]]
        assert answers == [expected[bits] for bits in strings + strings[::-1]], node
        assert "cnf" in node.__dict__
        varied += len(set(answers)) == 2
    assert varied >= 10


def test_clause_free_nodes_and_parsing_compile_nothing():
    g = gen_instance("layered", 12, 3)
    assert not any("cnf" in node.__dict__ for node in g.nodes)
    free = QueryNode(1, "verifier", (4, 5), 3, ())
    assert sat_exists_proof(free, "01")
    assert "cnf" not in free.__dict__
    node = g.by_id[g.output]
    sat_exists_proof(node, "0" * len(node.inputs))
    assert "cnf" in node.__dict__


def test_sat_agrees_with_enumeration_at_sixteen_proof_vars():
    rng = random.Random(3)
    clauses = []
    for _ in range(8):
        clauses.append(
            tuple(rng.randint(1, 16) * rng.choice((1, -1)) for _ in range(3))
        )
    node = QueryNode(1, "verifier", (), 16, tuple(clauses))
    assert sat_exists_proof(node, "") == enum_sat(node, "")


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
    assert sat_exists_proof(node, bits) is expected
    assert enum_sat(node, bits) is expected


def test_sat_masks_do_not_grow_with_variable_numbers():
    # Bit v of a mask for variable v would make every mask about 1.25 MB
    # here; only the four variables in use may take bits.
    big = 10**7
    clauses = ((big, -1), (-big, big - 1), (-(big - 1),), (1, 2))
    node = QueryNode(1, "verifier", (5, 6, 7), big, clauses)
    tracemalloc.start()
    try:
        answers = [sat_exists_proof(node, bits) for bits in ("000", "100", "010")]
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
    answers = [oracle.exists(v2, "0") for _ in range(3)] + [oracle.exists(v2, "1")]
    assert answers == [False, False, False, True]
    stats = oracle.stats
    assert stats.proof_queries == len(stats.to_doc()) == 4
    assert stats.proof_distinct == 2
    assert [entry["inputs"] for entry in stats.to_doc()] == ["0", "0", "0", "1"]


def test_proof_oracle_keys_bit_strings_as_given():
    # The '0'/'1' string is the memo key and the transcript entry as given;
    # an equal string built elsewhere hits the same memo entry.
    node = build_dag(
        [(1, "verifier", [], 0, []), (2, "verifier", [], 0, []),
         (3, "verifier", [1, 2], 1, [[1], [-2], [3]])],
        3,
    ).by_id[3]
    oracle = ProofOracle(transcript=True)
    given = "".join(["1", "0"])
    answers = [
        oracle.exists(node, given),
        oracle.exists(node, "10"),
        oracle.exists(node, "11"),
    ]
    assert answers == [True, True, False]
    stats = oracle.stats
    assert [key[1] for key in stats.decisions] == ["10", "11"]
    assert next(iter(stats.decisions))[1] is given
    assert [entry["inputs"] for entry in stats.to_doc()] == ["10", "10", "11"]
    assert (stats.proof_queries, stats.proof_distinct) == (3, 2)


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
            inst = ThresholdInstance(dag, weights, 0, {})
            oracle = ProofOracle()
            bits, two_t = EvaluationBackend()._profile(inst, oracle)
            assert oracle.stats.proof_queries == calls, seed
            assert two_t == max_t_for_assignment(inst, bits, ProofOracle()), seed
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
    backend = BruteForceBackend()
    weights = omega_weights(chain2)
    answers = {}
    for theta in (8, 9, 0):
        inst = ThresholdInstance(chain2, weights, theta, {})
        answers[theta] = threshold_query(inst, oracle, backend)
    assert answers == {8: True, 9: False, 0: True}
    assert stats.threshold_queries == 3


def test_threshold_is_monotone(chain2):
    oracle = ProofOracle()
    backend = BruteForceBackend()
    weights = omega_weights(chain2)
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
        weights = omega_weights(g)
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
    weights = omega_weights(chain2)
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
        two_t = max_t_for_assignment(
            ThresholdInstance(gstar, fstar, 0, {}), correct, oracle
        )
        order = gstar.topo_order()
        for k in range(len(order) + 1):
            pins = {nid: correct[nid] for nid in order[:k]}
            flipped = dict(pins)
            if k:
                flipped[order[k - 1]] ^= 1
            for theta in (0, two_t - 1, two_t, two_t + 1):
                for p in (pins, flipped):
                    inst = ThresholdInstance(gstar, fstar, theta, p)
                    assert brute.decide(inst, oracle) == smart.decide(inst, oracle)


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
                inst = ThresholdInstance(dag, weights, theta, pins)
                assert smart.decide(inst, oracle) == brute.decide(inst, oracle), (
                    seed, theta, pins
                )
    assert below >= 20


def test_evaluation_backend_decides_a_flipped_pin_on_a_30_chain():
    # 29 free bits: more than enumeration can take, one evaluation for the
    # evaluation backend.
    g = gen_instance("chain", 30, 0)
    weights = rho_weights(g)
    oracle = ProofOracle()
    backend = EvaluationBackend()
    two_t = binary_search_T(g, weights, oracle, backend)
    first = g.topo_order()[0]
    flipped = {first: evaluate(g, ProofOracle())[first] ^ 1}
    before = oracle.stats.proof_queries
    inst = ThresholdInstance(g, weights, two_t - 1, flipped)
    assert threshold_query(inst, oracle, backend) is False
    assert oracle.stats.proof_queries - before <= len(g.nodes)


def test_positioned_queries_agree_with_brute_force():
    # Pins sequences driven by hand that keep the position contract, many of
    # them with settled entries off the maximizer: the evaluation backend's
    # check of the newest pins only must answer as enumeration does.
    rng = random.Random(5)
    off_settled = 0
    for seed in range(32):
        g = random_instance(seed)
        assert len(g.nodes) <= 8
        weights = rho_weights(g)
        oracle = ProofOracle()
        correct = evaluate(g, oracle)
        two_t = max_t_for_assignment(
            ThresholdInstance(g, weights, 0, {}), correct, oracle
        )
        brute = BruteForceBackend()
        smart = EvaluationBackend()
        order = g.topo_order()

        def ask(pins, k):
            nonlocal off_settled
            off_settled += any(correct[nid] != pins[nid] for nid in order[:k])
            for theta in (two_t - 1, two_t, two_t + 1):
                inst = ThresholdInstance(g, weights, theta, pins, k)
                assert smart.decide(inst, oracle) == brute.decide(inst, oracle), (
                    seed, theta, dict(pins), k
                )

        def run(pins, settle, stop=len(order)):
            for k, nid in enumerate(order[:stop]):
                pins[nid] = 1
                ask(pins, k)
                pins[nid] = settle(k, nid)

        flip = rng.randrange(len(order))
        reused = {}
        run(reused, lambda k, nid: correct[nid] ^ (k == flip))
        # The same dict again from position 0, now following the maximizer.
        reused.clear()
        run(reused, lambda k, nid: correct[nid])
        run({}, lambda k, nid: 1)
        run({}, lambda k, nid: rng.randint(0, 1))
        if len(order) >= 3:
            # A different dict at the position after the last query's: its
            # first entry is off, the entry the last query left final is not.
            last = len(order) - 1
            run({}, lambda k, nid: correct[nid], stop=last)
            other = {nid: correct[nid] for nid in order}
            other[order[0]] ^= 1
            ask(other, last)
    assert off_settled > 100


def test_one_backend_serves_interleaved_profiles():
    # One evaluation backend goes back and forth between three profiles: one
    # graph under rho and under omega, the very same graph object, then a
    # second graph.  An extraction's positioned queries on one of them are
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

        def ask(inst):
            answer = smart.decide(inst, oracle)
            assert answer == brute.decide(inst, oracle), (seed, inst)
            return answer

        def probe():
            for (dag, weights), two_t in zip(profiles, two_ts):
                for theta in (two_t, two_t + 1):
                    ask(ThresholdInstance(dag, weights, theta, {}))

        for (dag, weights), two_t in zip(profiles, two_ts):
            for theta in (two_t, two_t - 1):
                pins = {}
                for k, nid in enumerate(dag.topo_order()):
                    probe()
                    pins[nid] = 1
                    if not ask(ThresholdInstance(dag, weights, theta, pins, k)):
                        pins[nid] = 0
                probe()
    assert differ >= 8


def test_profiled_queries_import_and_recompute_nothing(monkeypatch):
    # Once (dag, weights) is profiled, a threshold query is a lookup: no
    # import statement runs, and neither the admissibility check nor the
    # objective is evaluated again.
    from querydag import weighting

    g = random_instance(7)
    weights = rho_weights(g)
    oracle = ProofOracle()
    backend = EvaluationBackend()
    two_t = binary_search_T(g, weights, oracle, backend)

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
    again = binary_search_T(g, weights, oracle, backend)
    bits = extract_query_string(g, weights, two_t, oracle, backend, g.topo_order())
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

    def recording_query(inst, proof_oracle, backend):
        if type(inst.pins) is dict and len(built) == 1:
            pins_seen.append(inst.pins)
        return threshold_query(inst, proof_oracle, backend)

    monkeypatch.setattr(solver, "build_compressed", recording_build)
    monkeypatch.setattr(solver, "threshold_query", recording_query)
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

    inst = ThresholdInstance(chain2, {1: 1, 2: 1}, 1, {})
    with pytest.raises(ValidationError, match="admissible"):
        EvaluationBackend().decide(inst, ProofOracle())


def test_evaluation_backend_rejects_non_integer_weights(chain2):
    from fractions import Fraction

    from querydag import ValidationError

    # Admissible, but a fractional weight leaves no one-unit gap below 2T.
    inst = ThresholdInstance(chain2, {1: Fraction(7, 2), 2: 1}, 1, {})
    with pytest.raises(ValidationError, match="integer"):
        EvaluationBackend().decide(inst, ProofOracle())


def test_transcript_replays_identically(chain2):
    first = decide_compress(chain2, transcript=True).stats.to_doc()
    second = decide_compress(chain2, transcript=True).stats.to_doc()
    assert first == second
    assert any(entry["kind"] == "threshold" for entry in first)


def test_transcript_export_fields(chain2):
    oracle = ProofOracle(transcript=True)
    stats = oracle.stats
    weights = omega_weights(chain2)
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
    # str() of an int refuses more than 4,300 digits by default.
    threshold_query(
        ThresholdInstance(chain2, weights, 10**5000, {}), oracle, EvaluationBackend()
    )
    assert stats.to_doc()[-1]["threshold"] == "1" + "0" * 5000
