import builtins
import gc
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
    # Narrow variable ranges and wide clauses make tautologies, duplicate
    # literals and input-only clauses common; a few clauses are empty.
    rng = random.Random(7)
    answers = set()
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
        answer = sat_exists_proof(node, bits)
        assert answer == enum_sat(node, bits), (node, bits)
        answers.add(answer)
    assert answers == {True, False}


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
    assert evaluate(sat, oracle).answer == 1
    assert evaluate(unsat, oracle).answer == 0
    assert evaluate(sat, oracle).answer == 1
    stats = oracle.stats
    assert (stats.proof_queries, stats.proof_distinct) == (3, 2)


def test_proof_memo_records_every_issued_call(chain2):
    oracle = ProofOracle()
    v1, v2 = chain2.nodes
    answers = [oracle.exists(v2, "0") for _ in range(3)] + [oracle.exists(v2, [1])]
    assert answers == [False, False, False, True]
    stats = oracle.stats
    assert stats.proof_queries == len(stats.to_doc()) == 4
    assert stats.proof_distinct == 2
    assert [entry["inputs"] for entry in stats.to_doc()] == ["0", "0", "0", "1"]


def test_proof_distinct_counts_decisions_not_calls():
    for seed in range(6):
        g = random_instance(seed)
        direct = decide_direct(g).stats
        assert direct.proof_distinct == direct.proof_queries == len(g.nodes)
        report = decide_compress(g, witness=True)
        assert 0 < report.stats.proof_distinct <= report.stats.proof_queries
        assert "proof_distinct" not in report.to_doc(include_transcript=True)


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


def test_backends_agree_under_pins_on_compressed_instances():
    # Pins agreeing with the maximizer are a comparison against 2T; a
    # flipped pin is false at 2T and above and goes to brute force below.
    for seed in range(12):
        g = random_instance(seed, max_n=4)
        gstar, fstar = build_compressed(g, build_separator_tree(g))
        if len(gstar.nodes) > 12:
            continue
        oracle = ProofOracle()
        correct = evaluate(gstar, oracle).bits
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


def test_positioned_queries_agree_with_brute_force():
    # Pins sequences driven by hand that keep the position contract, many of
    # them with settled entries off the maximizer: the evaluation backend's
    # check of the newest pins only must answer as enumeration does.
    rng = random.Random(5)
    off_settled = 0
    for seed in range(32):
        g = random_instance(seed)
        assert len(g.nodes) <= 8
        weights = rho_weights(g, 2)
        oracle = ProofOracle()
        correct = evaluate(g, oracle).bits
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


def test_profiled_queries_import_and_recompute_nothing(monkeypatch):
    # Once (dag, weights) is profiled, a threshold query is a lookup: no
    # import statement runs, and neither the admissibility check nor the
    # objective is evaluated again.
    from querydag import solver, weighting

    g = random_instance(7)
    weights = rho_weights(g, 2)
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

    monkeypatch.setattr(solver, "max_t_for_assignment", forbidden)
    monkeypatch.setattr(weighting, "check_admissible", forbidden)
    monkeypatch.setattr(builtins, "__import__", counting_import)
    again = binary_search_T(g, weights, oracle, backend)
    bits = extract_query_string(g, weights, two_t, oracle, backend, g.topo_order())
    monkeypatch.undo()
    assert imports == []
    assert again == two_t
    assert bits == evaluate(g, ProofOracle()).bits


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
    first = decide_compress(g, witness=True, backend=backend)
    assert any(_reaches(backend, pins) for pins in pins_seen)
    second = decide_compress(g, backend=backend)
    gc.collect()
    assert len(built) == 2
    assert built[0]() is None and built[1]() is not None
    assert len(pins_seen) > 2
    assert not any(_reaches(backend, pins) for pins in pins_seen)
    assert first.answer == second.answer == evaluate(g, ProofOracle()).answer
    witness_doc = first.stats.to_doc()
    assert witness_doc[: len(second.stats.to_doc())] == second.stats.to_doc()


def test_evaluation_backend_rejects_inadmissible_weights(chain2):
    from querydag import ValidationError, WeightAssignment

    inst = ThresholdInstance(chain2, WeightAssignment({1: 1, 2: 1}, 2), 1, {})
    with pytest.raises(ValidationError, match="admissible"):
        EvaluationBackend().decide(inst, ProofOracle())


def test_evaluation_backend_rejects_fixed_bits_off_the_maximizer(chain2, monkeypatch):
    from querydag import ValidationError

    monkeypatch.setattr(chain2, "fixed_bits", lambda: {1: 0})
    inst = ThresholdInstance(chain2, omega_weights(chain2, 2), 1, {})
    with pytest.raises(ValidationError, match="fixed bit"):
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
