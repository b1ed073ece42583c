import gc
import itertools
import json
import tracemalloc

import pytest

from querydag import (
    BruteForceBackend,
    EvaluationBackend,
    PipelineError,
    ProofOracle,
    binary_search_T,
    build_compressed,
    build_separator_tree,
    decide_compress,
    decide_depth,
    decide_direct,
    evaluate,
    extract_query_string,
    is_correct_query_string,
    lift_query_string,
    max_t_for_assignment,
    omega_weights,
    rho_weights,
    search_budget,
    total_weight,
)
from querydag import solver
from querydag.cli import gen_instance

from compress_reference import build_compressed as paper_build
from conftest import brute_two_t, random_instance, search


def test_max_t_chain2_values(chain2):
    oracle = ProofOracle()
    weights = omega_weights(chain2)
    assert max_t_for_assignment(chain2, weights, {1: 1, 2: 1}, oracle) == 8
    assert max_t_for_assignment(chain2, weights, {1: 0, 2: 0}, oracle) == 4
    assert max_t_for_assignment(chain2, weights, {1: 1, 2: 0}, oracle) == 7


def test_binary_search_chain2(chain2):
    oracle = ProofOracle()
    weights = omega_weights(chain2)
    _, t = search(chain2, weights, oracle, BruteForceBackend())
    assert t == 8
    assert oracle.stats.threshold_queries == 4  # ceil(log2(2W+1)) with W = 4


def test_binary_search_single_vacuous(single_vacuous):
    oracle = ProofOracle()
    weights = omega_weights(single_vacuous)
    _, t = search(single_vacuous, weights, oracle, BruteForceBackend())
    assert total_weight(weights) == 1
    assert t == 2
    assert oracle.stats.threshold_queries == 2


def test_binary_search_compressed_chain2(chain2):
    tree = build_separator_tree(chain2)
    gstar, fstar = build_compressed(chain2, tree)
    oracle = ProofOracle()
    _, t = search(gstar, fstar, oracle, BruteForceBackend())
    assert oracle.stats.threshold_queries == 5  # ceil(log2(21))
    assert t == brute_two_t(gstar, fstar)


def test_binary_search_matches_brute_force_on_random_instances():
    for seed in range(15):
        g = random_instance(seed, max_n=5)
        weights = omega_weights(g)
        oracle = ProofOracle()
        _, t = search(g, weights, oracle, EvaluationBackend())
        assert t == brute_two_t(g, weights)
        assert oracle.stats.threshold_queries == search_budget(weights)


def test_decide_compress_chain2(chain2):
    report = decide_compress(chain2)
    assert report.answer == 1
    # Three copies of least weight 1 + 2 * 1 over the conductor's 1.
    assert report.w_total == 10
    assert report.queries == 6  # 5 search queries plus the final pinned one
    assert report.budget == 6
    assert report.queries <= report.budget


def test_decide_compress_unsat_variant(chain2_v2_unsat):
    assert decide_compress(chain2_v2_unsat).answer == 0


def test_decide_compress_single_vacuous(single_vacuous):
    # The compressed graph weighs 4 (one copy of least weight 3 over the
    # conductor's 1), so the exact count is ceil(log2(9)) + 1 = 5.
    report = decide_compress(single_vacuous)
    assert report.answer == 1
    assert report.w_total == 4
    assert report.queries == report.budget == 5


def test_decide_depth_star(star4):
    report = decide_depth(star4)
    assert report.answer == evaluate(star4, ProofOracle())[star4.output] == 1
    assert report.w_total == 25
    assert report.queries == 7  # ceil(log2(51)) + 1


def test_decide_depth_chain2(chain2):
    report = decide_depth(chain2)
    assert report.answer == 1
    assert report.w_total == 5
    assert report.queries == 5  # ceil(log2(11)) + 1


def test_decide_depth_single_vacuous(single_vacuous):
    report = decide_depth(single_vacuous)
    assert report.answer == 1
    assert report.queries == 3


def test_decide_direct_counts_one_proof_query_per_node(star4):
    report = decide_direct(star4)
    assert report.answer == 1
    assert report.stats.proof_queries == 4
    assert report.queries == 0


def test_extract_query_string_chain2(chain2):
    oracle = ProofOracle()
    stats = oracle.stats
    weights = omega_weights(chain2)
    ask, t = search(chain2, weights, oracle, BruteForceBackend())
    before = stats.threshold_queries
    x = extract_query_string(ask, chain2, t)
    assert x == {1: 1, 2: 1}
    assert stats.threshold_queries - before == 2  # one pinned query per node


def test_extract_query_string_v1_unsat(chain2_v1_unsat):
    oracle = ProofOracle()
    weights = omega_weights(chain2_v1_unsat)
    ask, t = search(chain2_v1_unsat, weights, oracle, BruteForceBackend())
    assert t == 4  # both answers 0: weights 3 and 1 each contribute once
    x = extract_query_string(ask, chain2_v1_unsat, t)
    assert x == {1: 0, 2: 0}


def test_extract_single_vacuous(single_vacuous):
    oracle = ProofOracle()
    weights = omega_weights(single_vacuous)
    ask, t = search(single_vacuous, weights, oracle, BruteForceBackend())
    x = extract_query_string(ask, single_vacuous, t)
    assert x == {1: 1}


def test_witness_modes_produce_correct_strings(chain2):
    oracle = ProofOracle()
    for seed in range(12):
        g = random_instance(seed, max_n=6)
        expected = evaluate(g, oracle)
        rc = decide_compress(g, witness=True)
        rd = decide_depth(g, witness=True)
        assert rc.query_string == expected
        assert rd.query_string == expected
        assert is_correct_query_string(g, rc.query_string, oracle)


class FirstPinLiesBackend(EvaluationBackend):
    """Answers the first pinned query of a witness extraction wrongly: the
    one that pins the first node in topological order alone.  (The final
    query pins the output alone.)"""

    def bind(self, dag, weights, proof_oracle):
        super().bind(dag, weights, proof_oracle)
        self.first = dag.topo_order()[0]

    def decide(self, threshold, pins):
        answer = super().decide(threshold, pins)
        return not answer if pins.keys() == {self.first} else answer


@pytest.mark.parametrize("decide", [decide_compress, decide_depth])
def test_witness_from_a_wrong_pinned_answer_is_refused(chain2, decide):
    # The flipped first bit leaves every later pinned query below the
    # maximizer, so the extracted string cannot be the correct one.
    with pytest.raises(PipelineError, match="extracted query string is not correct"):
        decide(chain2, witness=True, backend=FirstPinLiesBackend())
    # Without a witness no pinned query is asked, so the answer stands.
    assert decide(chain2, backend=FirstPinLiesBackend()).answer == 1


def test_witness_from_a_wrong_lift_is_refused(chain2, monkeypatch):
    # A correct string on G* lifts to the correct one on g, so only a fault
    # in the lift itself reaches the second check.
    lift = solver.lift_query_string

    def flipped_lift(g, gstar, xstar):
        return {nid: 1 - bit for nid, bit in lift(g, gstar, xstar).items()}

    monkeypatch.setattr(solver, "lift_query_string", flipped_lift)
    with pytest.raises(PipelineError, match="lifted query string is not correct"):
        decide_compress(chain2, witness=True)
    # The depth pipeline lifts nothing.
    assert decide_depth(chain2, witness=True).query_string == {1: 1, 2: 1}


def test_correct_string_gap_property_on_tiny_instances():
    # Any string hitting the exact maximum 2T must be the correct one.
    oracle = ProofOracle()
    cases = [random_instance(seed, max_n=3) for seed in range(30)]
    for g in cases:
        weights = omega_weights(g)
        ids = sorted(g.by_id)
        scores = {}
        for combo in itertools.product((0, 1), repeat=len(ids)):
            x = dict(zip(ids, combo))
            scores[combo] = max_t_for_assignment(g, weights, x, oracle)
        top = max(scores.values())
        for combo, val in scores.items():
            if val == top:
                assert is_correct_query_string(g, dict(zip(ids, combo)), oracle)


def test_query_budget_formula_on_random_instances():
    for seed in range(15):
        g = random_instance(seed, max_n=6)
        rc = decide_compress(g)
        rd = decide_depth(g)
        assert rc.queries == rc.budget
        assert rd.queries == rd.budget
        assert rd.budget == search_budget(rho_weights(g)) + 1


def test_methods_agree_with_direct_evaluation():
    for seed in range(25):
        g = random_instance(seed)
        direct = decide_direct(g).answer
        assert decide_compress(g).answer == direct
        assert decide_depth(g).answer == direct


def test_report_serialization(chain2):
    doc = decide_compress(chain2, witness=True, transcript=True).to_doc()
    assert doc["answer"] == 1
    assert doc["W"] == "10"
    assert doc["witness"] == {"1": 1, "2": 1}
    assert isinstance(doc["transcript"], list)


class SnapshotBackend:
    """Decides through `inner`, keeping a copy of the pins each query saw."""

    def __init__(self, inner):
        self.inner = inner
        self.seen = []

    def bind(self, dag, weights, proof_oracle):
        self.inner.bind(dag, weights, proof_oracle)

    def decide(self, threshold, pins):
        self.seen.append(dict(pins))
        return self.inner.decide(threshold, pins)


def transcript_pins(stats):
    return [
        {int(k): v for k, v in entry["pins"].items()}
        for entry in stats.to_doc()
        if entry["kind"] == "threshold"
    ]


def test_transcript_pins_are_what_the_backend_saw():
    # Witness extraction hands every pinned query one shared pins dict; the
    # transcript must still render, query by query, exactly the pins the
    # backend was given.
    brute_solves = 0
    for seed in range(24):
        g = random_instance(seed, max_n=6)
        for method, decide in (("compress", decide_compress), ("depth", decide_depth)):
            size = len(g.nodes)
            if method == "compress":
                size = len(build_compressed(g, build_separator_tree(g))[0].nodes)
            backends = [("evaluation", EvaluationBackend())]
            if size <= 8:
                backends.append(("brute", BruteForceBackend()))
            for name, inner in backends:
                backend = SnapshotBackend(inner)
                report = decide(g, witness=True, backend=backend, transcript=True)
                assert transcript_pins(report.stats) == backend.seen, (seed, method, name)
                assert len(backend.seen) == report.stats.threshold_queries
                brute_solves += name == "brute"
    assert brute_solves >= 24


def test_witness_extraction_memory_is_linear():
    # One pin per pinned query, not a copy of every pin so far: on the
    # 96-node chain (about 880 pinned queries on G*) the copies alone took
    # over 15 MB.
    g = gen_instance("chain", 96, 0)
    gc.collect()
    tracemalloc.start()
    try:
        report = decide_compress(g, witness=True, transcript=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(report.query_string) == 96
    assert report.stats.threshold_queries > 800
    assert peak < 5 * 10**6


def test_transcript_renders_one_entry_at_a_time():
    # Every pinned query's pins are written out: the 48-node chain's
    # compress witness transcript is a 0.56 MB document, which peaked at
    # 7.9 MB when every entry's pins were built before one json.dumps.
    # Its pieces, written out as they come, hold one entry at a time.
    g = gen_instance("chain", 48, 0)
    report = decide_compress(g, witness=True, transcript=True)
    gc.collect()
    tracemalloc.start()
    try:
        written = sum(map(len, report.chunks()))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert written > 5 * 10**5
    assert peak < 2 * 10**5


def test_rendered_text_is_what_json_dumps_makes_of_the_document():
    for seed in range(12):
        g = random_instance(seed)
        for decide in (decide_compress, decide_depth, decide_direct):
            for transcript in (False, True):
                report = decide(g, witness=True, transcript=transcript)
                doc = report.to_doc()
                for indent in (None, 0, 2):
                    text = json.dumps(doc, sort_keys=True, indent=indent) + "\n"
                    assert "".join(report.chunks(indent)) == text, (seed, indent)
                assert report.serialize() == json.dumps(doc, sort_keys=True) + "\n"
    # A transcript with no entry still renders as an empty list.
    report.stats.transcript.clear()
    for indent in (None, 2):
        doc = report.to_doc()
        assert doc["transcript"] == []
        text = json.dumps(doc, sort_keys=True, indent=indent) + "\n"
        assert "".join(report.chunks(indent)) == text


def test_depth_witness_without_transcript_keeps_no_log():
    # Counters only: on chain-256 the rho weights reach 2,295 bits, and a
    # transcript holding one threshold per binary-search probe and pinned
    # query is most of a solve's peak.
    g = gen_instance("chain", 256, 0)
    gc.collect()
    tracemalloc.start()
    try:
        report = decide_depth(g, witness=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.stats.transcript is None
    assert report.stats.threshold_queries > 2000
    assert peak < 10**6


def test_transcript_does_not_change_the_solve():
    solved = 0
    for seed in range(40):
        g = random_instance(seed)
        for decide in (decide_compress, decide_depth, decide_direct):
            for witness in (False, True):
                kept = decide(g, witness=witness, transcript=True)
                plain = decide(g, witness=witness)
                doc = kept.to_doc()
                assert isinstance(doc.pop("transcript"), list)
                assert plain.serialize() == json.dumps(doc, sort_keys=True) + "\n"
                counts = [
                    (r.stats.threshold_queries, r.stats.proof_queries, r.stats.proof_distinct)
                    for r in (kept, plain)
                ]
                assert counts[0] == counts[1], (seed, decide.__name__, witness)
                assert plain.stats.transcript is None
                with pytest.raises(ValueError):
                    plain.stats.to_doc()
                solved += 1
    assert solved == 240


def solve_on(g, gstar, weights):
    """Compress with witness on a built G* under `weights`: the answer, the
    witness lifted back to g and the threshold queries of the decision."""
    oracle = ProofOracle()
    ask, t_tilde = search(gstar, weights, oracle, EvaluationBackend())
    answer = ask(t_tilde, {gstar.output: 1})
    queries = oracle.stats.threshold_queries
    xstar = extract_query_string(ask, gstar, t_tilde)
    assert is_correct_query_string(gstar, xstar, oracle)
    return answer, lift_query_string(g, gstar, xstar), queries


def test_least_weights_keep_the_corpus_answers_and_witnesses():
    # The least weighting on G* and the paper's merged weighting on the
    # paper's G*, which keeps the dummies' copies, must give the same answer
    # and the same lifted witness over the whole corpus, and the least one
    # never more threshold queries.
    saved = 0
    for seed in range(1000):
        g = random_instance(seed)
        tree = build_separator_tree(g)
        gstar, least = build_compressed(g, tree)
        ref, paper = paper_build(g, tree)
        answer, witness, queries = solve_on(g, gstar, least)
        paper_answer, paper_witness, paper_queries = solve_on(g, ref, paper)
        assert (answer, witness) == (paper_answer, paper_witness), seed
        assert queries <= paper_queries, seed
        saved += paper_queries - queries
    assert saved == 2211
