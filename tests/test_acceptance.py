"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every numeric tolerance here is exact (big-integer or rational
equality).
"""

import itertools
import math
import random
import time
from fractions import Fraction

import pytest

from querydag import (
    ProofOracle,
    build_compressed,
    build_dag,
    build_separator_tree,
    check_admissible,
    decide_compress,
    decide_depth,
    decide_direct,
    evaluate,
    expected_expanded_size,
    is_correct_query_string,
    lift_query_string,
    max_t_for_assignment,
    omega_weights,
    rho_weights,
    search_budget,
    total_weight,
)
from querydag.arithmetize import (
    audit_weak_compression,
    brute_force_max,
    build_p,
    extract_from_optimum,
)
from querydag.cli import gen_instance, run_bench
from querydag.weighting import descendant_masks

from arithmetize_reference import multilinear_eval
from compress_reference import build_compressed as paper_build, without_dummies
from conftest import brute_two_t
from paper_stages import add_conductor, expand_to_gprime

CORPUS_SIZE = 1000


def _origin_descendant_count(gd):
    ids = list(gd.out_neighbors())
    idx = {nid: i for i, nid in enumerate(ids)}
    masks = descendant_masks(ids, gd.out_neighbors())
    best = 0
    for nid in ids:
        origins = {
            gd.nodes[other].origin for other in ids if (masks[nid] >> idx[other]) & 1
        }
        best = max(best, len(origins))
    return best


def _criterion(num, name):
    def wrap(body):
        try:
            body()
        except BaseException:
            print(f"criterion {num:2d} ({name}): FAIL")
            raise
        print(f"criterion {num:2d} ({name}): PASS")

    return wrap


@pytest.fixture(scope="module")
def corpus():
    """1000 seeded random instances (n <= 8, <= 2 proof vars, s <= 2) with
    every artifact the criteria below need."""
    records = []
    started = time.time()
    for seed in range(CORPUS_SIZE):
        n = 1 + seed % 8
        g = gen_instance("random-sep", n, seed, sep_bound=2)
        oracle = ProofOracle()
        direct = evaluate(g, oracle)[g.output]
        rc = decide_compress(g)
        rd = decide_depth(g)
        tree = build_separator_tree(g)
        gpp = add_conductor(expand_to_gprime(g, tree))
        gstar, fstar = build_compressed(g, tree)
        ref, paper = paper_build(g, tree)
        _, paper_real = without_dummies(ref, paper)
        pre_masks = descendant_masks(list(gpp.node_ids()), gpp.out_neighbors())
        xstar = evaluate(gstar, oracle)
        lifted = lift_query_string(g, gstar, xstar)
        audit = audit_weak_compression(g, omega_weights(g))
        records.append(
            {
                "seed": seed,
                "g": g,
                "n": n,
                "direct": direct,
                "rc": rc,
                "rd": rd,
                "s": tree.uniform_size,
                "D": tree.depth(),
                "vpp_actual": len(gpp.nodes),
                "vpp_formula": expected_expanded_size(tree),
                "w_gpp": total_weight(omega_weights(gpp)),
                "w_star": total_weight(fstar),
                "w_paper": total_weight(paper),
                "vstar": len(gstar.nodes),
                "admissible": check_admissible(gstar, fstar),
                "paper_admissible": check_admissible(ref, paper),
                "below_paper": all(fstar[cid] <= w for cid, w in paper_real.items()),
                "max_desc_pre": max(m.bit_count() for m in pre_masks.values()),
                "max_desc_origins": _origin_descendant_count(gstar),
                "lift_ok": is_correct_query_string(g, lifted, oracle),
                "audit": audit,
                "w_rho": total_weight(rho_weights(g)),
            }
        )
    records.append({"elapsed": time.time() - started})
    return records


def _rows(corpus):
    return corpus[:-1]


def _elapsed(corpus):
    return corpus[-1]["elapsed"]


def test_criterion_01_oracle_equivalence(corpus):
    @_criterion(1, "oracle equivalence over 1000 instances")
    def body():
        rows = _rows(corpus)
        assert len(rows) == CORPUS_SIZE
        assert all(row["n"] <= 8 and row["s"] <= 2 for row in rows)
        for row in rows:
            assert row["rc"].answer == row["rd"].answer == row["direct"], row["seed"]
        assert _elapsed(corpus) < 300


def test_criterion_02_query_budget(corpus):
    @_criterion(2, "query budget exact and within 4(sD + log2 n) + 8")
    def body():
        started = time.time()
        for row in _rows(corpus):
            want_c = (2 * row["w_star"]).bit_length() + 1
            want_d = (2 * row["w_rho"]).bit_length() + 1
            assert row["rc"].queries == row["rc"].budget == want_c, row["seed"]
            assert row["rd"].queries == row["rd"].budget == want_d, row["seed"]
        for family in ("star", "chain", "layered"):
            rows = run_bench(
                family=family, sizes=(4, 8, 16, 32), sep_bound=2,
                repetitions=1, seed=0, method="compress",
            )
            for bench_row in rows:
                assert bench_row["s"] <= 2
                bound = 4 * (bench_row["s"] * bench_row["D"] + math.log2(bench_row["n"])) + 8
                assert bench_row["queries"] <= bound, bench_row
        assert time.time() - started + _elapsed(corpus) < 600


def test_criterion_03_weight_conservation(corpus):
    # The paper's merged weighting, on the paper's G* with its dummies'
    # copies, conserves W(G''); the least weighting the package gives G* is
    # admissible too and lies below it at every real copy.
    @_criterion(3, "paper's G* weighting conserves W(G''); the least one is 2-admissible, below it")
    def body():
        for row in _rows(corpus):
            assert row["w_paper"] == row["w_gpp"], row["seed"]
            ok, bad = row["paper_admissible"]
            assert ok, f"seed {row['seed']}: paper's weighting violated at {bad}"
            ok, bad = row["admissible"]
            assert ok, f"seed {row['seed']}: violated at {bad}"
            assert row["below_paper"] and row["w_star"] <= row["w_gpp"], row["seed"]


def test_criterion_04_size_formula(corpus):
    # The descendant bound is the paper's pre-merge property; merging unions
    # edge sets, so on G* it survives per distinct origin (the decisions
    # ledger records a counterexample for the per-node count after merging).
    @_criterion(4, "|V''| formula exact and |Desc| <= sD + 1")
    def body():
        for row in _rows(corpus):
            bound = row["s"] * row["D"] + 1
            assert row["vpp_actual"] == row["vpp_formula"], row["seed"]
            assert row["vstar"] <= row["vpp_actual"]
            assert row["max_desc_pre"] <= bound, row["seed"]
            assert row["max_desc_origins"] <= bound, row["seed"]


def test_criterion_05_correct_string_gap():
    @_criterion(5, "every maximizer of 2t is a correct query string (n <= 3)")
    def body():
        oracle = ProofOracle()
        instances = [gen_instance("random-sep", 1 + seed % 3, seed, 2) for seed in range(150)]
        instances.append(build_dag([(1, "verifier", [], 1, [[1], [-1]])], 1))
        instances.append(build_dag([(1, "verifier", [], 0, [])], 1))
        for g in instances:
            weights = omega_weights(g)
            ids = sorted(g.by_id)
            scored = {}
            for combo in itertools.product((0, 1), repeat=len(ids)):
                x = dict(zip(ids, combo))
                scored[combo] = max_t_for_assignment(g, weights, x, oracle)
            top = max(scored.values())
            for combo, value in scored.items():
                if value == top:
                    assert is_correct_query_string(g, dict(zip(ids, combo)), oracle)


def test_criterion_06_lift_correctness(corpus):
    @_criterion(6, "lifted compressed strings are correct on G")
    def body():
        for row in _rows(corpus):
            assert row["lift_ok"], row["seed"]


def _arith_suite():
    fixtures = [
        build_dag([(1, "verifier", [], 1, [[1]]), (2, "verifier", [1], 1, [[1], [2]])], 2),
        build_dag([(1, "verifier", [], 1, [[1], [-1]]), (2, "verifier", [1], 1, [[1], [2]])], 2),
        build_dag([(1, "verifier", [], 1, [[1]]), (2, "verifier", [1], 1, [[1], [2], [-2]])], 2),
        build_dag([(1, "verifier", [], 0, [])], 1),
        build_dag([(1, "verifier", [], 1, [[1], [-1]])], 1),
        build_dag(
            [
                (1, "verifier", [], 1, [[1]]),
                (2, "verifier", [1], 1, [[1], [2]]),
                (3, "verifier", [2], 1, [[1], [2]]),
            ],
            3,
        ),
    ]
    randoms = [gen_instance("random-sep", 1 + seed % 4, seed, 2) for seed in range(10)]
    suite = []
    for g in fixtures + randoms:
        circuit, x_coord = build_p(g, omega_weights(g))
        if circuit.var_count <= 16:
            suite.append((g, circuit, x_coord))
    return suite


def test_criterion_07_arithmetization_equivalence():
    @_criterion(7, "polynomial maximum equals objective maximum exactly")
    def body():
        started = time.time()
        suite = _arith_suite()
        assert len(suite) >= 10
        for g, circuit, x_coord in suite:
            assert circuit.var_count <= 24
            weights = omega_weights(g)
            best, witness = brute_force_max(circuit)
            assert 2 * best == brute_two_t(g, weights)
            x = extract_from_optimum(g, x_coord, witness)
            assert is_correct_query_string(g, x, ProofOracle())
        # Worked fixture: CHAIN2 has T = 4 attained at x = 11.
        chain2, circuit2, x_coord2 = suite[0]
        best, witness = brute_force_max(circuit2)
        assert best == Fraction(4)
        assert extract_from_optimum(chain2, x_coord2, witness) == {1: 1, 2: 1}
        assert time.time() - started < 300


def test_criterion_08_multilinearity_and_vertex_agreement():
    @_criterion(8, "affine per coordinate; extension equals p on vertices")
    def body():
        suite = _arith_suite()[:3]
        rng = random.Random(2024)
        for _, circuit, _ in suite:
            for _ in range(10**4):
                vertex = [rng.randint(0, 1) for _ in range(circuit.var_count)]
                assert multilinear_eval(circuit, vertex) == circuit.eval(vertex)
            for _ in range(100):
                k = rng.randrange(circuit.var_count)
                base = [rng.randint(0, 1) for _ in range(circuit.var_count)]
                values = []
                for s in (Fraction(0), Fraction(1, 2), Fraction(1)):
                    point = list(base)
                    point[k] = s
                    values.append(multilinear_eval(circuit, point))
                assert values[1] - values[0] == values[2] - values[1]


def test_criterion_09_weak_compression_audit(corpus):
    @_criterion(9, "binary search spends at most bit_length(2T) + 1 queries")
    def body():
        for row in _rows(corpus):
            bits, queries_used = row["audit"]
            assert queries_used <= bits + 1, row["seed"]


def test_criterion_10_degenerate_suite():
    @_criterion(10, "degenerate instances behave as documented")
    def body():
        oracle = ProofOracle()
        single = build_dag([(1, "verifier", [], 0, [])], 1)
        contradictory = build_dag([(1, "verifier", [], 1, [[1], [-1]])], 1)
        star = build_dag(
            [
                (1, "verifier", [], 1, [[1]]),
                (2, "verifier", [], 1, [[1]]),
                (3, "verifier", [], 1, [[1]]),
                (4, "verifier", [1, 2, 3], 1, [[1], [2], [3]]),
            ],
            4,
        )
        # Evaluation of the degenerate nodes.
        assert evaluate(single, oracle)[single.output] == 1
        assert evaluate(contradictory, oracle)[contradictory.output] == 0
        assert star.topo_order() == [1, 2, 3, 4]
        # Separator structure.
        tree = build_separator_tree(single)
        assert len(tree.supervertices) == 1 and tree.depth() == 1
        gp = expand_to_gprime(single, tree)
        assert len(gp.nodes) == 2 and gp.edge_count() == 0
        gpp = add_conductor(gp)
        assert len(gpp.nodes) == 3 and gpp.edge_count() == 2
        # Decisions: all methods, all degenerate instances.
        for g, expected in ((single, 1), (contradictory, 0)):
            assert decide_direct(g).answer == expected
            assert decide_depth(g).answer == expected
            assert decide_compress(g).answer == expected
        # Depth pipeline on the parallel-query star: W = 3*8 + 1 = 25,
        # so ceil(log2(51)) + 1 = 7 queries.
        report = decide_depth(star)
        assert report.answer == evaluate(star, oracle)[star.output]
        assert report.w_total == 25 and report.queries == 7
        # Single-node counts: the depth pipeline needs 3 queries; the
        # compressed graph carries total weight 4 (one copy of least weight
        # 3, the conductor 1), so its exact count is ceil(log2(9)) + 1 = 5.
        assert decide_depth(single).queries == 3
        rc = decide_compress(single)
        assert rc.w_total == 4 and rc.queries == rc.budget == 5
        # Arithmetization degenerates.
        circuit, x_coord = build_p(single, omega_weights(single))
        best, witness = brute_force_max(circuit)
        assert best == 1 and extract_from_optimum(single, x_coord, witness) == {1: 1}
        bits, queries_used = audit_weak_compression(single, omega_weights(single))
        assert bits == 2 and queries_used <= 3
