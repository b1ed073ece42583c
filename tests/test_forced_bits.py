"""The block form of G*'s forced bits and weights against the per-copy
reference.

CompressedDag.forced_bits settles one origin block at a time; the per-copy
reference here settles one copy at a time through the forced_bit of the
record-based G* in tests/compress_reference.py, whose ids without_dummies
matches to the package's.  evaluate, is_correct_query_string and
check_admissible go through the block form, so on the random corpus and on
larger shapes (band-3 n = 48, band-4 n = 40, a grid and a binary in-tree,
given seeded clauses) each must match what the per-copy path gives: the
bits, the proof calls counted and recorded, the distinct decisions, the
check's verdict and the admissibility verdict; a missing wire's error
must name a copy the string lacks, the same one when a single wire is
gone.  Only the conductor is settled through compute_output.
evaluate returns G*'s compact string, one byte per copy, which G* reads by
position; a dict of the same bits, read by id, must give the same results.

G*'s weighting keeps one weight per origin and is read once per origin:
there it must equal the least admissible weighting found node by node on
the reference, W, 2T and plan's figures must equal their sums copy by
copy, and an origin's weight lowered by 1 must fail the check at the copy
the per-row check names.  Any other weighting, per copy or another G*'s,
is refused.
"""

from __future__ import annotations

import random

import pytest
from compress_reference import build_compressed as record_based_build
from compress_reference import least_weights, without_dummies
from instances import random_instance
from test_septree_digest import band_dag, binary_in_tree, grid_dag

from querydag import (
    BruteForceBackend,
    EvaluationBackend,
    PipelineError,
    ProofOracle,
    ValidationError,
    WireValueError,
    binary_search_T,
    build_compressed,
    build_dag,
    build_separator_tree,
    check_admissible,
    evaluate,
    is_correct_query_string,
    max_t_for_assignment,
    plan,
    search_budget,
    threshold_oracle,
)
from querydag import compress
from querydag.compress import OriginWeights
from querydag.weighting import ADMISSIBILITY_C, weigh


def per_copy_evaluate(ref, sat, pins=None):
    """evaluate on the reference, one forced_bit per node in topo order."""
    pins = pins or {}
    bits = {}
    for nid in ref.topo_order():
        bits[nid] = pins[nid] if nid in pins else ref.forced_bit(nid, bits, sat)
    return bits


def per_copy_check(ref, x, sat):
    """is_correct_query_string on the reference, one forced_bit per node in
    id order."""
    return all(x[nid] == ref.forced_bit(nid, x, sat) for nid in ref.node_ids())


def per_row_admissible(gd, weights):
    """check_admissible, one out-neighbour row per node."""
    w = weights.__getitem__
    bad = [
        v
        for v, kids in gd.out_neighbors().items()
        if w(v) < 1 + ADMISSIBILITY_C * sum(map(w, kids))
    ]
    return (False, min(bad)) if bad else (True, None)


def with_clauses(shape, seed):
    """`shape` with every node given one proof variable and one to three
    seeded clauses over its wires and that variable, so that answers vary."""
    rng = random.Random(seed)
    specs = []
    for node in shape.nodes:
        width = len(node.inputs) + 1
        clauses = [
            [rng.choice((1, -1)) * rng.randint(1, width) for _ in range(rng.randint(1, 3))]
            for _ in range(rng.randint(1, 3))
        ]
        specs.append((node.id, "verifier", node.inputs, 1, clauses))
    return build_dag(specs, shape.output)


SHAPES = {
    "band3-48": lambda: band_dag(48, 3),
    "band4-40": lambda: band_dag(40, 4),
    "grid-4x8": lambda: grid_dag(4, 8),
    "bintree-31": lambda: binary_in_tree(31),
}


def compressed(g):
    return build_compressed(g, build_separator_tree(g))


def reference(gd):
    """The record-based G* of gd's graph and tree, with gd's ids."""
    return without_dummies(*record_based_build(gd.origin_dag, gd.septree))[0]


def assert_block_form_matches(gd, weights, rng, label):
    ref = reference(gd)
    # Unpinned evaluation: bits, counted and distinct calls, transcript.
    mine, theirs = ProofOracle(transcript=True), ProofOracle(transcript=True)
    x = evaluate(gd, mine)
    assert x == per_copy_evaluate(ref, theirs), label
    assert list(x) == list(gd.pins()[1]), label
    assert all(type(bit) is int for bit in x.values()), label
    for attr in ("proof_queries", "proof_distinct", "transcript"):
        assert getattr(mine.stats, attr) == getattr(theirs.stats, attr), (label, attr)
    # The same decisions, reached in the same order.
    assert list(mine.stats.decisions) == list(theirs.stats.decisions), label
    # The check, on the correct string and with one copy flipped.
    mine, theirs = ProofOracle(transcript=True), ProofOracle(transcript=True)
    assert is_correct_query_string(gd, x, mine) and per_copy_check(ref, x, theirs), label
    assert mine.stats.transcript == theirs.stats.transcript, label
    ids = list(gd.out_neighbors())
    for cid in rng.sample(ids, min(3, len(ids))):
        flipped = dict(x)
        flipped[cid] ^= 1
        oracle = ProofOracle()
        assert not is_correct_query_string(gd, flipped, oracle), (label, cid)
        assert not per_copy_check(ref, flipped, oracle), (label, cid)
    # Pinned evaluation: a pinned copy keeps its pin and issues no call.
    pins = {cid: rng.randint(0, 1) for cid in rng.sample(ids, min(4, len(ids)))}
    mine, theirs = ProofOracle(transcript=True), ProofOracle(transcript=True)
    assert evaluate(gd, mine, pins) == per_copy_evaluate(ref, theirs, pins), (label, pins)
    assert mine.stats.transcript == theirs.stats.transcript, (label, pins)
    # The weights, one per origin, read copy by copy: the least admissible
    # weighting of the reference, and W and 2T summed over the copies.
    per_copy = dict(weights)
    assert per_copy == least_weights(ref), label
    w_total = sum(per_copy.values())
    assert weigh(gd.weight_runs(weights)) == w_total, label
    backend = EvaluationBackend()
    backend.bind(gd, weights, ProofOracle())
    assert backend._two_t == sum(per_copy[cid] * (1 + bit) for cid, bit in x.items()), label
    # Admissibility on the least weighting.  With one copy lowered the
    # weighting is per copy, which G* refuses; the per-row check still
    # names that copy.
    assert check_admissible(gd, weights) == per_row_admissible(gd, per_copy) == (True, None)
    for cid in rng.sample(ids, min(3, len(ids))):
        lowered = dict(weights)
        lowered[cid] -= 1
        with pytest.raises(ValidationError):
            check_admissible(gd, lowered)
        assert per_row_admissible(gd, lowered) == (False, cid), (label, cid)
    # With one origin's weight lowered, checked once per origin, the check
    # fails at that origin's first copy.
    by_origin = weights.by_origin
    for u in rng.sample(sorted(by_origin), min(3, len(by_origin))):
        lowered = OriginWeights(gd, {**by_origin, u: by_origin[u] - 1})
        first = gd.copy_of(u, dict.fromkeys(gd.visible_ancestors(u), 0))
        verdict = check_admissible(gd, lowered)
        assert verdict == per_row_admissible(gd, dict(lowered)) == (False, first), (label, u)


def assert_plan_matches(g, label):
    """plan's figures against the G* build_compressed makes of g: its node
    count, W summed copy by copy and the search budget plus the final
    query."""
    tree = build_separator_tree(g)
    p = plan(g, tree)
    gd, weights = build_compressed(g, tree)
    assert p.size == len(gd.nodes), label
    assert p.w_total == sum(weights.values()), label
    assert p.budget == search_budget(weights) + 1, label
    assert p.least == weights.by_origin, label


def test_block_form_matches_the_per_copy_path_on_the_corpus():
    rng = random.Random(31)
    for seed in range(1000):
        gd, weights = compressed(random_instance(seed))
        assert_block_form_matches(gd, weights, rng, seed)


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_block_form_matches_the_per_copy_path_on_larger_shapes(name):
    gd, weights = compressed(with_clauses(SHAPES[name](), 7))
    assert_block_form_matches(gd, weights, random.Random(name), name)


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_both_string_forms_read_the_same(name):
    # evaluate on G* returns its compact string, which G* reads by position;
    # a dict of the same bits is read by id.  The check, the objective and
    # the brute backend, given the string as its pins, must not tell them
    # apart, on the correct string and on one evaluated with four copies
    # pinned to the other bit.
    gd, weights = compressed(with_clauses(SHAPES[name](), 7))
    rng = random.Random(name)
    correct = evaluate(gd, ProofOracle())
    flips = rng.sample(list(gd.pins()[1])[:-1], 4)
    flipped = evaluate(gd, ProofOracle(), {cid: correct[cid] ^ 1 for cid in flips})
    for compact, is_correct in ((correct, True), (flipped, False)):
        plain = dict(compact)
        assert compact == plain and list(compact) == list(plain) == list(gd.pins()[1]), name
        results = []
        for x in (compact, plain):
            oracle = ProofOracle(transcript=True)
            check = is_correct_query_string(gd, x, oracle)
            two_t = max_t_for_assignment(gd, weights, x, oracle)
            pinned_ones = max_t_for_assignment(gd, weights, x, oracle, check=flips)
            brute = BruteForceBackend(cap=0)
            brute.bind(gd, weights, oracle)
            reach = [brute.decide(theta, x) for theta in (two_t, two_t + 1)]
            results.append((check, two_t, pinned_ones, reach, oracle.stats.transcript))
        assert results[0] == results[1], name
        assert results[0][0] is is_correct and results[0][3] == [True, False], name
    with pytest.raises(TypeError):
        correct[flips[0]] = 1
    assert correct == evaluate(gd, ProofOracle()), name


def test_plan_matches_the_built_graph():
    for seed in range(1000):
        assert_plan_matches(random_instance(seed), seed)
    for name in sorted(SHAPES):
        assert_plan_matches(with_clauses(SHAPES[name](), 7), name)


def test_own_weighting_is_read_once_per_origin(monkeypatch):
    # A solve on G* reads its weighting a block at a time: no lookup by
    # copy id, one row sum per origin in the check and one run per origin.
    gd, weights = compressed(with_clauses(band_dag(24, 3), 2))
    origins = len(weights.by_origin)
    assert not isinstance(weights, dict) and len(weights) == len(gd.nodes) > 10 * origins
    assert [len(ids) for ids, _ in gd.out_sums(weights)] == [1] * (1 + origins)
    ws, sizes = map(list, gd.weight_runs(weights))
    assert len(ws) == len(sizes) == 1 + origins and sum(sizes) == len(gd.nodes)
    lookups = []
    read = OriginWeights.__getitem__
    monkeypatch.setattr(
        OriginWeights, "__getitem__", lambda w, cid: lookups.append(cid) or read(w, cid)
    )
    oracle = ProofOracle()
    ask = threshold_oracle(gd, weights, oracle, EvaluationBackend())
    two_t = binary_search_T(ask, search_budget(weights))
    x = evaluate(gd, oracle)
    assert max_t_for_assignment(gd, weights, x, oracle) == two_t
    # A pinned query below 2T that disagrees with the maximizer scores
    # the best string under its pins through the objective.
    assert ask(two_t - 2, {gd.output: 1 - x[gd.output]})
    assert len(lookups) <= 3 * (1 + origins), len(lookups)


def test_gstar_refuses_a_foreign_weighting():
    # G* reads only the OriginWeights built with it: the same weights per
    # copy, or those of a second build of the same graph, are refused
    # wherever a weighting is read, and a refused bind drops the profile.
    g = with_clauses(band_dag(12, 3), 4)
    gd, weights = compressed(g)
    x = evaluate(gd, ProofOracle())
    for foreign in (dict(weights), compressed(g)[1]):
        assert dict(foreign) == dict(weights)
        with pytest.raises(ValidationError):
            check_admissible(gd, foreign)
        with pytest.raises(ValidationError):
            max_t_for_assignment(gd, foreign, x, ProofOracle())
        with pytest.raises(ValidationError):
            BruteForceBackend().bind(gd, foreign, ProofOracle())
        backend = EvaluationBackend()
        backend.bind(gd, weights, ProofOracle())
        with pytest.raises(ValidationError):
            backend.bind(gd, foreign, ProofOracle())
        with pytest.raises(PipelineError):
            backend.decide(0, {})


def test_pinned_queries_below_two_t_agree_with_brute_force():
    # EvaluationBackend.decide scores a disagreeing pinned query with one
    # pinned evaluation of G*; enumeration answers it without one.
    rng = random.Random(13)
    tried = 0
    for seed in range(400):
        gd, weights = compressed(random_instance(seed))
        ids = list(gd.out_neighbors())
        if len(ids) > 10:
            continue
        oracle = ProofOracle()
        smart, brute = EvaluationBackend(), BruteForceBackend()
        smart.bind(gd, weights, oracle)
        brute.bind(gd, weights, oracle)
        two_t = smart._two_t
        for _ in range(3):
            pins = {cid: rng.randint(0, 1) for cid in rng.sample(ids, rng.randint(1, len(ids)))}
            for theta in (two_t - 1, two_t - 2, two_t - weights[next(iter(pins))]):
                assert smart.decide(theta, pins) == brute.decide(theta, pins), (seed, theta, pins)
                tried += 1
    assert tried > 300


def test_a_missing_wire_names_a_copy_the_string_lacks():
    # A block reads its hidden inputs' wires for all its copies at once and
    # names the first one missing in the order it reads them.  With one
    # wire gone that is the copy the per-copy path names; with several,
    # the per-copy path may meet another first, so only the outcome and
    # the named copy being one of those gone are compared.
    rng = random.Random(3)
    checked = single = 0
    for g in [random_instance(seed) for seed in range(200)] + [with_clauses(band_dag(24, 3), 1)]:
        gd, _ = compressed(g)
        ref = reference(gd)
        x = evaluate(gd, ProofOracle())
        for _ in range(5):
            # Several wires missing, so that copies of one block can miss
            # different ones.
            gone = rng.sample(list(gd.out_neighbors()), rng.randint(1, min(4, len(x))))
            partial = {cid: bit for cid, bit in x.items() if cid not in gone}
            errors = []
            for settle in (
                lambda: dict(gd.forced_bits(partial, ProofOracle(), {})),
                lambda: [ref.forced_bit(nid, partial, ProofOracle()) for nid in ref.topo_order()],
            ):
                try:
                    settle()
                    errors.append(None)
                except WireValueError as exc:
                    errors.append(str(exc))
            if len(gone) == 1:
                assert errors[0] == errors[1], (g, gone)
                single += errors[0] is not None
            elif errors[0] is not None:
                assert errors[1] is not None, (g, gone)
                lacking = {f"no wire value for node {gd.label(cid)}" for cid in gone}
                assert errors[0] in lacking and errors[1] in lacking, (g, gone)
            else:
                assert errors[1] is None, (g, gone)
            checked += errors[0] is not None
    assert checked > 100 and single > 20, (checked, single)


def test_blocks_settle_without_compute_output(monkeypatch):
    # The conductor is the one node settled through compute_output: each
    # block resolves its hidden inputs itself, and raises a missing wire's
    # error itself, with no call.
    calls = []
    real = compress.compute_output
    monkeypatch.setattr(
        compress, "compute_output", lambda *args: calls.append(args) or real(*args)
    )
    raised = 0
    for seed in range(200):
        gd, _ = compressed(random_instance(seed))
        oracle = ProofOracle()
        x = evaluate(gd, oracle)
        assert len(calls) == 1, seed
        del calls[:]
        assert dict(gd.forced_bits(x, oracle, {})) == dict(x), seed
        assert len(calls) == 1, seed
        del calls[:]
        # With the conductor pinned, only a block can read a missing wire.
        pins = {gd.output: x[gd.output]}
        for gone in list(gd.pins()[1])[:-1]:
            partial = {cid: bit for cid, bit in x.items() if cid != gone}
            try:
                dict(gd.forced_bits(partial, oracle, pins))
            except WireValueError:
                raised += 1
            assert not calls, (seed, gone)
    assert raised > 50, raised
