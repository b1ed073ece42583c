import gc
import random
import tracemalloc
from collections import deque

import pytest

from querydag import (
    BruteForceBackend,
    EvaluationBackend,
    ProofOracle,
    WireValueError,
    build_compressed,
    build_separator_tree,
    compute_output,
    evaluate,
    expected_expanded_size,
    is_correct_query_string,
    lift_query_string,
    max_t_for_assignment,
    omega_weights,
    search_budget,
    total_weight,
)
from querydag.weighting import ADMISSIBILITY_C, descendant_masks

from compress_reference import (
    build_compressed as record_based_build,
    least_weights,
    without_dummies,
)
from conftest import brute_two_t, random_instance
from paper_stages import add_conductor, expand_to_gprime, staged_compute_output
from test_septree_digest import band_dag, binary_in_tree, grid_dag


def compress_all(g):
    tree = build_separator_tree(g)
    gp = expand_to_gprime(g, tree)
    gpp = add_conductor(gp)
    gstar, fstar = build_compressed(g, tree)
    return tree, gp, gpp, gstar, fstar


def by_label(gd):
    return {gd.label(cid): cid for cid in gd.nodes}


def test_expand_chain2(chain2):
    tree = build_separator_tree(chain2)
    gp = expand_to_gprime(chain2, tree)
    # Two copies of v1 over z1, four of v2 over (z1, z2), no edges: v2 has no
    # descendants and v1's descendant sits lower in the tree.
    assert len(gp.nodes) == 6
    assert gp.edge_count() == 0
    labels = set(by_label(gp))
    assert labels == {
        "v1^{0}", "v1^{1}",
        "v2^{0,0}", "v2^{0,1}", "v2^{1,0}", "v2^{1,1}",
    }


def test_expand_single_node(single_vacuous):
    tree = build_separator_tree(single_vacuous)
    gp = expand_to_gprime(single_vacuous, tree)
    assert len(gp.nodes) == 2
    assert gp.edge_count() == 0


def test_expand_upward_edges_on_chain3(chain3):
    tree, gp, gpp, gstar, fstar = compress_all(chain3)
    # Root separator {2}; copies of 1 point up to the matching copy of 2.
    labels = by_label(gp)
    for z1 in "01":
        for z2 in "01":
            src = labels[f"v1^{{{z1},{z2}}}"]
            assert gp.out_neighbors()[src] == (labels[f"v2^{{{z1}}}"],)


def test_add_conductor_counts(chain2, single_vacuous):
    tree = build_separator_tree(chain2)
    gpp = add_conductor(expand_to_gprime(chain2, tree))
    assert len(gpp.nodes) == 7
    assert gpp.edge_count() == 6
    tree1 = build_separator_tree(single_vacuous)
    gpp1 = add_conductor(expand_to_gprime(single_vacuous, tree1))
    assert len(gpp1.nodes) == 3
    assert gpp1.edge_count() == 2


def test_size_formula_on_random_instances():
    for seed in range(25):
        g = random_instance(seed, max_n=6)
        tree = build_separator_tree(g)
        gpp = add_conductor(expand_to_gprime(g, tree))
        assert len(gpp.nodes) == expected_expanded_size(tree)


def test_compute_output_trace_chain2(chain2):
    tree, gp, gpp, gstar, fstar = compress_all(chain2)
    labels = by_label(gpp)
    wires = {labels["v1^{0}"]: 1, labels["v2^{1,0}"]: 1}
    # z1 is read off v1^{0} (partial string still zero), z2 off v2^{z1,0}.
    assert staged_compute_output(gpp, 2, (), wires) == 1
    wires0 = {labels["v1^{0}"]: 0, labels["v2^{0,0}"]: 0}
    assert staged_compute_output(gpp, 2, (), wires0) == 0


def test_compute_output_base_case_reads_no_wires(chain2):
    tree, gp, gpp, gstar, fstar = compress_all(chain2)
    # Conditioning already covers v1's depth: the bit is hardcoded.
    assert staged_compute_output(gpp, 1, ("1",), {}) == 1
    assert staged_compute_output(gpp, 1, ("0",), {}) == 0


def test_compute_output_missing_wire_names_node(chain2):
    tree, gp, gpp, gstar, fstar = compress_all(chain2)
    with pytest.raises(WireValueError, match=r"v1\^\{0\}"):
        staged_compute_output(gpp, 2, (), {})


def test_gstar_compute_output_trace_chain2(chain2):
    tree, gp, gpp, gstar, fstar = compress_all(chain2)
    labels = by_label(gstar)
    # v1 sees no ancestor, so its bit is read off v1^{*}; v2's copy is then
    # the one whose signature holds that bit.
    wires = {labels["v1^{*}"]: 1, labels["v2^{1,*}"]: 1}
    assert compute_output(gstar, 2, {}, wires) == 1
    wires0 = {labels["v1^{*}"]: 0, labels["v2^{0,*}"]: 0}
    assert compute_output(gstar, 2, {}, wires0) == 0


def test_gstar_compute_output_known_bit_reads_no_wires(chain2):
    tree, gp, gpp, gstar, fstar = compress_all(chain2)
    labels = by_label(gstar)
    assert compute_output(gstar, 1, {1: 1}, {}) == 1
    assert compute_output(gstar, 1, {1: 0}, {}) == 0
    # A known v1 selects v2's copy without reading v1^{*}.
    assert compute_output(gstar, 2, {1: 1}, {labels["v2^{1,*}"]: 1}) == 1


def test_gstar_compute_output_missing_wire_names_node(chain2):
    tree, gp, gpp, gstar, fstar = compress_all(chain2)
    with pytest.raises(WireValueError, match=r"v1\^\{\*\}"):
        compute_output(gstar, 2, {}, {})


def test_merge_chain2(chain2):
    tree, gp, gpp, gstar, fstar = compress_all(chain2)
    labels = by_label(gstar)
    assert set(labels) == {"t", "v1^{*}", "v2^{0,*}", "v2^{1,*}"}
    # No copy points to another: each weighs 1 + 2 * (the conductor's 1).
    assert fstar[labels["v1^{*}"]] == 3
    assert fstar[labels["v2^{0,*}"]] == 3
    assert fstar[labels["v2^{1,*}"]] == 3
    assert fstar[labels["t"]] == 1
    assert total_weight(fstar) == 10


def test_gstar_is_gpp_grouped_by_signature():
    # The paper's definition of G* is the materialized route: build every
    # copy (G''), weight it with omega, and collapse the copies of an origin
    # that agree on its visible ancestors.  build_compressed must produce
    # exactly that graph, less the dummies' copies, without building G'',
    # and the reference build the paper's merged weighting on it.  A dummy's
    # copies in G'' point only to the conductor.
    instances = [random_instance(seed, max_n=6) for seed in range(25)]
    instances.append(random_instance(94))  # reaches depth 3
    for g in instances:
        tree = build_separator_tree(g)
        gpp = add_conductor(expand_to_gprime(g, tree))
        omega = omega_weights(gpp)
        groups = {}
        for node in gpp.nodes.values():
            if node.origin in g.by_id:
                groups.setdefault((node.origin, node.signature), []).append(node.cid)
            elif not node.is_conductor:
                assert gpp.edges_out[node.cid] == (gpp.conductor_id,)
        gstar, _ = build_compressed(g, tree)
        _, paper = without_dummies(*record_based_build(g, tree))
        rep = {gpp.conductor_id: gstar.conductor_id}
        for node in gstar.nodes.values():
            if node.is_conductor:
                continue
            key = (node.origin, node.signature)
            assert key in groups and all(c not in rep for c in groups[key])
            rep.update((c, node.cid) for c in groups[key])
            assert paper[node.cid] == sum(omega[c] for c in groups[key])
            visible = gstar.visible_ancestors(node.origin)
            shown = {(lvl, pos): bit for (_, lvl, pos), (_, bit) in zip(visible, node.signature)}
            depth = tree.depth_of(node.supervertex)
            assert [len(part) for part in node.conditioning] == [tree.uniform_size] * depth
            for lvl, part in enumerate(node.conditioning):
                for pos, ch in enumerate(part):
                    assert ch == (str(shown[lvl, pos]) if (lvl, pos) in shown else "*")
        assert len(gstar.nodes) == len(groups) + 1
        assert paper[gstar.conductor_id] == omega[gpp.conductor_id]
        image = {
            (rep[a], rep[b]) for a, targets in gpp.edges_out.items() if a in rep for b in targets
        }
        edges = {(a, b) for a, targets in gstar.out_neighbors().items() for b in targets}
        assert edges == image


def test_merge_no_duplicate_signatures(chain3):
    tree, gp, gpp, gstar, fstar = compress_all(chain3)
    seen = set()
    for node in gstar.nodes.values():
        if node.is_conductor:
            continue
        key = (node.origin, node.signature)
        assert key not in seen
        seen.add(key)


def test_weight_conservation_and_admissibility_on_random_instances():
    # The paper's merged weighting conserves W(G'') and is admissible; the
    # package's least weighting is admissible on the same graph and weighs
    # no more.
    from querydag import check_admissible

    for seed in range(25):
        g = random_instance(seed, max_n=6)
        tree = build_separator_tree(g)
        gpp = add_conductor(expand_to_gprime(g, tree))
        w_before = total_weight(omega_weights(gpp))
        ref, paper = record_based_build(g, tree)
        assert total_weight(paper) == w_before
        ok, bad = check_admissible(ref, paper)
        assert ok, f"seed {seed}: admissibility of the paper's weighting broken at {bad}"
        gstar, fstar = build_compressed(g, tree)
        assert len(gstar.nodes) <= len(gpp.nodes)
        ok, bad = check_admissible(gstar, fstar)
        assert ok, f"seed {seed}: admissibility broken at {bad}"
        assert total_weight(fstar) <= w_before


def origin_descendant_count(gd):
    """Largest number of distinct origin vertices (conductor counted) among
    any node's descendants."""
    ids = list(gd.node_ids())
    idx = {nid: i for i, nid in enumerate(ids)}
    masks = descendant_masks(ids, gd.out_neighbors())
    best = 0
    for nid in ids:
        origins = {
            gd.nodes[other].origin
            for other in ids
            if (masks[nid] >> idx[other]) & 1
        }
        best = max(best, len(origins))
    return best


def test_descendant_bound_on_random_instances():
    # Before merging every descendant occupies a distinct (supervertex,
    # position) slot on the branch above, so the node count is bounded;
    # merging unions edge sets, which preserves the bound per distinct
    # origin but not per node (see the counterexample below).
    for seed in range(25):
        g = random_instance(seed, max_n=6)
        tree = build_separator_tree(g)
        gpp = add_conductor(expand_to_gprime(g, tree))
        masks = descendant_masks(list(gpp.node_ids()), gpp.out_neighbors())
        bound = tree.uniform_size * tree.depth() + 1
        assert max(m.bit_count() for m in masks.values()) <= bound
        gstar, fstar = build_compressed(g, tree)
        assert origin_descendant_count(gstar) <= bound


def test_member_at_depth_three_splits_into_64_copies():
    # With separators of size 2, a vertex whose supervertex sits at depth 3
    # gets one copy per conditioning tuple: 2^(2*3) = 64.
    g = random_instance(94)
    tree = build_separator_tree(g)
    assert tree.uniform_size == 2 and tree.depth() == 3
    gp = expand_to_gprime(g, tree)
    deepest = [sv for sv in tree.supervertices if tree.depth_of(sv.id) == 3]
    assert deepest
    member = deepest[0].members[0]
    copies = [n for n in gp.nodes.values() if n.origin == member]
    assert len(copies) == 64


def test_merge_union_can_exceed_per_node_descendant_bound():
    # A source vertex deep in the tree merges into one copy whose unioned
    # edges reach one representative per surviving signature of a descendant,
    # so counting descendant nodes (rather than origins) can exceed sD + 1.
    g = random_instance(94)
    tree = build_separator_tree(g)
    gstar, fstar = build_compressed(g, tree)
    masks = descendant_masks(list(gstar.node_ids()), gstar.out_neighbors())
    bound = tree.uniform_size * tree.depth() + 1
    assert max(m.bit_count() for m in masks.values()) == bound + 1
    assert origin_descendant_count(gstar) <= bound


def test_evaluate_compressed_equals_evaluate(chain2, chain2_v2_unsat):
    oracle = ProofOracle()
    for g in (chain2, chain2_v2_unsat):
        tree, gp, gpp, gstar, fstar = compress_all(g)
        bits = evaluate(gstar, oracle)
        assert bits[gstar.conductor_id] == evaluate(g, oracle)[g.output]


def test_compression_equivalence_on_random_instances():
    oracle = ProofOracle()
    for seed in range(40):
        g = random_instance(seed)
        tree = build_separator_tree(g)
        gstar, fstar = build_compressed(g, tree)
        bits = evaluate(gstar, oracle)
        assert bits[gstar.conductor_id] == evaluate(g, oracle)[g.output]
        assert is_correct_query_string(gstar, bits, oracle)


def test_lift_chain2_example(chain2):
    tree, gp, gpp, gstar, fstar = compress_all(chain2)
    labels = by_label(gstar)
    xstar = {
        labels["v1^{*}"]: 1,
        labels["v2^{0,*}"]: 0,
        labels["v2^{1,*}"]: 1,
        labels["t"]: 1,
    }
    assert lift_query_string(chain2, gstar, xstar) == {1: 1, 2: 1}


def test_lift_single_vacuous(single_vacuous):
    tree, gp, gpp, gstar, fstar = compress_all(single_vacuous)
    bits = evaluate(gstar, ProofOracle())
    assert lift_query_string(single_vacuous, gstar, bits) == {1: 1}


def test_lift_is_correct_on_random_instances():
    oracle = ProofOracle()
    for seed in range(30):
        g = random_instance(seed)
        tree = build_separator_tree(g)
        gstar, fstar = build_compressed(g, tree)
        xstar = evaluate(gstar, oracle)
        lifted = lift_query_string(g, gstar, xstar)
        assert is_correct_query_string(g, lifted, oracle)


def two_t_of(gd, weights, oracle):
    """The correct query string of gd and its scaled objective 2T."""
    bits = evaluate(gd, oracle)
    return bits, max_t_for_assignment(gd, weights, bits, oracle, check=())


def test_padding_costs_nothing():
    # The paper's G* keeps one copy per dummy the separator tree pads with:
    # it reads no wire, answers 1 and points only to the conductor, so the
    # least weighting gives it 1 + c.  G* leaves those copies out, so
    # against that graph under the same weighting it has |dummies| fewer
    # nodes, W is lower by (1 + c) |dummies| and 2T by twice that, the
    # budget never rises, and the answer and the lifted witness stay.
    oracle = ProofOracle()
    step = 1 + ADMISSIBILITY_C
    padded = dummy_total = 0
    cases = [(f"corpus {seed}", random_instance(seed)) for seed in range(1000)]
    cases += [(name, make()) for name, (make, _, _) in BUDGETS.items()]
    for name, g in cases:
        tree = build_separator_tree(g)
        gstar, fstar = build_compressed(g, tree)
        ref, _ = record_based_build(g, tree)
        least = least_weights(ref)
        dummies = len(tree.dummies)
        assert len(ref.nodes) - len(gstar.nodes) == dummies, name
        assert total_weight(least) - total_weight(fstar) == step * dummies, name
        assert search_budget(fstar) <= search_budget(least), name
        x, two_t = two_t_of(gstar, fstar, oracle)
        x_ref, two_t_ref = two_t_of(ref, least, oracle)
        assert two_t_ref - two_t == 2 * step * dummies, name
        assert x[gstar.output] == x_ref[ref.output], name
        assert lift_query_string(g, gstar, x) == lift_query_string(g, ref, x_ref), name
        origins = {gstar.nodes[cid].origin for cid in gstar.node_ids()}
        assert origins == {None, *g.by_id}, name
        if name.startswith("corpus"):
            padded += dummies > 0
            dummy_total += dummies
    assert (padded, dummy_total) == (320, 1251)


def test_backends_agree_on_a_padded_graph():
    # K4 forces dummy padding, which leaves G*; enumeration and evaluation
    # must still agree under random pins, at thresholds around 2T and
    # around the best score the pins allow.
    from querydag import build_dag

    g = build_dag(
        [
            (1, "verifier", [], 1, [[1]]),
            (2, "verifier", [1], 1, [[1]]),
            (3, "verifier", [1, 2], 1, [[1]]),
            (4, "verifier", [1, 2, 3], 1, [[1]]),
        ],
        4,
    )
    tree = build_separator_tree(g)
    assert tree.dummies
    gstar, fstar = build_compressed(g, tree)
    assert len(gstar.nodes) == 16
    oracle = ProofOracle()
    brute, smart = BruteForceBackend(), EvaluationBackend()
    brute.bind(gstar, fstar, oracle)
    smart.bind(gstar, fstar, oracle)
    _, two_t = two_t_of(gstar, fstar, oracle)
    ids = gstar.node_ids()
    rng = random.Random(4)
    below = 0
    for _ in range(30):
        # At most 10 unpinned bits, for the enumeration.
        pinned = rng.sample(ids, rng.randint(len(ids) - 10, len(ids)))
        pins = {nid: rng.randint(0, 1) for nid in pinned}
        best = brute_two_t(gstar, fstar, pins)
        below += best < two_t
        for theta in sorted({two_t - 1, two_t, two_t + 1, best, best + 1}):
            assert brute.decide(theta, pins) == smart.decide(theta, pins), (theta, pins)
    assert below >= 20


def record_build_cases(corpus=1000):
    """The first `corpus` instances of the 1000-instance corpus, then larger
    shapes it lacks: band-2 at the sizes of the band2-compress workload,
    band-3 up to 30 nodes and the 31-node binary in-tree."""
    for seed in range(corpus):
        yield f"corpus {seed}", random_instance(seed)
    for n in (20, 24, 26, 28):
        yield f"band-2 n={n}", band_dag(n, 2)
    for n in range(12, 31, 3):
        yield f"band-3 n={n}", band_dag(n, 3)
    yield "binary in-tree n=31", binary_in_tree(31)


def test_blocks_match_the_record_based_build():
    # The block build must be the graph the record-based reference builds,
    # less the dummies' copies: the same to_doc document, the same
    # edges and orders in the same order, and every signature must find the
    # same copy.  Its closed-form weights must be the least admissible
    # weighting, found node by node on the reference graph, keyed like the
    # paper's merged weighting and below it at every node.
    copies = 0
    for name, g in record_build_cases():
        tree = build_separator_tree(g)
        gstar, fstar = build_compressed(g, tree)
        ref, ref_weights = without_dummies(*record_based_build(g, tree))
        least = least_weights(ref)
        assert gstar.to_doc(fstar) == ref.to_doc(least), name
        assert fstar == least, name
        assert list(fstar) == list(ref_weights), name
        assert all(fstar[cid] <= w for cid, w in ref_weights.items()), name
        assert list(gstar.out_neighbors().items()) == list(ref.out_neighbors().items()), name
        assert gstar.topo_order() == ref.topo_order(), name
        assert gstar.node_ids() == ref.node_ids(), name
        assert len(gstar.nodes) == len(ref.nodes), name
        assert list(gstar.nodes.values()) == list(ref.nodes.values()), name
        for node in ref.nodes.values():
            if node.is_conductor:
                continue
            sig = dict(node.signature)
            assert gstar.copy_of(node.origin, sig) == ref.copy_of(node.origin, sig) == node.cid
            copies += 1
    assert copies > 15_000  # 16,174 at the time of writing


def test_forced_bit_matches_the_record_based_reference():
    # A visible input read off the copy's index, and the rest resolved
    # through compute_output, must give every copy the answer the reference
    # gives, one copy at a time, by resolving every input through
    # compute_output, with the same proof calls in the same order.  Besides
    # the correct string, three random strings per graph, whose bits are
    # mostly not the forced ones, stand for the strings the objective
    # scores.
    rng = random.Random(24)
    checks = 0
    for name, g in record_build_cases(corpus=200):
        tree = build_separator_tree(g)
        gstar, _ = build_compressed(g, tree)
        ref, _ = without_dummies(*record_based_build(g, tree))
        ids = gstar.node_ids()
        strings = [evaluate(gstar, ProofOracle())]
        strings += [{cid: rng.randint(0, 1) for cid in ids} for _ in range(3)]
        for x in strings:
            mine, theirs = ProofOracle(transcript=True), ProofOracle(transcript=True)
            bits = dict(gstar.forced_bits(x, mine, {}))
            for cid in gstar.topo_order():
                assert bits[cid] == ref.forced_bit(cid, x, theirs), (name, cid)
                checks += 1
            assert mine.stats.transcript == theirs.stats.transcript, name
    assert checks > 35_000  # 39,932 at the time of writing


def test_forced_bit_missing_wire_names_node(chain3):
    # v2 sits at the root and v1 below it, so v2's one copy cannot see its
    # input v1: the bit is read off v1's copy, and a string without it
    # names that copy.  v1 reads no wire and v3 sees its input v2; the
    # conductor, which would read v2's copy, is pinned.
    tree, gp, gpp, gstar, fstar = compress_all(chain3)
    labels = by_label(gstar)
    with pytest.raises(WireValueError, match=r"v1\^\{\*,\*\}"):
        dict(gstar.forced_bits({}, ProofOracle(), {}))
    x, pins = {labels["v1^{*,*}"]: 1}, {gstar.conductor_id: 0}
    assert dict(gstar.forced_bits(x, ProofOracle(), pins))[labels["v2^{*}"]] == 1


def test_forced_bit_with_visible_inputs_reads_no_wire(chain2):
    # v2's one input v1 is visible, so each copy of v2 reads it off its own
    # index: an empty string, which would fail any wire lookup, suffices
    # once every other node is pinned.
    tree, gp, gpp, gstar, fstar = compress_all(chain2)
    labels = by_label(gstar)
    v2 = (labels["v2^{0,*}"], labels["v2^{1,*}"])
    pins = {cid: 0 for cid in gstar.node_ids() if cid not in v2}
    oracle = ProofOracle(transcript=True)
    bits = dict(gstar.forced_bits({}, oracle, pins))
    assert bits[labels["v2^{1,*}"]] == 1
    assert bits[labels["v2^{0,*}"]] == 0
    assert oracle.stats.transcript == [("proof", 2, "0", False), ("proof", 2, "1", True)]


def test_compute_output_fills_the_dict_it_is_given():
    # One dict shared by a whole lift gives the bits fresh dicts give, and a
    # call leaves u and each of its visible ancestors in the dict it was
    # given, so a second call answers from it without reading a wire.
    rng = random.Random(20)
    for name, g in record_build_cases():
        gstar, _ = build_compressed(g, build_separator_tree(g))
        x = {cid: rng.randint(0, 1) for cid in gstar.node_ids()}
        fresh = {v: compute_output(gstar, v, {}, x) for v in g.by_id}
        assert lift_query_string(g, gstar, x) == fresh, name
        for u in g.by_id:
            bits = {}
            bit = compute_output(gstar, u, bits, x)
            assert bits.keys() >= {u, *(a for a, _, _ in gstar.visible_ancestors(u))}, name
            assert compute_output(gstar, u, bits, {}) == bit == fresh[u], name


# The compress budget, search plus the final pinned query, under the
# paper's merged weighting and under the least weighting.  Band-4 at
# n = 40 (39 -> 22) costs 0.8 s here, so a smaller band-4 stands in.
BUDGETS = {
    "chain-256": (lambda: band_dag(256, 1), 26, 21),
    "bintree-255": (lambda: binary_in_tree(255), 30, 22),
    "band-2 n=48": (lambda: band_dag(48, 2), 27, 18),
    "band-3 n=48": (lambda: band_dag(48, 3), 34, 21),
    "band-4 n=28": (lambda: band_dag(28, 4), 33, 19),
    "grid 3x12": (lambda: grid_dag(3, 12), 29, 17),
    "grid 4x8": (lambda: grid_dag(4, 8), 36, 17),
}


def test_closed_form_is_the_least_weighting():
    # On graphs larger than the shapes of record_build_cases, which
    # test_blocks_match_the_record_based_build covers, the closed form must
    # equal the node-by-node recursion on G*, lie below the paper's merged
    # weighting at every node, and give the budgets recorded here.
    for name, (make, paper_budget, budget) in BUDGETS.items():
        g = make()
        tree = build_separator_tree(g)
        gstar, fstar = build_compressed(g, tree)
        assert fstar == least_weights(gstar), name
        ref, paper = record_based_build(g, tree)
        _, paper_real = without_dummies(ref, paper)
        assert all(fstar[cid] <= w for cid, w in paper_real.items()), name
        assert (search_budget(paper) + 1, search_budget(fstar) + 1) == (paper_budget, budget), name


def test_total_weight_is_exact():
    # The paper's W(G*) = 1 + sum over real and dummy vertices u of
    # 3^(1 + a_u) * 2^(s * d_u): d_u is the depth of u's supervertex and
    # a_u counts u's descendants in the supervertices strictly above it on
    # its branch, found here by a breadth-first search of g.
    for name, g in record_build_cases():
        tree = build_separator_tree(g)
        _, paper = record_based_build(g, tree)
        s = tree.uniform_size
        out = g.out_neighbors()
        expected = 1
        for sv in tree.supervertices:
            depth = tree.depth_of(sv.id)
            higher = {m for svid in tree.branch(sv.id)[:-1] for m in tree.by_id[svid].members}
            for u in sv.members:
                # Dummies are not in g and have no descendants.
                reached, queue = set(), deque(out.get(u, ()))
                while queue:
                    v = queue.popleft()
                    if v not in reached:
                        reached.add(v)
                        queue.extend(out[v])
                a_u = len(reached & higher)
                assert a_u <= s * (depth - 1), name
                expected += 3 ** (1 + a_u) * 2 ** (s * depth)
        assert total_weight(paper) == expected, name


def test_row_lookups_match_the_block_rows():
    # out_neighbors() makes its rows a block at a time in items(), and one
    # copy's row by index arithmetic of its own on a lookup: the two must
    # agree on every node.  An id that is no node raises KeyError, as a
    # dict would: below the conductor, in the gap before the first block,
    # and past the last.
    for name, g in record_build_cases():
        gstar, _ = build_compressed(g, build_separator_tree(g))
        out = gstar.out_neighbors()
        rows = list(out.items())
        assert [cid for cid, _ in rows] == list(out) == gstar.node_ids(), name
        assert len(out) == len(rows), name
        for cid, row in rows:
            assert out[cid] == row, (name, cid)
        for bad in (-1, 1, max(gstar.node_ids()) + 1):
            assert bad not in out and bad not in gstar.nodes, (name, bad)
            with pytest.raises(KeyError):
                out[bad]
            with pytest.raises(KeyError):
                gstar.nodes[bad]


def test_build_keeps_no_table_per_copy():
    # G* keeps its blocks and the range of its ids: the build retained 304
    # bytes per node of band-3 n=48 (10,861 nodes) when it also kept an
    # edge tuple and an origin entry per copy, 72 without them, and 45 with
    # one list of ids, about 5 with none.
    g = band_dag(48, 3)
    tree = build_separator_tree(g)
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        gstar, fstar = build_compressed(g, tree)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert len(gstar.nodes) == len(fstar) == 10861
    assert kept / len(gstar.nodes) < 10


def test_node_count_and_lookups_build_no_record(monkeypatch):
    # len(gstar.nodes) is read after every traced build, and evaluation
    # reads only ids, blocks and edges: none of them may make a record.
    from querydag.compress import CompressedDag

    g = band_dag(20, 2)
    gstar, fstar = build_compressed(g, build_separator_tree(g))

    def forbidden(self, cid):
        raise AssertionError("a record was made")

    monkeypatch.setattr(CompressedDag, "_record", forbidden)
    assert len(gstar.nodes) == len(gstar.node_ids()) == 214
    assert gstar.conductor_id in gstar.nodes and gstar.topo_order()[0] in gstar.nodes
    assert -1 not in gstar.nodes
    bits = evaluate(gstar, ProofOracle())
    assert is_correct_query_string(gstar, bits, ProofOracle())
    monkeypatch.undo()
    assert gstar.nodes[gstar.topo_order()[0]].origin is not None
    with pytest.raises(KeyError):
        gstar.nodes[-1]
