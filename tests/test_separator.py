import itertools
import math
import random

import pytest

from querydag import (
    SeparatorTree,
    Supervertex,
    ValidationError,
    build_dag,
    build_depth_bounded_tree,
    build_separator_tree,
)
from querydag import separator
from querydag.cli import gen_instance

from conftest import random_instance
from separator_reference import (
    adjacency,
    balanced_separators,
    children,
    skeleton,
    verify_separator_tree,
)
from test_septree_digest import band_dag, binary_in_tree, corpus, dag_from_inputs, grid_dag


def path(n):
    return build_dag(
        [(i, "verifier", [i - 1] if i > 1 else [], 1, [[1]]) for i in range(1, n + 1)],
        n,
    )


def mask_ids(mask, ids):
    return tuple(ids[i] for i in range(len(ids)) if mask >> i & 1)


def mask_separators(vertices, adj, max_size):
    """separator._balanced_separators run on the vertex set `vertices` of the
    graph `adj` (bit i is the i-th smallest id of adj), with every yield
    read back as the (members, components) ids of the reference."""
    ids = sorted(adj)
    index = {v: i for i, v in enumerate(ids)}
    nbrs = [sum(1 << index[w] for w in adj[v]) for v in ids]
    subset = sum(1 << index[v] for v in vertices)
    for members, parts in separator._balanced_separators(subset, nbrs, max_size):
        yield mask_ids(sum(members), ids), tuple(mask_ids(part, ids) for part in parts)


def reference_on_masks(subset, nbrs, max_size):
    """The reference enumerator behind the mask interface of
    separator._balanced_separators."""
    vertices = [i for i in range(len(nbrs)) if subset >> i & 1]
    adj = {i: {j for j in range(len(nbrs)) if nbrs[i] >> j & 1} for i in vertices}
    for members, comps in balanced_separators(vertices, adj, max_size):
        yield tuple(1 << v for v in members), [sum(1 << v for v in comp) for comp in comps]


def first_separator(vertices, adj, max_size):
    return next(mask_separators(vertices, adj, max_size), None)


def test_find_separator_star(star4):
    members, comps = first_separator([1, 2, 3, 4], skeleton(star4), 1)
    assert members == (4,)
    assert comps == ((1,), (2,), (3,))


def test_find_separator_single_vertex():
    members, comps = first_separator([1], adjacency([1], []), 1)
    assert members == (1,)
    assert comps == ()


def test_find_separator_path3_only_middle_works():
    g = path(3)
    # Exhaustive check over singletons: the endpoints leave one connected
    # 2-vertex component, which exceeds ceil((3 - 1) / 2) = 1.
    for v in (1, 3):
        rest = {1, 2, 3} - {v}
        assert len(rest) == 2  # connected, too large to be balanced
    members, comps = first_separator([1, 2, 3], skeleton(g), 1)
    assert members == (2,)
    assert comps == ((1,), (3,))


def test_find_separator_none_when_bound_too_small():
    # K4 skeleton has no balanced separator of size 1 or 2.
    g = build_dag(
        [
            (1, "verifier", [], 1, [[1]]),
            (2, "verifier", [1], 1, [[1]]),
            (3, "verifier", [1, 2], 1, [[1]]),
            (4, "verifier", [1, 2, 3], 1, [[1]]),
        ],
        4,
    )
    assert first_separator([1, 2, 3, 4], skeleton(g), 2) is None
    members, _ = first_separator([1, 2, 3, 4], skeleton(g), 3)
    assert members == (1, 2, 3)


def test_build_tree_chain2(chain2):
    tree = build_separator_tree(chain2)
    assert tree.to_doc() == {
        "uniform_size": 1,
        "supervertices": [
            {"id": 1, "members": [1], "parent": None},
            {"id": 2, "members": [2], "parent": 1},
        ],
        "dummies": [],
    }
    assert tree.depth() == 2
    assert verify_separator_tree(chain2, tree)


def test_build_tree_single_node(single_vacuous):
    tree = build_separator_tree(single_vacuous)
    assert len(tree.supervertices) == 1
    assert tree.depth() == 1
    assert verify_separator_tree(single_vacuous, tree)


def test_build_tree_pads_with_dummies():
    # K4 forces a root of size 3 and a singleton child, padded by 2 dummies.
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
    assert tree.uniform_size == 3
    assert tree.dummies == (5, 6)
    assert all(len(sv.members) == 3 for sv in tree.supervertices)
    assert verify_separator_tree(g, tree)


def test_ten_node_path_admits_depth3_size2_tree():
    g = path(10)
    tree = build_depth_bounded_tree(g, 3, 2)
    assert tree is not None
    assert tree.depth() <= 3
    assert tree.uniform_size == 2
    assert verify_separator_tree(g, tree)


def test_branch_rejects_parent_pointers_that_form_a_cycle():
    tree = SeparatorTree([Supervertex(1, (1,), 2), Supervertex(2, (2,), 1)], 1, ())
    with pytest.raises(ValidationError, match="do not reach a root"):
        tree.branch(1)


@pytest.mark.parametrize("depth, size", [(0, 1), (1, 0), (-1, 1)])
def test_depth_bounded_rejects_bounds_below_one(chain2, depth, size):
    with pytest.raises(ValidationError, match="at least 1"):
        build_depth_bounded_tree(chain2, depth, size)


def test_depth_bounded_star(star4):
    tree = build_depth_bounded_tree(star4, 2, 1)
    assert tree is not None
    (root,) = [sv for sv in tree.supervertices if sv.parent is None]
    assert root.members == (4,)
    assert len(children(tree)[root.id]) == 3
    assert verify_separator_tree(star4, tree)


def test_depth_bounded_infeasible_returns_none():
    assert build_depth_bounded_tree(path(4), 1, 1) is None


def test_depth_bounded_chain2_matches_balanced(chain2):
    balanced = build_separator_tree(chain2)
    bounded = build_depth_bounded_tree(chain2, 2, 1)
    assert bounded.to_doc() == balanced.to_doc()


def test_verify_accepts_whole_set_root(chain2):
    tree = SeparatorTree(
        [Supervertex(id=1, members=(1, 2), parent=None)], 2, ()
    )
    assert verify_separator_tree(chain2, tree)


def test_verify_rejects_components_in_one_child():
    # Removing the middle of a 3-path separates {1} from {3}; hanging both
    # under a single child chain is not a separator tree.
    g = path(3)
    bad = SeparatorTree(
        [
            Supervertex(id=1, members=(2,), parent=None),
            Supervertex(id=2, members=(1,), parent=1),
            Supervertex(id=3, members=(3,), parent=2),
        ],
        1,
        (),
    )
    assert not verify_separator_tree(g, bad)


def test_verify_rejects_non_separator_root():
    g = path(3)
    bad = SeparatorTree(
        [
            Supervertex(id=1, members=(1,), parent=None),
            Supervertex(id=2, members=(2,), parent=1),
            Supervertex(id=3, members=(3,), parent=2),
        ],
        1,
        (),
    )
    assert not verify_separator_tree(g, bad)


def test_verify_rejects_balance_reached_only_through_dummies():
    # The endpoint 1 of a 3-path leaves the connected pair {2, 3}, which no
    # balanced separator may do.  Counting the four dummies below the root
    # as isolated vertices would lift the threshold from 1 to 3.
    g = path(3)
    bad = SeparatorTree(
        [
            Supervertex(id=1, members=(1, 4, 5), parent=None),
            Supervertex(id=2, members=(2, 6, 7), parent=1),
            Supervertex(id=3, members=(3, 8, 9), parent=2),
        ],
        3,
        (4, 5, 6, 7, 8, 9),
    )
    assert not verify_separator_tree(g, bad)


def test_verify_rejects_wrong_sizes(chain2):
    bad = SeparatorTree(
        [
            Supervertex(id=1, members=(1,), parent=None),
            Supervertex(id=2, members=(2,), parent=1),
        ],
        2,
        (),
    )
    assert not verify_separator_tree(chain2, bad)


def test_builders_pass_verifier_on_random_instances():
    for seed in range(40):
        g = random_instance(seed)
        tree = build_separator_tree(g)
        assert verify_separator_tree(g, tree)
        n = len(g.nodes)
        assert tree.depth() <= math.ceil(math.log2(n)) + 1 if n > 1 else tree.depth() == 1


def test_depth_bounded_passes_verifier_on_random_instances():
    for seed in range(15):
        g = random_instance(seed, max_n=6)
        balanced = build_separator_tree(g)
        tree = build_depth_bounded_tree(g, balanced.depth(), balanced.uniform_size)
        assert tree is not None
        assert verify_separator_tree(g, tree)


def test_builder_is_deterministic():
    for seed in (3, 11):
        g = random_instance(seed)
        assert build_separator_tree(g).to_doc() == build_separator_tree(g).to_doc()


def random_adjacency(rng):
    """A seeded random graph on scattered ids, and a random subset of it:
    the subset may be disconnected, hold isolated vertices, or have at most
    two vertices, and edges to vertices outside it must be ignored."""
    ids = rng.sample(range(1, 60), rng.randint(0, 11))
    p = rng.choice((0.0, 0.1, 0.2, 0.35, 0.6, 0.9))
    edges = [(a, b) for a, b in itertools.combinations(ids, 2) if rng.random() < p]
    subset = [v for v in ids if rng.random() < 0.8]
    return subset, adjacency(ids, edges)


def test_enumerator_matches_reference_sequence(monkeypatch):
    # Every separator, members and components, in order, for every size
    # bound; and for the largest bound with balls and floods on every prefix
    # and with flood fills only.
    rng = random.Random(13)
    small = 0
    for _ in range(600):
        subset, adj = random_adjacency(rng)
        small += len(subset) <= 2
        expected = list(balanced_separators(subset, adj, len(subset)))
        for max_size in range(1, len(subset) + 1):
            got = list(mask_separators(subset, adj, max_size))
            assert got == [s for s in expected if len(s[0]) <= max_size]
        for few in (0, len(subset)):
            monkeypatch.setattr(separator, "_FEW_CANDIDATES", few)
            assert list(mask_separators(subset, adj, len(subset))) == expected
        monkeypatch.undo()
    assert small >= 50


def skeleton_masks(g):
    """Neighbour masks of g's skeleton, bit i the i-th smallest id."""
    adj = skeleton(g)
    ids = sorted(adj)
    index = {v: i for i, v in enumerate(ids)}
    return [sum(1 << index[w] for w in adj[v]) for v in ids]


def test_enumerator_matches_reference_where_the_balls_prune(monkeypatch):
    # Shapes with more than _FEW_CANDIDATES candidates per prefix, where the
    # two balls rule candidates out; with _FEW_CANDIDATES at 0 the balls and
    # floods judge every prefix.  The last subset leaves out vertices 3-5 of a band-3
    # graph, so its least vertex lies in the component {1, 2} and the big
    # component is found by the second flood.  Graphs of up to 13 vertices
    # are checked at every size bound; the larger ones at bounds up to 5
    # and at |V|, which take the size loop through every size.
    band16 = skeleton_masks(band_dag(16, 3))
    star = dag_from_inputs({i: [] for i in range(1, 10)} | {10: list(range(1, 10))}, 10)
    shapes = [(skeleton_masks(band_dag(n, 3)), (1 << n) - 1) for n in range(4, 14)]
    shapes += [
        (skeleton_masks(star), (1 << 10) - 1),
        (band16, (1 << 16) - 1 - 0b11100),
        (band16, (1 << 16) - 1),
        (skeleton_masks(grid_dag(3, 5)), (1 << 15) - 1),
        (skeleton_masks(grid_dag(4, 4)), (1 << 16) - 1),
    ]
    for nbrs, subset in shapes:
        n = subset.bit_count()
        expected = list(reference_on_masks(subset, nbrs, n))
        bounds = range(1, n + 1) if n <= 13 else [1, 2, 3, 4, 5, n]
        for few in (0, separator._FEW_CANDIDATES):
            monkeypatch.setattr(separator, "_FEW_CANDIDATES", few)
            for max_size in bounds:
                got = list(separator._balanced_separators(subset, nbrs, max_size))
                assert got == [s for s in expected if len(s[0]) <= max_size], (n, few, max_size)
        monkeypatch.undo()


def test_trees_match_reference_enumerator_where_the_balls_prune(monkeypatch):
    def docs():
        out = []
        for g in (grid_dag(4, 5), band_dag(16, 4)):
            balanced = build_separator_tree(g)
            out.append(balanced.to_doc())
            for depth in range(1, balanced.depth() + 1):
                for size in range(1, balanced.uniform_size + 2):
                    tree = build_depth_bounded_tree(g, depth, size)
                    out.append(tree and tree.to_doc())
        return out

    expected = docs()
    monkeypatch.setattr(separator, "_balanced_separators", reference_on_masks)
    assert docs() == expected


def test_balanced_trees_match_reference_enumerator_on_trees_and_layers(monkeypatch):
    # Binary in-trees and a layered graph: the shapes where more than
    # _FEW_CANDIDATES candidates survive the balls.
    graphs = [binary_in_tree(n) for n in (63, 127, 255)]
    graphs.append(gen_instance("layered", 200, 3))
    expected = [build_separator_tree(g).to_doc() for g in graphs]
    monkeypatch.setattr(separator, "_balanced_separators", reference_on_masks)
    assert [build_separator_tree(g).to_doc() for g in graphs] == expected


def test_balls_pin_the_floods(monkeypatch):
    # Per-candidate flood fills of one tree build.  Without the balls,
    # band-3 n = 30 took 1,286 floods and 232 cut-vertex passes, and grid
    # 4x8 took 4,177 and 882.
    floods = 0
    inner = separator._oversized

    def counted(*args):
        nonlocal floods
        floods += 1
        return inner(*args)

    monkeypatch.setattr(separator, "_oversized", counted)
    work = {}
    shapes = (
        ("band-3 n=30", band_dag(30, 3)),
        ("grid 4x8", grid_dag(4, 8)),
        ("bintree-255", binary_in_tree(255)),
    )
    for label, g in shapes:
        floods = 0
        build_separator_tree(g)
        work[label] = floods
    assert work == {"band-3 n=30": 1049, "grid 4x8": 3434, "bintree-255": 255}


def test_depth_bounded_search_tries_each_subset_once_per_budget(monkeypatch):
    # A subset recurs as a component under different separators above it.
    # bintree-63 has no tree of depth 3 and separators of size 2; without
    # a memo of the (subset, budget) pairs searched, finding that took
    # 7,530 enumerations on 835 distinct subsets.
    calls = 0
    inner = separator._balanced_separators

    def counted(*args):
        nonlocal calls
        calls += 1
        return inner(*args)

    monkeypatch.setattr(separator, "_balanced_separators", counted)
    assert build_depth_bounded_tree(binary_in_tree(63), 3, 2) is None
    assert calls == 837


def test_depth_bounded_trees_match_reference_enumerator(monkeypatch):
    # build_depth_bounded_tree backtracks, so it consumes whole generators.
    cases = []
    for seed in range(1000):
        g = random_instance(seed)
        balanced = build_separator_tree(g)
        for depth in range(1, balanced.depth() + 1):
            for size in range(1, min(balanced.uniform_size + 1, len(g.nodes)) + 1):
                tree = build_depth_bounded_tree(g, depth, size)
                cases.append((g, depth, size, tree and tree.to_doc()))
    monkeypatch.setattr(separator, "_balanced_separators", reference_on_masks)
    for g, depth, size, doc in cases:
        tree = build_depth_bounded_tree(g, depth, size)
        assert (tree and tree.to_doc()) == doc


def test_long_chain_builds_without_recursion():
    g = path(3000)
    tree = build_separator_tree(g)
    assert tree.uniform_size == 1
    assert verify_separator_tree(g, tree)


def test_builders_pass_verifier_on_septree_digest_corpus():
    # Larger and denser graphs than the random corpus: the dense, band-3,
    # in-tree and band-2 shapes of test_septree_digest.
    for g in corpus():
        tree = build_separator_tree(g)
        assert verify_separator_tree(g, tree)
        bounded = build_depth_bounded_tree(g, tree.depth(), tree.uniform_size)
        assert bounded is not None
        assert verify_separator_tree(g, bounded)
