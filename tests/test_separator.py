import itertools
import math
import random

from querydag import (
    SeparatorTree,
    Supervertex,
    build_dag,
    build_depth_bounded_tree,
    build_separator_tree,
    find_balanced_separator,
    verify_separator_tree,
)
from querydag import separator
from querydag.separator import _adjacency

from conftest import random_instance
from separator_reference import balanced_separators


def path(n):
    return build_dag(
        [(i, "verifier", [i - 1] if i > 1 else [], 1, [[1]]) for i in range(1, n + 1)],
        n,
    )


def test_find_separator_star(star4):
    sep = find_balanced_separator([1, 2, 3, 4], star4.undirected_edges(), 1)
    assert sep.members == (4,)
    assert sep.components == ((1,), (2,), (3,))


def test_find_separator_single_vertex():
    sep = find_balanced_separator([1], [], 1)
    assert sep.members == (1,)
    assert sep.components == ()


def test_find_separator_path3_only_middle_works():
    g = path(3)
    edges = g.undirected_edges()
    # Exhaustive check over singletons: the endpoints leave one connected
    # 2-vertex component, which exceeds ceil((3 - 1) / 2) = 1.
    for v in (1, 3):
        rest = {1, 2, 3} - {v}
        assert len(rest) == 2  # connected, too large to be balanced
    sep = find_balanced_separator([1, 2, 3], edges, 1)
    assert sep.members == (2,)
    assert sep.components == ((1,), (3,))


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
    assert find_balanced_separator([1, 2, 3, 4], g.undirected_edges(), 2) is None
    sep = find_balanced_separator([1, 2, 3, 4], g.undirected_edges(), 3)
    assert sep.members == (1, 2, 3)


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


def test_depth_bounded_star(star4):
    tree = build_depth_bounded_tree(star4, 2, 1)
    assert tree is not None
    (root,) = [sv for sv in tree.supervertices if sv.parent is None]
    assert root.members == (4,)
    assert len(tree.children_of(root.id)) == 3
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
    return subset, _adjacency(ids, edges)


def test_enumerator_matches_reference_sequence(monkeypatch):
    # Every separator, members and components, in order, for every size
    # bound; and for the largest bound with cut passes only and with flood
    # fills only.
    rng = random.Random(13)
    small = 0
    for _ in range(600):
        subset, adj = random_adjacency(rng)
        small += len(subset) <= 2
        expected = list(balanced_separators(subset, adj, len(subset)))
        for max_size in range(1, len(subset) + 1):
            got = list(separator._balanced_separators(subset, adj, max_size))
            assert got == [s for s in expected if len(s.members) <= max_size]
        for few in (0, len(subset)):
            monkeypatch.setattr(separator, "_FEW_CANDIDATES", few)
            assert list(separator._balanced_separators(subset, adj, len(subset))) == expected
        monkeypatch.undo()
    assert small >= 50


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
    monkeypatch.setattr(separator, "_balanced_separators", balanced_separators)
    for g, depth, size, doc in cases:
        tree = build_depth_bounded_tree(g, depth, size)
        assert (tree and tree.to_doc()) == doc


def test_long_chain_builds_without_recursion():
    g = path(3000)
    tree = build_separator_tree(g)
    assert tree.uniform_size == 1
    assert verify_separator_tree(g, tree)
