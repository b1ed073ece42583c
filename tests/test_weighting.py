from querydag import (
    build_compressed,
    build_dag,
    build_separator_tree,
    check_admissible,
    levels,
    omega_weights,
    rho_weights,
    total_weight,
    weight_report,
)

from querydag.cli import gen_instance
from querydag.weighting import ADMISSIBILITY_C

from compress_reference import build_compressed as paper_build
from conftest import random_instance


def test_omega_chain2(chain2):
    w = omega_weights(chain2)
    assert w == {1: 3, 2: 1}
    assert total_weight(w) == 4


def test_omega_chain3(chain3):
    assert omega_weights(chain3) == {1: 9, 2: 3, 3: 1}


def test_omega_sink_weight_is_one(star4):
    assert omega_weights(star4)[4] == 1


def test_omega_single_node(single_vacuous):
    assert total_weight(omega_weights(single_vacuous)) == 1


def test_rho_chain2(chain2):
    assert rho_weights(chain2) == {1: 4, 2: 1}


def test_rho_star(star4):
    w = rho_weights(star4)
    assert w == {1: 8, 2: 8, 3: 8, 4: 1}
    assert total_weight(w) == 25


def test_rho_is_the_closed_form_per_level(single_vacuous):
    # rho(v) = (c|V|) ** (depth - level(v)), the level being the longest
    # path from a node without inputs, both worked out here from the inputs.
    graphs = [random_instance(seed) for seed in range(200)]
    graphs += [single_vacuous, gen_instance("chain", 256, 0)]
    for g in graphs:
        level = {}
        for nid in g.topo_order():
            level[nid] = 1 + max((level[u] for u in g.by_id[nid].inputs), default=-1)
        depth = max(level.values())
        base = ADMISSIBILITY_C * len(g.nodes)
        closed = {nid: base ** (depth - level[nid]) for nid in g.out_neighbors()}
        assert rho_weights(g) == closed
    assert rho_weights(single_vacuous) == {1: 1}
    chain = graphs[-1]
    assert rho_weights(chain)[chain.topo_order()[0]] == 512**255


def test_levels(star4, chain3):
    assert levels(star4) == {1: 0, 2: 0, 3: 0, 4: 1}
    assert max(levels(chain3).values()) == 2


def test_check_admissible(chain2):
    ok, bad = check_admissible(chain2, omega_weights(chain2))
    assert ok and bad is None
    ok, bad = check_admissible(chain2, {1: 1, 2: 1})
    assert not ok
    assert bad == 1


def test_merged_weighting_is_admissible(chain2):
    # The paper's merged weighting, kept by the reference build, and the
    # least weighting the package gives G*, which lies below it.
    tree = build_separator_tree(chain2)
    ref, paper = paper_build(chain2, tree)
    ok, bad = check_admissible(ref, paper)
    assert ok and bad is None
    assert total_weight(paper) == 19
    gstar, fstar = build_compressed(chain2, tree)
    ok, bad = check_admissible(gstar, fstar)
    assert ok and bad is None
    assert total_weight(fstar) == 10
    assert all(fstar[cid] <= paper[cid] for cid in paper)


def test_admissibility_on_random_dags_all_constants():
    # The pipeline has the one constant c = ADMISSIBILITY_C = 2.
    for seed in range(25):
        g = random_instance(seed)
        assert check_admissible(g, omega_weights(g))[0]
        assert check_admissible(g, rho_weights(g))[0]


def test_weight_divisibility():
    for seed in range(20):
        g = random_instance(seed)
        n = len(g.nodes)
        assert all(3 ** (n - 1) % w == 0 for w in omega_weights(g).values())
        top = (2 * n) ** max(levels(g).values())
        assert all(top % w == 0 for w in rho_weights(g).values())


def test_omega_monotone_under_edge_insertion():
    for seed in range(25):
        g = random_instance(seed, max_n=7)
        if len(g.nodes) < 3:
            continue
        before = omega_weights(g)
        ids = sorted(g.by_id)
        added = None
        for u in ids:
            if u == g.output:
                continue
            for v in ids:
                if v > u and v not in g._children[u] and u not in g.by_id[v].inputs:
                    added = (u, v)
                    break
            if added:
                break
        if added is None:
            continue
        u, v = added
        specs = []
        for node in g.nodes:
            inputs = list(node.inputs) + ([u] if node.id == v else [])
            # The receiving node needs one more wire variable; renumber the
            # old literals up by one so they keep their meaning.
            if node.id == v:
                shifted = [
                    [
                        (abs(l) + 1) * (1 if l > 0 else -1)
                        if abs(l) > len(node.inputs)
                        else l
                        for l in cl
                    ]
                    for cl in node.clauses
                ]
            else:
                shifted = [list(cl) for cl in node.clauses]
            specs.append((node.id, node.kind, inputs, node.proof_var_count, shifted))
        g2 = build_dag(specs, g.output)
        after = omega_weights(g2)
        assert all(after[nid] >= before[nid] for nid in before)


def test_weight_report_round_trips_big_integers(chain3):
    report = weight_report(omega_weights(chain3))
    assert report["c"] == 2
    assert report["weights"]["1"] == str(3**2)
    assert int(report["total"]) == 9 + 3 + 1
    # Past the 4,300 digits str() of an int allows by default, in the
    # report and in the weights of a G* document.
    gstar, fstar = build_compressed(chain3, build_separator_tree(chain3))
    huge = {nid: 10**5000 + w for nid, w in fstar.items()}
    expected = {str(nid): "1" + f"{w:05000d}" for nid, w in fstar.items()}
    assert weight_report(huge)["weights"] == expected
    assert gstar.to_doc(huge)["weights"] == expected
