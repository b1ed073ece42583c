"""The paper's G'' must still evaluate like G and like G*, so that the
reference the compression tests compare against is itself sound, and its
string lookup must agree with the package's signature lookup."""

import random

from querydag import (
    ProofOracle,
    build_compressed,
    build_separator_tree,
    compute_output,
    evaluate,
)

from conftest import random_instance
from paper_stages import add_conductor, expand_to_gprime, staged_compute_output


def test_gpp_evaluates_like_g_and_gstar():
    instances = [random_instance(seed, max_n=6) for seed in range(25)]
    instances.append(random_instance(94))  # reaches depth 3
    oracle = ProofOracle()
    for g in instances:
        tree = build_separator_tree(g)
        gpp = add_conductor(expand_to_gprime(g, tree))
        gstar, _ = build_compressed(g, tree)
        direct = evaluate(g, oracle)
        through_gpp = evaluate(gpp, oracle)
        through_gstar = evaluate(gstar, oracle)
        assert through_gpp[gpp.output] == direct[g.output]
        for v in g.by_id:
            exact = staged_compute_output(gpp, v, (), through_gpp)
            assert exact == compute_output(gstar, v, {}, through_gstar)
            assert exact == direct[v]


def test_string_and_signature_lookups_agree_on_arbitrary_strings():
    # The brute-force backend scores every answer string, not only the
    # correct one.  Give each G* node a random bit and every G'' copy in its
    # (origin, signature) group the same bit, three strings per instance:
    # both lookups must then read the same answers and force the same bits.
    # G* has no copy of the tree's dummies; their G'' copies are given 0,
    # the bit they never force, and no lookup may read it.
    cases = [(seed, random_instance(seed, max_n=6)) for seed in range(60)]
    cases.append((94, random_instance(94)))  # reaches depth 3
    oracle = ProofOracle()
    checks = 0
    for seed, g in cases:
        tree = build_separator_tree(g)
        gpp = add_conductor(expand_to_gprime(g, tree))
        gstar, _ = build_compressed(g, tree)
        rep = {
            cid: gstar.copy_of(node.origin, dict(node.signature))
            for cid, node in gpp.nodes.items()
            if node.origin in g.by_id
        }
        rep[gpp.conductor_id] = gstar.conductor_id
        rng = random.Random(seed)
        for _ in range(3):
            xstar = {cid: rng.randint(0, 1) for cid in gstar.nodes}
            xpp = {cid: xstar[rep[cid]] if cid in rep else 0 for cid in gpp.nodes}
            for v in g.by_id:
                assert staged_compute_output(gpp, v, (), xpp) == compute_output(
                    gstar, v, {}, xstar
                )
                checks += 1
            forced = dict(gstar.forced_bits(xstar, oracle, {}))
            for cid, node in gpp.nodes.items():
                want = forced[rep[cid]] if cid in rep else 1
                assert gpp.forced_bit(cid, xpp, oracle) == want
                checks += 1
                if node.is_conductor:
                    continue
                # Each input wire, seeded with the copy's conditioning on one
                # side and its signature on the other.
                for p in gpp.origin_query[node.origin].inputs:
                    assert staged_compute_output(
                        gpp, p, node.conditioning, xpp
                    ) == compute_output(gstar, p, dict(node.signature), xstar)
                    checks += 1
    assert checks > 10_000  # 18,084 at the time of writing
