"""The paper's G'' must still evaluate like G and like G*, so that the
reference the compression tests compare against is itself sound."""

from querydag import (
    ProofOracle,
    build_compressed,
    build_separator_tree,
    compute_output,
    evaluate,
)

from conftest import random_instance
from paper_stages import add_conductor, expand_to_gprime


def test_gpp_evaluates_like_g_and_gstar():
    instances = [random_instance(seed, max_n=6) for seed in range(25)]
    instances.append(random_instance(94))  # reaches depth 3
    oracle = ProofOracle()
    for g in instances:
        tree = build_separator_tree(g)
        gpp = add_conductor(expand_to_gprime(g, tree))
        gstar, _ = build_compressed(g, tree)
        direct = evaluate(g, oracle)
        through_gpp = evaluate(gpp, oracle).bits
        through_gstar = evaluate(gstar, oracle).bits
        assert through_gpp[gpp.output] == direct.answer
        for v in g.by_id:
            exact = compute_output(gpp, v, (), through_gpp)
            assert exact == compute_output(gstar, v, (), through_gstar)
            assert exact == direct.bits[v]
