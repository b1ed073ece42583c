"""Self-test of the reference checker, and of every workload at tiny sizes.

    python3 perfbench/selftest.py

Run from the root of a source checkout.  For each workload it generates
small instances, solves them with querydag and requires the checker to pass
the report as it is and to flag three broken copies of it: a flipped answer,
a flipped witness bit and an off-by-one query count.  It also compares the
reference's two SAT routes with each other, its chain |G*| formula with
querydag's compressed graph, and checks that full-size SAT sets hold both
answers.  Prints one line per problem and exits 1 if there is any.
"""

from __future__ import annotations

import copy
import json
import sys

import gen
import reference
import run

TINY = {
    "band2-compress": (("band2", 6), ("band2", 9)),
    "chain-compress-witness": (("chain", 5), ("chain", 12)),
    "chain-depth-witness": (("chain", 8), ("chain", 17)),
    "sat-layered-depth-witness": (("sat-layered", 7), ("sat-star-planted", 5), ("sat-star", 6)),
}


def broken_copies(doc, total, witness):
    """(what, report document, total threshold queries) for each defect."""
    flipped = copy.deepcopy(doc)
    flipped["answer"] ^= 1
    yield "flipped answer", flipped, total
    if witness:
        bit = copy.deepcopy(doc)
        first = min(bit["witness"], key=int)
        bit["witness"][first] ^= 1
        yield "flipped witness bit", bit, total
    count = copy.deepcopy(doc)
    count["queries"] += 1
    yield "queries off by one", count, total + 1
    yield "total threshold queries off by one", doc, total + 1


def check_workloads(qd, problems):
    for workload, shapes in TINY.items():
        method, witness = run.WORKLOADS[workload]
        for seed in (1, 2, 3):
            for label, text in gen.set_docs(shapes, seed):
                ref = reference.evaluate(text)
                report, out = run.solve(qd, method, witness, qd.querygraph.parse_dag(text))
                doc = json.loads(out)
                total = report.stats.threshold_queries
                found = reference.check(doc, total, ref, method, witness)
                if found:
                    problems.append(f"{workload} {label}: correct report flagged: {found}")
                for what, broken, broken_total in broken_copies(doc, total, witness):
                    if not reference.check(broken, broken_total, ref, method, witness):
                        problems.append(f"{workload} {label}: {what} not flagged")


def check_sat_routes(problems):
    """Enumeration and sympy agree on every small node of the tiny sets."""
    for label, text in gen.set_docs(TINY["sat-layered-depth-witness"], 4):
        for node in json.loads(text)["nodes"]:
            wires = [i % 2 for i in range(len(node["inputs"]))]
            clauses = reference._restrict(node["clauses"], wires)
            if clauses is None:
                continue
            for proof_vars in (6, 8):
                cut = [cl for cl in clauses if all(abs(l) <= proof_vars for l in cl)]
                brute = reference._brute_sat(cut, proof_vars)
                if brute != reference._sympy_sat(cut, proof_vars):
                    problems.append(f"{label} node {node['id']}: SAT routes disagree")


def check_chain_gstar(qd, problems):
    for n in (1, 2, 3, 7, 16, 33):
        g = qd.querygraph.parse_dag(gen.instance_doc("chain", n, 0))
        gstar, _ = qd.compress.build_compressed(g, qd.separator.build_separator_tree(g))
        if len(gstar.nodes) != reference.chain_gstar_size(n):
            problems.append(
                f"chain {n}: |G*| {len(gstar.nodes)}, reference {reference.chain_gstar_size(n)}"
            )


def check_both_answers(problems):
    for seed in (1, 2, 3):
        docs = gen.workload_docs("sat-layered-depth-witness", seed)
        answers = {reference.evaluate(text).answer for _, text in docs}
        if answers != {0, 1}:
            problems.append(f"SAT set for seed {seed} has answers {sorted(answers)} only")


def main():
    sys.path.insert(0, str(run.SRC))
    qd = run.import_querydag()
    problems = []
    check_workloads(qd, problems)
    check_sat_routes(problems)
    check_chain_gstar(qd, problems)
    check_both_answers(problems)
    for line in problems:
        print(line)
    print(f"selftest: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
