"""Seeded instance documents for the benchmark workloads.

Every workload is a fixed list of instance shapes (family and node count).
The seed chooses the clauses (and which middle node each source of a
layered DAG feeds), so two seeds give different documents whose pipeline
cost is close: the run-to-run spread of a workload's solve time then
measures the machine and the program, not the luck of the draw.  Only the
JSON documents built here reach querydag; this module does not import it.

Literal convention (the instance format): variables 1..indeg are the input
wires in `inputs` order, the rest are the node's proof variables.
"""

from __future__ import annotations

import json
import random

# Per workload: the (family, n) of each instance, in set order.
SHAPES = {
    "band2-compress": (("band2", 20), ("band2", 24), ("band2", 26), ("band2", 28)),
    "chain-compress-witness": (("chain", 48), ("chain", 64), ("chain", 80), ("chain", 96)),
    "chain-depth-witness": (("chain", 192), ("chain", 224), ("chain", 256)),
    # The planted star answers 1, so every set holds both answers (most of
    # the random SAT-heavy sinks answer 0).
    "sat-layered-depth-witness": (("sat-layered", 16), ("sat-star-planted", 16))
    + (("sat-layered", 16), ("sat-star", 16)) * 5,
}

# Random 3-CNF over the proof variables of a SAT-heavy node: this many
# variables, at this clause-to-variable ratio (near the satisfiability
# threshold, where DPLL works hardest).  A fixed variable count keeps the
# DPLL work of a 12-instance set within a few percent from seed to seed.
SAT_PROOF_VARS = 18
SAT_RATIO = 4.2


def _node(nid, inputs, proof_vars, clauses):
    return {
        "id": nid,
        "kind": "verifier",
        "inputs": list(inputs),
        "proof_vars": proof_vars,
        "clauses": clauses,
    }


def _tiny_node(rng, nid, inputs):
    """One or two proof variables and one to three short random clauses."""
    proof_vars = rng.randint(1, 2)
    var_count = len(inputs) + proof_vars
    clauses = []
    for _ in range(rng.randint(1, 3)):
        clause = []
        for _ in range(rng.randint(1, 3)):
            var = rng.randint(1, var_count)
            clause.append(var if rng.random() < 0.5 else -var)
        clauses.append(clause)
    return _node(nid, inputs, proof_vars, clauses)


def _chain(rng, n):
    return [_tiny_node(rng, i, [i - 1] if i > 1 else []) for i in range(1, n + 1)]


def _band2(rng, n):
    """Bandwidth 2 with every skip edge present: i feeds i+1 and i+2.

    Any two consecutive nodes separate the graph, so the separator number is
    at most 2, and the full band fixes the separator tree for a given n.
    """
    return [
        _tiny_node(rng, i, [p for p in (i - 2, i - 1) if p >= 1])
        for i in range(1, n + 1)
    ]


def _sat_node(rng, nid, inputs, planted=False):
    """A random 3-CNF over the proof block, plus one clause per input wire.

    Wire j appears in a clause (-j, l1, l2) with two random proof literals:
    a wire at 1 adds a constraint, a wire at 0 removes one, so the answer
    depends on the parents' answers.  A planted node draws a hidden proof
    assignment first and makes every clause hold under it, so the node
    answers 1 whatever its inputs.
    """
    indeg = len(inputs)
    proof_vars = SAT_PROOF_VARS
    proof = range(indeg + 1, indeg + proof_vars + 1)
    hidden = {v: rng.random() < 0.5 for v in proof} if planted else None

    def lit(var):
        return var if rng.random() < 0.5 else -var

    def clause(width):
        lits = [lit(v) for v in rng.sample(proof, width)]
        if hidden and not any((l > 0) == hidden[abs(l)] for l in lits):
            lits[0] = -lits[0]
        return lits

    clauses = [clause(3) for _ in range(round(SAT_RATIO * proof_vars))]
    for wire in range(1, indeg + 1):
        clauses.append([-wire] + clause(2))
    return _node(nid, inputs, proof_vars, clauses)


def _sat_star(rng, n, planted=False):
    nodes = [_sat_node(rng, i, []) for i in range(1, n)]
    nodes.append(_sat_node(rng, n, list(range(1, n)), planted))
    return nodes


def _sat_layered(rng, n):
    """Sources feed about sqrt(n) middle nodes, which feed the output."""
    mid_count = max(1, round((n - 1) ** 0.5))
    source_count = n - 1 - mid_count
    mids = list(range(source_count + 1, source_count + mid_count + 1))
    mid_inputs = {m: [] for m in mids}
    for s in range(1, source_count + 1):
        mid_inputs[rng.choice(mids)].append(s)
    nodes = [_sat_node(rng, s, []) for s in range(1, source_count + 1)]
    nodes += [_sat_node(rng, m, mid_inputs[m]) for m in mids]
    nodes.append(_sat_node(rng, n, mids))
    return nodes


FAMILIES = {
    "band2": _band2,
    "chain": _chain,
    "sat-star": _sat_star,
    "sat-star-planted": lambda rng, n: _sat_star(rng, n, planted=True),
    "sat-layered": _sat_layered,
}


def instance_doc(family, n, seed):
    """The instance document for one (family, n, seed), as JSON text."""
    rng = random.Random(f"{family}:{n}:{seed}")
    nodes = FAMILIES[family](rng, n)
    return json.dumps({"nodes": nodes, "output": n}, separators=(",", ":"))


def set_docs(shapes, seed):
    """(label, document) per (family, n) shape, for `seed`.

    Instance k uses the derived seed `seed * 1000 + k`, so the instances of
    one set are independent and the set is fixed by `seed`.
    """
    out = []
    for k, (family, n) in enumerate(shapes):
        sub = seed * 1000 + k
        out.append((f"{family}-{n}-s{sub}", instance_doc(family, n, sub)))
    return out


def workload_docs(workload, seed):
    """The workload's instance set for `seed`."""
    return set_docs(SHAPES[workload], seed)
