"""Independent reference evaluation and the checks every solve must pass.

Nothing here imports querydag.  The reference reads the same instance
document, evaluates the query graph in topological order, and decides each
node with its own SAT check: brute force over the proof variables when there
are few of them, `sympy.logic.inference.satisfiable` otherwise.  The checks
then compare a serialized `SolveReport` against that evaluation and against
the query-count and weight identities of the method.
"""

from __future__ import annotations

import heapq
import itertools
import json
from dataclasses import dataclass

# Nodes with at most this many proof variables are decided by enumeration.
BRUTE_MAX_PROOF_VARS = 10

# The admissibility constant of the NP pipeline.
C = 2


@dataclass(frozen=True)
class Reference:
    """The evaluated instance: every node's answer bit and its level."""

    bits: dict  # node id -> 0/1
    answer: int
    levels: dict  # node id -> level (sources at 0)
    depth: int
    is_chain: bool


def _topo(inputs):
    children = {nid: [] for nid in inputs}
    for nid, parents in inputs.items():
        for p in parents:
            children[p].append(nid)
    indeg = {nid: len(parents) for nid, parents in inputs.items()}
    ready = [nid for nid, d in indeg.items() if d == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        nid = heapq.heappop(ready)
        order.append(nid)
        for child in children[nid]:
            indeg[child] -= 1
            if indeg[child] == 0:
                heapq.heappush(ready, child)
    if len(order) != len(inputs):
        raise ValueError("instance graph has a cycle")
    return order


def _restrict(clauses, wire_bits):
    """Fix the input wires; None if some clause is already falsified.

    Returns the remaining clauses over proof variables, renumbered 1..P.
    """
    k = len(wire_bits)
    out = []
    for clause in clauses:
        rest = []
        satisfied = False
        for lit in clause:
            var = abs(lit)
            if var <= k:
                if (lit > 0) == bool(wire_bits[var - 1]):
                    satisfied = True
                    break
            else:
                rest.append(lit - k if lit > 0 else lit + k)
        if satisfied:
            continue
        if not rest:
            return None
        out.append(rest)
    return out


def _brute_sat(clauses, proof_vars):
    for bits in itertools.product((False, True), repeat=proof_vars):
        if all(any((l > 0) == bits[abs(l) - 1] for l in cl) for cl in clauses):
            return True
    return False


def _sympy_sat(clauses, proof_vars):
    from sympy import symbols
    from sympy.assumptions.cnf import EncodedCNF
    from sympy.logic.inference import satisfiable

    # Handing over integer clauses skips sympy's expression-to-CNF step.
    encoding = {sym: i + 1 for i, sym in enumerate(symbols(f"p1:{proof_vars + 1}"))}
    return satisfiable(EncodedCNF([set(cl) for cl in clauses], encoding)) is not False


def node_answer(node, wire_bits):
    """1 iff some proof assignment satisfies the node's clauses."""
    clauses = _restrict(node["clauses"], wire_bits)
    if clauses is None:
        return 0
    proof_vars = node["proof_vars"]
    if proof_vars <= BRUTE_MAX_PROOF_VARS:
        return int(_brute_sat(clauses, proof_vars))
    return int(_sympy_sat(clauses, proof_vars))


def evaluate(doc):
    """Reference evaluation of an instance document (JSON text)."""
    parsed = json.loads(doc)
    nodes = {node["id"]: node for node in parsed["nodes"]}
    inputs = {nid: tuple(node.get("inputs", [])) for nid, node in nodes.items()}
    bits = {}
    levels = {}
    for nid in _topo(inputs):
        parents = inputs[nid]
        bits[nid] = node_answer(nodes[nid], [bits[p] for p in parents])
        levels[nid] = 1 + max(levels[p] for p in parents) if parents else 0
    ids = sorted(nodes)
    is_chain = ids == list(range(1, len(ids) + 1)) and all(
        inputs[nid] == ((nid - 1,) if nid > 1 else ()) for nid in ids
    )
    return Reference(
        bits=bits,
        answer=bits[parsed["output"]],
        levels=levels,
        depth=max(levels.values()),
        is_chain=is_chain,
    )


def chain_gstar_size(n):
    """|G*| of the compressed chain 1 -> 2 -> ... -> n, conductor included.

    The first balanced single-vertex separator of a path segment of m
    vertices is its ((m-1)//2)-th vertex, so the separator tree is the
    recursive midpoint split.  A merged copy of u is fixed by the bits of
    u's ancestors on its own branch (the separators above u with a smaller
    id), giving 2^k copies for k such ancestors, plus one conductor.
    """
    return 1 + _chain_gstar(1, n, ())


def _chain_gstar(lo, hi, branch):
    if lo > hi:
        return 0
    mid = lo + (hi - lo) // 2
    own = 2 ** sum(1 for v in branch if v < mid)
    deeper = branch + (mid,)
    return own + _chain_gstar(lo, mid - 1, deeper) + _chain_gstar(mid + 1, hi, deeper)


def rho_total(ref):
    """W of the depth weighting: sum of (c|V|)^(depth - level)."""
    base = C * len(ref.levels)
    return sum(base ** (ref.depth - lv) for lv in ref.levels.values())


def rho_weight(ref, nid):
    return (C * len(ref.levels)) ** (ref.depth - ref.levels[nid])


def check(doc, total_threshold_queries, ref, method, witness):
    """Problems with one solve's serialized report; empty when it is right.

    `doc` is the parsed `SolveReport.serialize()` document and
    `total_threshold_queries` the run's `stats.threshold_queries`, pinned
    witness queries included.
    """
    problems = []
    if doc.get("method") != method:
        problems.append(f"method {doc.get('method')!r}, expected {method!r}")
    if doc.get("answer") != ref.answer:
        problems.append(f"answer {doc.get('answer')}, reference {ref.answer}")
    try:
        two_t = int(doc["T_scaled"])
        w = int(doc["W"])
    except (KeyError, TypeError, ValueError):
        return problems + ["T_scaled or W missing"]
    budget = (2 * w).bit_length() + 1
    if not doc.get("queries") == doc.get("budget") == budget:
        problems.append(
            f"queries {doc.get('queries')}, budget {doc.get('budget')}, "
            f"(2W).bit_length() + 1 = {budget}"
        )
    if not w <= two_t <= 2 * w:
        problems.append(f"2T = {two_t} outside [W, 2W] with W = {w}")
    x = doc.get("witness")
    if witness:
        want = {str(nid): bit for nid, bit in ref.bits.items()}
        if x != want:
            got = x or {}
            wrong = sorted(
                (k for k in set(want) | set(got) if got.get(k) != want.get(k)),
                key=int,
            )
            problems.append(f"witness differs from reference at nodes {wrong[:8]}")
    elif x is not None:
        problems.append("witness present in answer-only mode")
    if method == "depth":
        w_ref = rho_total(ref)
        if w != w_ref:
            problems.append(f"W = {w}, reference sum of rho weights {w_ref}")
        t_ref = w_ref + sum(rho_weight(ref, nid) for nid, b in ref.bits.items() if b)
        if two_t != t_ref:
            problems.append(f"2T = {two_t}, reference W + sum of weights of 1-bits {t_ref}")
    pins = 0
    if witness:
        if method == "depth":
            pins = len(ref.bits)
        elif ref.is_chain:
            pins = chain_gstar_size(len(ref.bits))
        else:
            raise ValueError("pinned-query count is known for chains only")
    if total_threshold_queries != doc.get("queries", 0) + pins:
        problems.append(
            f"{total_threshold_queries} threshold queries, expected "
            f"{doc.get('queries')} + {pins} pinned"
        )
    return problems
