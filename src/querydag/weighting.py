"""Admissible weighting functions over DAGs, in exact integer arithmetic.

A weighting is a read-only mapping from node id to int: a plain dict on a
query graph, and on G* only its own, which keeps one weight per origin
(any other raises ValidationError).  One that lacks a node is a
ValidationError where a check or a threshold backend reads it
(missing_weight).  It is admissible when f(v) >=
1 + c * sum of f over v's out-neighbors, with the one constant
c = ADMISSIBILITY_C = 2 of the NP pipeline: the weightings here and the
compression's are built for it, and check_admissible tests against it.
Such weightings make earlier queries dominate later ones in the
total-solution-weight objective.

Any graph object exposing node_ids(), out_neighbors(), out_sums(weights),
weight_runs(weights) and topo_order() works here, so the same functions
serve plain query graphs and compressed graphs.  Those five methods are
the structural half of the graph protocol that QueryDag and CompressedDag
share; forced_bits(x, sat, pins), evaluate(sat, pins), positions(x) and
`output` complete it (see README).
out_neighbors() may be a read-only Mapping that makes each row when
read.  The other two read a weighting a block of nodes at a time, G*
once per origin: out_sums yields (ids, sums), the sum of the weights
of each one's out-neighbours, and weight_runs two iterables: the weights
in topo order, one per run of nodes that all weigh the same, and the
runs' sizes, None when every run is one node.
"""

from __future__ import annotations

from itertools import compress, islice, repeat
from operator import add, lt, mul

from .errors import ValidationError
from .querygraph import decimal_str, topo_sort

# eta = (alpha - beta) / 2 = 1/2 for NP, so the pipeline needs a weighting
# admissible for the constant 1/eta.
ADMISSIBILITY_C = 2


def descendant_masks(ids, out):
    """Bitmask of descendants per node (index positions follow `ids` order)."""
    idx = {nid: i for i, nid in enumerate(ids)}
    masks = {}
    for nid in reversed(topo_sort(ids, out)):
        m = 0
        for child in out[nid]:
            m |= masks[child] | (1 << idx[child])
        masks[nid] = m
    return masks


def levels(g):
    """Level 0 holds the nodes without incoming edges; children sit one past
    their deepest parent."""
    out = g.out_neighbors()
    order = g.topo_order()
    lv = dict.fromkeys(order, 0)
    for nid in order:
        for child in out[nid]:
            lv[child] = max(lv[child], lv[nid] + 1)
    return lv


def omega_weights(g):
    """The weighting (c+1) ** |descendants|."""
    ids = list(g.node_ids())
    masks = descendant_masks(ids, g.out_neighbors())
    return {nid: (ADMISSIBILITY_C + 1) ** masks[nid].bit_count() for nid in ids}


def rho_weights(g):
    """The depth-based weighting (c*|V|) ** (depth - level)."""
    lv = levels(g)
    depth = max(lv.values())
    base = ADMISSIBILITY_C * len(lv)
    # weight[level] = base ** (depth - level): one power per level, each
    # the next smaller one times base.
    weight = [1]
    for _ in range(depth):
        weight.append(weight[-1] * base)
    weight.reverse()
    return {nid: weight[level] for nid, level in lv.items()}


def check_admissible(g, weights):
    """Verify the defining inequality at every node, a block of nodes at a
    time: g.out_sums gives each block's sums of child weights, or, for a
    block whose nodes all have one weight and one sum, its first node's.

    Returns (True, None) on success, otherwise (False, first offending node
    in ascending id order).  A weighting that lacks a node of g is a
    ValidationError (missing_weight).
    """
    w, c = weights.__getitem__, ADMISSIBILITY_C
    bad = []
    try:
        for ids, sums in g.out_sums(weights):
            # The ids whose weight is below 1 + c * sum.
            least = map(add, repeat(1), map(mul, repeat(c), sums))
            bad += compress(ids, map(lt, map(w, ids), least))
    except KeyError as exc:
        raise missing_weight(exc) from None
    return (False, min(bad)) if bad else (True, None)


def missing_weight(exc):
    """The ValidationError for a weighting that lacks the node whose lookup
    raised the KeyError `exc`.  Callers catch the failed lookup where they
    read the weights, so a complete weighting is never scanned for it."""
    return ValidationError(f"node {exc.args[0]}: the weighting gives it no weight")


def total_weight(weights):
    return sum(weights.values())


def weigh(runs, values=None):
    """The sum over a graph's nodes of each one's weight times its value,
    the next of `values` in topo order, or 1 when `values` is None, which
    is W.  `runs` is the graph's weight_runs: a run of n nodes multiplies
    its weight once, by n or by the sum of its n values."""
    ws, sizes = runs
    if values is None:
        return sum(ws) if sizes is None else sum(map(mul, ws, sizes))
    if sizes is not None:
        values = map(sum, map(islice, repeat(iter(values)), sizes))
    return sum(map(mul, ws, values))


def weight_report(weights):
    """Weights as decimal strings; arbitrary precision survives text round-trip."""
    return {
        "c": ADMISSIBILITY_C,
        "weights": {str(nid): decimal_str(val) for nid, val in sorted(weights.items())},
        "total": decimal_str(total_weight(weights)),
    }
