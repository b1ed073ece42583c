"""Admissible weighting functions over DAGs, in exact integer arithmetic.

A weighting is a plain {node id: int} dict.  It is admissible when
f(v) >= 1 + c * sum of f over v's out-neighbors, with the one constant
c = ADMISSIBILITY_C = 2 of the NP pipeline: the weightings here and the
compression's are built for it, and check_admissible tests against it.
Such weightings make earlier queries dominate later ones in the
total-solution-weight objective.

Any graph object exposing node_ids(), out_neighbors(), out_sums(f) and
topo_order() works here, so the same functions serve plain query graphs
and compressed graphs.  Those four methods are the structural half of the
graph protocol that QueryDag and CompressedDag share; forced_bits(x, sat,
pins), every node's pinned or forced bit under x, and `output` complete
it, and evaluation, the objective and the threshold backends are written
against those six alone.  out_neighbors() may be a read-only Mapping that
makes each row when read, as a compressed graph's does; out_sums(f) yields
(ids, sums) per block of nodes, the sum of f over each one's
out-neighbours, which a compressed graph adds up one column of targets at
a time, with no row made.
"""

from __future__ import annotations

from itertools import compress, repeat
from operator import add, lt, mul

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
    time: g.out_sums gives each block's sums of child weights.

    Returns (True, None) on success, otherwise (False, first offending node
    in ascending id order).
    """
    w, c = weights.__getitem__, ADMISSIBILITY_C
    bad = []
    for ids, sums in g.out_sums(w):
        # The ids whose weight is below 1 + c * sum.
        bad += compress(ids, map(lt, map(w, ids), map(add, repeat(1), map(mul, repeat(c), sums))))
    return (False, min(bad)) if bad else (True, None)


def total_weight(weights):
    return sum(weights.values())


def weight_report(weights):
    """Weights as decimal strings; arbitrary precision survives text round-trip."""
    return {
        "c": ADMISSIBILITY_C,
        "weights": {str(nid): decimal_str(val) for nid, val in sorted(weights.items())},
        "total": decimal_str(total_weight(weights)),
    }
