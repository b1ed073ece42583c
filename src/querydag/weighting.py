"""Admissible weighting functions over DAGs, in exact integer arithmetic.

A weighting f is c-admissible when f(v) >= 1 + c * sum of f over v's
out-neighbors.  Such weightings make earlier queries dominate later ones in
the total-solution-weight objective; c is ADMISSIBILITY_C = 2 throughout the
NP pipeline, defined here for the solver, the compression and the
arithmetization alike.

Any graph object exposing node_ids(), out_neighbors() and topo_order()
works here, so the same functions serve plain query graphs and compressed
graphs.  Those three methods are the structural half of the graph protocol
that QueryDag and CompressedDag share; fixed_bits(), forced_bit(id, x, sat)
and `output` complete it, and evaluation, the objective and the threshold
backends are written against them alone.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ValidationError
from .querygraph import decimal_str, topo_sort

# eta = (alpha - beta) / 2 = 1/2 for NP, so the pipeline needs a weighting
# admissible for the constant 1/eta.
ADMISSIBILITY_C = 2


@dataclass(frozen=True)
class WeightAssignment:
    """Positive integer weight per node, with its admissibility constant."""

    weights: dict
    c: int


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


def dag_depth(g):
    return max(levels(g).values())


def omega_weights(g, c):
    """The weighting (c+1) ** |descendants|, admissible for every c >= 2."""
    if c < 2:
        raise ValidationError("admissibility constant must be at least 2")
    ids = list(g.node_ids())
    masks = descendant_masks(ids, g.out_neighbors())
    return WeightAssignment(
        weights={nid: (c + 1) ** masks[nid].bit_count() for nid in ids}, c=c
    )


def rho_weights(g, c):
    """The depth-based weighting (c*|V|) ** (depth - level)."""
    if c < 2:
        raise ValidationError("admissibility constant must be at least 2")
    lv = levels(g)
    depth = max(lv.values())
    base = c * len(lv)
    return WeightAssignment(
        weights={nid: base ** (depth - level) for nid, level in lv.items()}, c=c
    )


def check_admissible(g, w):
    """Verify the defining inequality node by node.

    Returns (True, None) on success, otherwise (False, first offending node
    in ascending id order).
    """
    out = g.out_neighbors()
    for nid in sorted(g.node_ids()):
        need = 1 + w.c * sum(w.weights[child] for child in out[nid])
        if w.weights[nid] < need:
            return False, nid
    return True, None


def total_weight(w):
    return sum(w.weights.values())


def weight_report(w):
    """Weights as decimal strings; arbitrary precision survives text round-trip."""
    return {
        "c": w.c,
        "weights": {
            str(nid): decimal_str(val) for nid, val in sorted(w.weights.items())
        },
        "total": decimal_str(total_weight(w)),
    }
