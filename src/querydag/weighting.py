"""Admissible weighting functions over DAGs, in exact integer arithmetic.

A weighting f is c-admissible when f(v) >= 1 + c * sum of f over v's
out-neighbors.  Such weightings make earlier queries dominate later ones in
the total-solution-weight objective; c is 2 throughout the NP pipeline.

Any graph object exposing node_ids(), out_neighbors(), and in_neighbors()
works here, so the same functions serve plain query graphs and compressed
graphs.  Those three methods are the structural half of the graph protocol
that QueryDag and CompressedDag share; topo_order(), fixed_bits(),
forced_bit(id, x, sat) and `output` complete it, and evaluation, the
objective and the threshold backends are written against them alone.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ValidationError
from .querygraph import topo_sort


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


def descendant_counts(g):
    ids = list(g.node_ids())
    masks = descendant_masks(ids, g.out_neighbors())
    return {nid: masks[nid].bit_count() for nid in ids}


def levels(g):
    """Level 0 holds the nodes without incoming edges; children sit one past
    their deepest parent."""
    inn = g.in_neighbors()
    out = g.out_neighbors()
    lv = {}
    for nid in topo_sort(list(g.node_ids()), out):
        parents = inn[nid]
        lv[nid] = 0 if not parents else 1 + max(lv[p] for p in parents)
    return lv


def dag_depth(g):
    return max(levels(g).values())


def omega_weights(g, c):
    """The weighting (c+1) ** |descendants|, admissible for every c >= 2."""
    if c < 2:
        raise ValidationError("admissibility constant must be at least 2")
    counts = descendant_counts(g)
    return WeightAssignment(
        weights={nid: (c + 1) ** counts[nid] for nid in counts}, c=c
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
        "weights": {str(nid): str(val) for nid, val in sorted(w.weights.items())},
        "total": str(total_weight(w)),
    }
