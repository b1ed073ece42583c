"""The paper's first two compression stages, kept as a reference for G*.

expand_to_gprime builds G': for every vertex u in a supervertex at depth d,
one copy per conditioning tuple (z_1, ..., z_d) of s-bit strings, where z_j
hardcodes assumed answers for the j-th supervertex on u's branch.  Edges run
from each copy upward to the copies of u's descendants higher on the
branch, with matching conditioning prefixes.  add_conductor appends the
output node t, wired from every copy, which answers by replaying
compute_output on the original output vertex: that is G''.  The package
builds G* straight from signatures (compress.build_compressed); the tests
check it against G'' grouped by signature.
"""

from __future__ import annotations

import itertools

from querydag import WireValueError
from querydag.compress import (
    CONDUCTOR_ID,
    CONDUCTOR_NODE,
    CompressedDag,
    CompressedNode,
    _descendants_above,
    _origin_queries,
    _visible_ancestors,
)


class StagedDag(CompressedDag):
    """G' or G'': every conditioned copy, looked up by its exact
    conditioning rather than by signature.  G' has no conductor; it is
    only inspected, never evaluated."""

    def __init__(self, *args):
        super().__init__(*args)
        self._exact = {
            (n.origin, n.conditioning): n.cid
            for n in self.nodes.values()
            if not n.is_conductor
        }

    def resolve_copy(self, origin, conditioning):
        cid = self._exact.get((origin, tuple(conditioning)))
        if cid is None:
            raise WireValueError(f"no copy of node {origin} matches {conditioning}")
        return cid


def expand_to_gprime(g, tree):
    """Build every conditioned copy and all upward edges (no conductor yet)."""
    s = tree.uniform_size
    strings = ["".join(bits) for bits in itertools.product("01", repeat=s)]
    nodes = {}
    index = {}
    dset = _visible_ancestors(g, tree)
    above = _descendants_above(g, tree)
    cid = CONDUCTOR_ID + 1
    for sv in tree.supervertices:
        d = tree.depth_of(sv.id)
        for pos, member in enumerate(sv.members):
            visible = dset[member]
            for cond in itertools.product(strings, repeat=d):
                sig = tuple((anc, int(cond[lvl][p])) for anc, lvl, p in visible)
                nodes[cid] = CompressedNode(
                    cid=cid,
                    origin=member,
                    supervertex=sv.id,
                    position=pos + 1,
                    conditioning=cond,
                    signature=sig,
                )
                index[(member, cond)] = cid
                cid += 1
    edges = {
        node.cid: [index[(v, node.conditioning[: lvl + 1])] for v, lvl, _ in above[node.origin]]
        for node in nodes.values()
    }
    return StagedDag(g, tree, nodes, edges, dset, _origin_queries(g, tree))


def add_conductor(gp):
    """Append the output node t, wired from every copy."""
    nodes = dict(gp.nodes)
    nodes[CONDUCTOR_ID] = CONDUCTOR_NODE
    edges = {cid: tuple(list(t) + [CONDUCTOR_ID]) for cid, t in gp.edges_out.items()}
    edges[CONDUCTOR_ID] = ()
    return StagedDag(
        gp.origin_dag, gp.septree, nodes, edges, gp._visible, gp.origin_query
    )
