"""The paper's first two compression stages, kept as a reference for G*.

expand_to_gprime builds G': for every vertex u in a supervertex at depth d,
one copy per conditioning tuple (z_1, ..., z_d) of s-bit strings, where z_j
hardcodes assumed answers for the j-th supervertex on u's branch.  Edges run
from each copy upward to the copies of u's descendants higher on the
branch, with matching conditioning prefixes.  add_conductor appends the
output node t, wired from every copy, which answers by replaying
staged_compute_output on the original output vertex: that is G''.
staged_compute_output is the paper's lookup over hardcoded answer strings,
and StagedDag resolves every wire through it from the copy's full
conditioning.  StagedDag keeps an explicit record per copy, on the
record-based graph of tests/compress_reference.py.  The package builds G*
straight from signatures, as blocks of consecutive ids
(compress.build_compressed), and resolves wires by signature alone
(compress.compute_output); the tests check both against this reference.
"""

from __future__ import annotations

import itertools

from compress_reference import (
    CompressedDag,
    _descendants_above,
    _origin_queries,
    _visible_ancestors,
)
from querydag import WireValueError
from querydag.compress import CONDUCTOR_ID, CONDUCTOR_NODE, CompressedNode


class StagedDag(CompressedDag):
    """G' or G'': every conditioned copy, looked up by its exact
    conditioning rather than by signature, with each wire resolved by
    staged_compute_output.  G' has no conductor; it is only inspected,
    never evaluated."""

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

    def forced_bit(self, cid, x, sat):
        node = self.nodes[cid]
        if node.is_conductor:
            return staged_compute_output(self, self.origin_dag.output, (), x)
        query = self.origin_query[node.origin]
        z = "".join(
            str(staged_compute_output(self, p, node.conditioning, x))
            for p in query.inputs
        )
        return 1 if sat.exists(query, int(z or "0", 2)) else 0


def staged_compute_output(gd, u, conditioning, wire_values):
    """Answer bit of original vertex u given hardcoded strings z_1..z_m.

    With m at least the branch depth of u, the answer is read straight off
    the hardcoded string.  Otherwise the next string is computed one bit at a
    time, in supervertex member order, by looking up the copies selected by
    the strings built so far (each lookup sees the partially filled string,
    later bits still zero), and the recursion continues one level deeper.
    `wire_values` maps node ids of this compressed graph to answer bits; a
    missing entry is a construction bug and raises immediately.
    """
    tree = gd.septree
    branch = tree.branch(tree.supervertex_of(u))
    d = len(branch)
    z = [str(part) for part in conditioning]
    while len(z) < d:
        svid = branch[len(z)]
        members = tree.by_id[svid].members
        bits = ["0"] * len(members)
        for pos, member in enumerate(members):
            key = tuple(z) + ("".join(bits),)
            cid = gd.resolve_copy(member, key)
            if cid not in wire_values:
                raise WireValueError(f"no wire value for node {gd.label(cid)}")
            bits[pos] = "1" if wire_values[cid] else "0"
        z.append("".join(bits))
    return int(z[d - 1][tree.position_of(u)])


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
