"""Separator-tree compression of a query graph.

The pipeline turns a query graph G into an equivalent graph whose nodes all
have few descendants, so an admissible weighting of small total weight
exists:

  expand_to_gprime  makes, for every vertex u in a supervertex at depth d,
                    one copy per conditioning tuple (z_1, ..., z_d) of s-bit
                    strings; z_j hardcodes assumed answers for the j-th
                    supervertex on u's branch.  Edges run from each copy
                    upward to the copies of u's descendants higher on the
                    branch, with matching conditioning prefixes.
  add_conductor     appends the output node t, wired from every copy; t
                    answers by replaying compute_output on the original
                    output vertex.
  merge             collapses copies of the same origin whose conditioning
                    agrees on the origin's visible ancestors (those on its
                    own branch), summing their weights so the total is
                    conserved and admissibility survives.

A copy's query resolves each original input wire through compute_output, so
its answer is a deterministic function of hardcoded bits and the answer bits
of deeper copies.
"""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass

from .errors import ValidationError, WireValueError
from .querygraph import VERIFIER, QueryNode, proof_bit
from .weighting import WeightAssignment, descendant_masks, omega_weights

CONDUCTOR_ID = 0


@dataclass(frozen=True)
class CompressedNode:
    """One conditioned copy: origin vertex plus hardcoded answer strings.

    `conditioning` holds one s-bit string per supervertex on the branch from
    the root down to the origin's supervertex; after merging, positions the
    origin cannot see are shown as '*'.  `signature` is the conditioning
    restricted to the origin's ancestors on that branch, which is exactly
    what survives a merge.
    """

    cid: int
    origin: object  # node id in the original graph, or None for the conductor
    supervertex: object
    position: object  # 1-based slot inside the supervertex
    conditioning: tuple
    signature: tuple

    @property
    def is_conductor(self):
        return self.origin is None


class CompressedDag:
    """A compressed graph at any stage: copies only, with conductor, or merged.

    `visible` and `origin_query` depend only on the original graph and its
    separator tree, so expand_to_gprime computes them once and every later
    stage shares them.  The conductor id is the graph's `output`.
    """

    def __init__(
        self, origin_dag, septree, nodes, edges_out, conductor_id, merged,
        visible, origin_query,
    ):
        self.origin_dag = origin_dag
        self.septree = septree
        self.nodes = dict(nodes)
        self.edges_out = {cid: tuple(sorted(t)) for cid, t in edges_out.items()}
        self.conductor_id = conductor_id
        self.merged = merged
        self._in = {cid: [] for cid in self.nodes}
        for cid, targets in self.edges_out.items():
            for t in targets:
                self._in[t].append(cid)
        self._in = {cid: tuple(sorted(v)) for cid, v in self._in.items()}
        self.origin_query = origin_query
        self._visible = visible
        # Copies are looked up by exact conditioning before merging and by
        # signature after.
        self._index = {
            (n.origin, n.signature if merged else n.conditioning): n.cid
            for n in self.nodes.values()
            if not n.is_conductor
        }

    @property
    def output(self):
        return self.conductor_id

    def node_ids(self):
        return list(self.nodes)

    def out_neighbors(self):
        return self.edges_out

    def in_neighbors(self):
        return self._in

    def edge_count(self):
        return sum(len(t) for t in self.edges_out.values())

    def visible_ancestors(self, origin):
        """Ancestors of `origin` lying on its own branch, with bit coordinates."""
        return self._visible[origin]

    def label(self, cid):
        node = self.nodes[cid]
        if node.is_conductor:
            return "t"
        return f"v{node.origin}^{{{','.join(node.conditioning)}}}"

    def resolve_copy(self, origin, conditioning):
        """The node standing for this copy: exact match before merging, the
        representative that agrees on the origin's visible ancestors after."""
        if not self.merged:
            key = (origin, tuple(conditioning))
        else:
            sig = tuple(
                (anc, int(conditioning[lvl][pos]))
                for anc, lvl, pos in self._visible[origin]
            )
            key = (origin, sig)
        cid = self._index.get(key)
        if cid is None:
            raise WireValueError(f"no copy of node {origin} matches {conditioning}")
        return cid

    def topo_order(self):
        """Deepest supervertices first (their copies feed shallower ones),
        conductor last."""
        depth = {
            sv.id: self.septree.depth_of(sv.id) for sv in self.septree.supervertices
        }
        plain = [cid for cid, n in self.nodes.items() if not n.is_conductor]
        plain.sort(key=lambda cid: (-depth[self.nodes[cid].supervertex], cid))
        if self.conductor_id is not None:
            plain.append(self.conductor_id)
        return plain

    @functools.cached_property
    def _fixed(self):
        # Computed on first use: only the graph that answers threshold
        # queries needs it, and G' and G'' can hold thousands of dummy copies.
        dummies = set(self.septree.dummies)
        return {
            cid: 1
            for cid, n in self.nodes.items()
            if not n.is_conductor and n.origin in dummies
        }

    def fixed_bits(self):
        """Dummy-origin copies are vacuously satisfiable, so their bits are
        fixed to 1; a fresh dict per call."""
        return dict(self._fixed)

    def forced_bit(self, cid, x, sat):
        """Answer of copy `cid` when every wire lookup reads its bit in x: the
        origin's query on wires resolved through compute_output, or for the
        conductor the replayed original output."""
        node = self.nodes[cid]
        if node.is_conductor:
            return compute_output(self, self.origin_dag.output, (), x)
        z = resolved_input_bits(self, cid, x)
        return proof_bit(self.origin_query[node.origin], z, sat)

    def to_doc(self, weights=None):
        doc = {
            "merged": self.merged,
            "uniform_size": self.septree.uniform_size,
            "origin_output": self.origin_dag.output,
            "nodes": [
                {
                    "id": n.cid,
                    "label": self.label(n.cid),
                    "origin": n.origin,
                    "supervertex": n.supervertex,
                    "position": n.position,
                    "conditioning": list(n.conditioning),
                    "signature": {str(a): b for a, b in n.signature},
                }
                for n in sorted(self.nodes.values(), key=lambda n: n.cid)
            ],
            "edges": sorted(
                [a, b] for a, targets in self.edges_out.items() for b in targets
            ),
        }
        if weights is not None:
            doc["weights"] = {
                str(cid): str(w) for cid, w in sorted(weights.weights.items())
            }
        return doc

    def serialize(self, weights=None):
        return json.dumps(self.to_doc(weights), sort_keys=True) + "\n"


def _ancestor_masks(g):
    ids = list(g.node_ids())
    return ids, descendant_masks(ids, g.in_neighbors())


def _visible_ancestors(g, tree):
    """Per origin: tuple of (ancestor id, branch level index, position) for
    ancestors living in the supervertices on the origin's own branch."""
    ids, anc = _ancestor_masks(g)
    idx = {nid: i for i, nid in enumerate(ids)}
    out = {}
    for sv in tree.supervertices:
        branch = tree.branch(sv.id)
        for member in sv.members:
            entries = []
            if member in idx:  # dummies have no ancestors
                mask = anc[member]
                for lvl, svid in enumerate(branch):
                    for pos, other in enumerate(tree.by_id[svid].members):
                        if other in idx and (mask >> idx[other]) & 1:
                            entries.append((other, lvl, pos))
            out[member] = tuple(entries)
    return out


def _origin_queries(g, tree):
    """Query per origin id; vacuous verifiers stand in for dummy vertices."""
    out = dict(g.by_id)
    for d in tree.dummies:
        out[d] = QueryNode(id=d, kind=VERIFIER, inputs=(), proof_var_count=0, clauses=())
    return out


def expected_expanded_size(tree):
    """Node count of the conductor stage: 1 + sum over supervertices of
    s * 2^(s * depth)."""
    s = tree.uniform_size
    return 1 + sum(
        s * 2 ** (s * tree.depth_of(sv.id)) for sv in tree.supervertices
    )


def expand_to_gprime(g, tree):
    """Build every conditioned copy and all upward edges (no conductor yet)."""
    s = tree.uniform_size
    ids = list(g.node_ids())
    idx = {nid: i for i, nid in enumerate(ids)}
    desc = descendant_masks(ids, g.out_neighbors())
    strings = ["".join(bits) for bits in itertools.product("01", repeat=s)]
    nodes = {}
    edges = {}
    index = {}
    dset = _visible_ancestors(g, tree)
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
    for node in nodes.values():
        branch = tree.branch(node.supervertex)
        member = node.origin
        targets = []
        if member in idx:
            mask = desc[member]
            for j in range(len(branch) - 1):  # strictly above the origin's level
                for other in tree.by_id[branch[j]].members:
                    if other in idx and (mask >> idx[other]) & 1:
                        targets.append(index[(other, node.conditioning[: j + 1])])
        edges[node.cid] = tuple(sorted(targets))
    return CompressedDag(
        g, tree, nodes, edges, conductor_id=None, merged=False,
        visible=dset, origin_query=_origin_queries(g, tree),
    )


def add_conductor(gp):
    """Append the output node t, wired from every copy."""
    nodes = dict(gp.nodes)
    nodes[CONDUCTOR_ID] = CompressedNode(
        cid=CONDUCTOR_ID,
        origin=None,
        supervertex=None,
        position=None,
        conditioning=(),
        signature=(),
    )
    edges = {cid: tuple(list(t) + [CONDUCTOR_ID]) for cid, t in gp.edges_out.items()}
    edges[CONDUCTOR_ID] = ()
    return CompressedDag(
        gp.origin_dag, gp.septree, nodes, edges, conductor_id=CONDUCTOR_ID,
        merged=gp.merged, visible=gp._visible, origin_query=gp.origin_query,
    )


def _masked_conditioning(tree, origin, conditioning, visible):
    """Replace every bit the origin cannot see with '*'."""
    keep = {(lvl, pos) for _, lvl, pos in visible}
    branch = tree.branch(tree.supervertex_of(origin))
    out = []
    for lvl, svid in enumerate(branch):
        s = len(tree.by_id[svid].members)
        out.append(
            "".join(
                conditioning[lvl][pos] if (lvl, pos) in keep else "*"
                for pos in range(s)
            )
        )
    return tuple(out)


def merge(gpp):
    """Collapse copies that agree on their origin's visible ancestors.

    Starting from the weighting omega with c = 2, pairs with equal origin and
    equal signature are merged, deepest origins first, and weights add up, so
    the total weight of the result equals the total weight of the input and
    admissibility is preserved.  Returns the merged graph and its weighting.
    """
    if gpp.conductor_id is None:
        raise ValidationError("merge requires the conductor stage")
    tree = gpp.septree
    base = omega_weights(gpp, 2).weights
    groups = {}
    for node in gpp.nodes.values():
        if node.is_conductor:
            continue
        groups.setdefault((node.origin, node.signature), []).append(node.cid)
    depth_of_origin = {
        member: tree.depth_of(sv.id)
        for sv in tree.supervertices
        for member in sv.members
    }
    ordered = sorted(
        groups.items(), key=lambda kv: (-depth_of_origin[kv[0][0]], kv[0][0], kv[0][1])
    )
    next_cid = max(gpp.nodes) + 1
    rep_of = {gpp.conductor_id: gpp.conductor_id}
    new_nodes = {gpp.conductor_id: gpp.nodes[gpp.conductor_id]}
    weights = {gpp.conductor_id: base[gpp.conductor_id]}
    for (origin, sig), cids in ordered:
        cids = sorted(cids)
        if len(cids) == 1:
            keep = gpp.nodes[cids[0]]
            new_nodes[keep.cid] = keep
            rep_of[cids[0]] = keep.cid
            weights[keep.cid] = base[cids[0]]
            continue
        first = gpp.nodes[cids[0]]
        visible = gpp.visible_ancestors(origin)
        rep = CompressedNode(
            cid=next_cid,
            origin=origin,
            supervertex=first.supervertex,
            position=first.position,
            conditioning=_masked_conditioning(tree, origin, first.conditioning, visible),
            signature=sig,
        )
        new_nodes[next_cid] = rep
        weights[next_cid] = sum(base[c] for c in cids)
        for c in cids:
            rep_of[c] = next_cid
        next_cid += 1
    edge_sets = {cid: set() for cid in new_nodes}
    for a, targets in gpp.edges_out.items():
        for b in targets:
            edge_sets[rep_of[a]].add(rep_of[b])
    edges = {cid: tuple(sorted(t)) for cid, t in edge_sets.items()}
    gstar = CompressedDag(
        gpp.origin_dag, tree, new_nodes, edges,
        conductor_id=gpp.conductor_id, merged=True,
        visible=gpp._visible, origin_query=gpp.origin_query,
    )
    return gstar, WeightAssignment(weights=weights, c=2)


def build_compressed(g, tree):
    """Run the whole pipeline: expand, add the conductor, merge.

    Returns the merged graph and its conserved weighting.
    """
    return merge(add_conductor(expand_to_gprime(g, tree)))


def compute_output(gd, u, conditioning, wire_values):
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


def resolved_input_bits(gd, cid, wire_values):
    """Input wires of a copy, each resolved through compute_output.

    The copy's own conditioning (with merged-away positions read as 0, which
    never influences the result) seeds the recursion for every original
    parent wire.
    """
    node = gd.nodes[cid]
    qnode = gd.origin_query[node.origin]
    seed = tuple(part.replace("*", "0") for part in node.conditioning)
    return "".join(
        str(compute_output(gd, parent, seed, wire_values)) for parent in qnode.inputs
    )


def lift_query_string(g, gstar, xstar):
    """Pull a correct query string for the compressed graph back to G.

    Each original vertex's bit is what compute_output returns when every
    wire lookup reads the corresponding bit of xstar.
    """
    return {nid: compute_output(gstar, nid, (), xstar) for nid in g.by_id}
