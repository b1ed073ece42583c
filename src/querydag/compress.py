"""Separator-tree compression of a query graph.

Compression turns a query graph G into an equivalent graph G* whose nodes
all have few descendant origins, so an admissible weighting of small total
weight exists.  The paper reaches G* in three stages: G' holds one copy of
every vertex per conditioning tuple of hardcoded answer strings for the
supervertices on its branch, G'' adds the conductor t that replays
compute_output on the original output, and G* merges the copies of an
origin that agree on its visible ancestors (those on its own branch),
summing their omega weights so the total is conserved and admissibility
survives.

build_compressed enumerates G* and its weighting straight from the
signatures, in closed form, without building a copy.  G' and G'' live in
tests/paper_stages.py as the reference the tests check G* against, together
with the paper's compute_output over answer strings.

A node's query resolves each original input wire through compute_output,
which reads the answers of the input's visible ancestors top-down, each off
the copy their bits select, so a node's answer is a deterministic function
of its signature and the answer bits of deeper nodes.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

from .errors import WireValueError
from .querygraph import VERIFIER, QueryNode, decimal_str
from .weighting import WeightAssignment, descendant_masks

CONDUCTOR_ID = 0


@dataclass(frozen=True)
class CompressedNode:
    """One conditioned copy: origin vertex plus hardcoded answer strings.

    `conditioning` holds one s-bit string per supervertex on the branch from
    the root down to the origin's supervertex; in G*, positions the origin
    cannot see are shown as '*'.  It is for display only.  `signature`
    pairs each of the origin's ancestors on that branch with its bit, which
    is exactly what identifies a node of G*.
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


CONDUCTOR_NODE = CompressedNode(
    cid=CONDUCTOR_ID,
    origin=None,
    supervertex=None,
    position=None,
    conditioning=(),
    signature=(),
)


class CompressedDag:
    """The merged graph G*: one node per origin and assignment to its
    visible ancestors, plus the conductor, which is the graph's `output`.

    Every wire is resolved by signature: copy_of finds the node of an
    origin from the bits of its visible ancestors.  `visible` and
    `origin_query` depend only on the original graph and its separator
    tree; build_compressed computes them once.
    """

    conductor_id = output = CONDUCTOR_ID

    def __init__(self, origin_dag, septree, nodes, edges_out, visible, origin_query):
        self.origin_dag = origin_dag
        self.septree = septree
        self.nodes = dict(nodes)
        self.edges_out = {cid: tuple(sorted(t)) for cid, t in edges_out.items()}
        self._in = {cid: [] for cid in self.nodes}
        for cid, targets in self.edges_out.items():
            for t in targets:
                self._in[t].append(cid)
        self._in = {cid: tuple(sorted(v)) for cid, v in self._in.items()}
        self.origin_query = origin_query
        self._visible = visible
        self._index = {
            (n.origin, n.signature): n.cid
            for n in self.nodes.values()
            if not n.is_conductor
        }
        dummies = set(septree.dummies)
        self._fixed = {
            cid: 1
            for cid, n in self.nodes.items()
            if not n.is_conductor and n.origin in dummies
        }

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

    def copy_of(self, origin, bits):
        """The node of `origin` whose signature matches `bits`, a dict from
        original id to answer bit covering the origin's visible ancestors."""
        sig = tuple((anc, bits[anc]) for anc, _, _ in self._visible[origin])
        cid = self._index.get((origin, sig))
        if cid is None:
            raise WireValueError(f"no copy of node {origin} has signature {sig}")
        return cid

    def topo_order(self):
        """Deepest supervertices first (their copies feed shallower ones),
        conductor last."""
        depth = {
            sv.id: self.septree.depth_of(sv.id) for sv in self.septree.supervertices
        }
        plain = [cid for cid, n in self.nodes.items() if not n.is_conductor]
        plain.sort(key=lambda cid: (-depth[self.nodes[cid].supervertex], cid))
        plain.append(CONDUCTOR_ID)
        return plain

    def fixed_bits(self):
        """Dummy-origin copies are vacuously satisfiable, so their bits are
        fixed to 1; a fresh dict per call."""
        return dict(self._fixed)

    def forced_bit(self, cid, x, sat):
        """Answer of copy `cid` when every wire lookup reads its bit in x: the
        origin's query on wires resolved through compute_output from the
        copy's signature, or for the conductor the replayed original
        output."""
        node = self.nodes[cid]
        if node.is_conductor:
            return compute_output(self, self.origin_dag.output, {}, x)
        query = self.origin_query[node.origin]
        known = dict(node.signature)
        z = "".join(str(compute_output(self, p, known, x)) for p in query.inputs)
        return 1 if sat.exists(query, z) else 0

    def to_doc(self, weights=None):
        doc = {
            "merged": True,
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
                str(cid): decimal_str(w) for cid, w in sorted(weights.weights.items())
            }
        return doc

    def serialize(self, weights=None):
        return json.dumps(self.to_doc(weights), sort_keys=True) + "\n"


def _relatives_on_branch(g, tree, edges, own_level):
    """Per origin: (relative id, branch level index, position) for every
    node reachable along `edges` that lives in a supervertex on the origin's
    branch, its own supervertex included only when `own_level` is set."""
    ids = list(g.node_ids())
    idx = {nid: i for i, nid in enumerate(ids)}
    masks = descendant_masks(ids, edges)
    out = {}
    for sv in tree.supervertices:
        branch = tree.branch(sv.id)
        levels = branch if own_level else branch[:-1]
        for member in sv.members:
            # Dummies have no relatives, and no real vertex reaches them.
            out[member] = tuple(
                (other, lvl, pos)
                for lvl, svid in enumerate(levels)
                for pos, other in enumerate(tree.by_id[svid].members)
                if member in idx and other in idx and (masks[member] >> idx[other]) & 1
            )
    return out


def _visible_ancestors(g, tree):
    """Ancestors of each origin in the supervertices on its own branch."""
    return _relatives_on_branch(g, tree, g.in_neighbors(), own_level=True)


def _descendants_above(g, tree):
    """Descendants of each origin in supervertices strictly above its own on
    its branch: the copies every copy of the origin points to."""
    return _relatives_on_branch(g, tree, g.out_neighbors(), own_level=False)


def _origin_queries(g, tree):
    """Query per origin id; vacuous verifiers stand in for dummy vertices."""
    out = dict(g.by_id)
    for d in tree.dummies:
        out[d] = QueryNode(id=d, kind=VERIFIER, inputs=(), proof_var_count=0, clauses=())
    return out


def expected_expanded_size(tree):
    """Node count of the paper's conductor stage G'', which G*'s ids start
    from: 1 + sum over supervertices of s * 2^(s * depth)."""
    s = tree.uniform_size
    return 1 + sum(
        s * 2 ** (s * tree.depth_of(sv.id)) for sv in tree.supervertices
    )


def build_compressed(g, tree):
    """Enumerate G* from signatures: one node per origin u and assignment of
    bits to visible(u), with no conditioned copy built.

    Node u^sigma stands for the 2^(s*d_u - |visible(u)|) copies of u that
    agree with sigma on u's visible ancestors, d_u being the depth of u's
    supervertex.  Each such copy has the same omega weight 3^(1 + a_u) in
    G'': its descendants are the conductor and one copy of each of the a_u
    descendants of u in supervertices strictly above u's on its branch.  So
    u^sigma weighs their sum, and it points to the conductor and to every
    v^sigma' of such a descendant v whose sigma' agrees with sigma on the
    ancestors both can see.  Ids are the conductor 0, then consecutive from
    expected_expanded_size(tree) by decreasing depth, origin id and sigma in
    itertools.product order.  Returns G* and its weighting, which conserves
    the total omega weight of G''.
    """
    s = tree.uniform_size
    visible = _visible_ancestors(g, tree)
    above = _descendants_above(g, tree)
    origins = sorted(visible, key=lambda u: (-tree.depth_of(tree.supervertex_of(u)), u))
    first = {}
    cid = expected_expanded_size(tree)
    for u in origins:
        first[u] = cid
        cid += 2 ** len(visible[u])
    nodes = {CONDUCTOR_ID: CONDUCTOR_NODE}
    edges = {CONDUCTOR_ID: ()}
    weights = {CONDUCTOR_ID: 1}
    for u in origins:
        svid = tree.supervertex_of(u)
        branch = tree.branch(svid)
        vis = visible[u]
        weight = 3 ** (1 + len(above[u])) * 2 ** (s * len(branch) - len(vis))
        bit_strings = itertools.product((0, 1), repeat=len(vis))
        for cid, bits in enumerate(bit_strings, start=first[u]):
            sigma = {anc: bit for (anc, _, _), bit in zip(vis, bits)}
            cond = [["*"] * s for _ in branch]
            for (_, lvl, pos), bit in zip(vis, bits):
                cond[lvl][pos] = str(bit)
            targets = [CONDUCTOR_ID]
            for v, _, _ in above[u]:
                # sigma' is read as a binary number, first visible ancestor
                # most significant: shared bits are fixed, the rest range.
                base, spread = first[v], [0]
                for i, (anc, _, _) in enumerate(reversed(visible[v])):
                    if anc not in sigma:
                        spread += [o + (1 << i) for o in spread]
                    elif sigma[anc]:
                        base += 1 << i
                targets.extend(base + o for o in spread)
            nodes[cid] = CompressedNode(
                cid=cid,
                origin=u,
                supervertex=svid,
                position=tree.position_of(u) + 1,
                conditioning=tuple("".join(part) for part in cond),
                signature=tuple(sigma.items()),
            )
            edges[cid] = targets
            weights[cid] = weight
    gstar = CompressedDag(g, tree, nodes, edges, visible, _origin_queries(g, tree))
    return gstar, WeightAssignment(weights=weights, c=2)


def compute_output(gd, u, known, wire_values):
    """Answer bit of original vertex u, given the bits in `known` (a dict
    from original id to bit).

    The visible ancestors of u, then u itself, are read top-down: each one
    not yet known is the answer of the copy that the bits found so far
    select, its visible ancestors all coming earlier in that order.
    `wire_values` maps node ids of this compressed graph to answer bits; a
    missing entry is a construction bug and raises immediately.
    """
    bits = dict(known)
    for v in [anc for anc, _, _ in gd.visible_ancestors(u)] + [u]:
        if v not in bits:
            cid = gd.copy_of(v, bits)
            if cid not in wire_values:
                raise WireValueError(f"no wire value for node {gd.label(cid)}")
            bits[v] = 1 if wire_values[cid] else 0
    return bits[u]


def lift_query_string(g, gstar, xstar):
    """Pull a correct query string for the compressed graph back to G.

    Each original vertex's bit is what compute_output returns when every
    wire lookup reads the corresponding bit of xstar.
    """
    return {nid: compute_output(gstar, nid, {}, xstar) for nid in g.by_id}
