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
signatures, in closed form, without building a copy: the nodes of one
origin are a block of consecutive ids whose index bits are their
signatures, so edges and lookups are index arithmetic, and a node's record
(CompressedNode) is made only when something reads it.  G' and G'' live in
tests/paper_stages.py as the reference the tests check G* against, together
with the paper's compute_output over answer strings; the record-based build
this replaced is kept as tests/compress_reference.py, with the two-pass
relatives helpers that _relatives replaced.

A node's query resolves each original input wire through compute_output,
which reads the answers of the input's visible ancestors top-down, each off
the copy their bits select, so a node's answer is a deterministic function
of its signature and the answer bits of deeper nodes.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from dataclasses import dataclass

from .errors import WireValueError
from .querygraph import VERIFIER, QueryNode, decimal_str
from .weighting import ADMISSIBILITY_C, descendant_masks

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

    @property
    def label(self):
        if self.is_conductor:
            return "t"
        return f"v{self.origin}^{{{','.join(self.conditioning)}}}"


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

    The copies of origin u are one block of consecutive ids, first[u] to
    first[u] + 2^|visible(u)| - 1, in itertools.product order over the bits
    of u's visible ancestors: a copy's index in its block, read as a binary
    number with the first visible ancestor most significant, is its
    signature (see _bit_shifts).  Blocks follow one another by decreasing
    depth of the origin's supervertex, then origin id, which is a
    topological order.  So copy_of is index arithmetic, and a copy's known
    bits are read off its index.  Besides the blocks, G* keeps each copy's
    origin and its sorted out-edges; `nodes` makes a copy's CompressedNode
    record only when it is read.  `visible` and `origin_query` depend only
    on the original graph and its separator tree.
    """

    conductor_id = output = CONDUCTOR_ID

    def __init__(self, origin_dag, septree, first, visible, shifts, edges_out):
        self.origin_dag = origin_dag
        self.septree = septree
        self.origin_query = _origin_queries(origin_dag, septree)
        self.edges_out = edges_out
        self._first = first
        self._visible = visible
        self._shifts = shifts
        # Plain ids ascending, each with its origin.
        self._origin = {}
        for u, start in first.items():
            self._origin.update(dict.fromkeys(range(start, start + (1 << len(visible[u]))), u))
        # Dummy origins see no ancestor, so each has a single copy.
        self._fixed = {first[d]: 1 for d in sorted(septree.dummies, key=first.get)}

    @property
    def nodes(self):
        """G*'s nodes by id as CompressedNode records, made when read."""
        return _Records(self)

    def node_ids(self):
        return [CONDUCTOR_ID, *self._origin]

    def out_neighbors(self):
        return self.edges_out

    def edge_count(self):
        return sum(len(t) for t in self.edges_out.values())

    def visible_ancestors(self, origin):
        """Ancestors of `origin` lying on its own branch, with bit coordinates."""
        return self._visible[origin]

    def label(self, cid):
        return self.nodes[cid].label

    def copy_of(self, origin, bits):
        """The node of `origin` whose signature matches `bits`, a dict from
        original id to answer bit (0 or 1) covering the origin's visible
        ancestors."""
        cid = self._first[origin]
        for anc, shift in self._shifts[origin].items():
            cid += bits[anc] << shift
        return cid

    def topo_order(self):
        """Deepest supervertices first (their copies feed shallower ones),
        conductor last: the plain ids ascending."""
        return [*self._origin, CONDUCTOR_ID]

    def fixed_bits(self):
        """Dummy-origin copies are vacuously satisfiable, so their bits are
        fixed to 1; a fresh dict per call."""
        return dict(self._fixed)

    def _known(self, cid, origin):
        """The bits of the visible ancestors of `origin` in copy `cid`, read
        off its index, in signature order."""
        k = cid - self._first[origin]
        return {anc: k >> shift & 1 for anc, shift in self._shifts[origin].items()}

    def forced_bit(self, cid, x, sat):
        """Answer of copy `cid` when every wire lookup reads its bit in x: the
        origin's query on wires resolved through compute_output into one
        dict seeded with the copy's signature (a bit depends only on the
        bits that select its copy), or for the conductor the replayed
        original output."""
        if cid == CONDUCTOR_ID:
            return compute_output(self, self.origin_dag.output, {}, x)
        origin = self._origin[cid]
        query = self.origin_query[origin]
        known = self._known(cid, origin)
        z = "".join([str(compute_output(self, p, known, x)) for p in query.inputs])
        return 1 if sat.exists(query, z) else 0

    def _record(self, cid):
        if cid == CONDUCTOR_ID:
            return CONDUCTOR_NODE
        origin = self._origin[cid]
        tree = self.septree
        svid = tree.supervertex_of(origin)
        signature = tuple(self._known(cid, origin).items())
        cond = [["*"] * tree.uniform_size for _ in tree.branch(svid)]
        for (_, lvl, pos), (_, bit) in zip(self._visible[origin], signature):
            cond[lvl][pos] = str(bit)
        return CompressedNode(
            cid=cid,
            origin=origin,
            supervertex=svid,
            position=tree.position_of(origin) + 1,
            conditioning=tuple("".join(part) for part in cond),
            signature=signature,
        )

    def to_doc(self, weights):
        """G*'s nodes, edges and `weights`, a weighting of its ids."""
        return {
            "merged": True,
            "uniform_size": self.septree.uniform_size,
            "origin_output": self.origin_dag.output,
            "nodes": [
                {
                    "id": n.cid,
                    "label": n.label,
                    "origin": n.origin,
                    "supervertex": n.supervertex,
                    "position": n.position,
                    "conditioning": list(n.conditioning),
                    "signature": {str(a): b for a, b in n.signature},
                }
                for n in self.nodes.values()
            ],
            "edges": sorted(
                [a, b] for a, targets in self.edges_out.items() for b in targets
            ),
            "weights": {str(cid): decimal_str(w) for cid, w in sorted(weights.items())},
        }

    def serialize(self, weights):
        return json.dumps(self.to_doc(weights), sort_keys=True) + "\n"


class _Records(Mapping):
    """G*'s nodes by id, in ascending id order, as CompressedNode records
    made when they are read; read-only, and its length builds no record."""

    def __init__(self, gd):
        self._gd = gd

    def __len__(self):
        return 1 + len(self._gd._origin)

    def __iter__(self):
        return iter(self._gd.node_ids())

    def __contains__(self, cid):
        return cid == CONDUCTOR_ID or cid in self._gd._origin

    def __getitem__(self, cid):
        return self._gd._record(cid)


def _bit_shifts(visible):
    """Where each visible ancestor's bit sits in the index of a copy within
    its origin's block: the index is the bits read as a binary number, the
    first visible ancestor most significant, which is itertools.product
    order.  copy_of, the copies' signatures and build_compressed's edges
    all read the numbering from here."""
    n = len(visible)
    return {anc: n - 1 - i for i, (anc, _, _) in enumerate(visible)}


def _offsets(places, start=0):
    """start + sum of bit_i * places[i], for every bit string in
    itertools.product order."""
    out = [start]
    for p in places:
        out = [o + b for o in out for b in (0, p)]
    return out


def _relatives(g, tree):
    """Per origin, read off one set of descendant masks of g: its visible
    ancestors, those in the supervertices on its branch, as (id, branch
    level index, position) in branch order; and its descendants above, those
    in supervertices strictly above its own on its branch, as ids.  Dummies
    have no relatives, and no real vertex reaches them."""
    ids = g.node_ids()
    bit = {nid: 1 << i for i, nid in enumerate(ids)}
    desc = descendant_masks(ids, g.out_neighbors())
    visible, above = {}, {}
    for sv in tree.supervertices:
        branch = [tree.by_id[svid].members for svid in tree.branch(sv.id)]
        for member in sv.members:
            below, me = desc.get(member, 0), bit.get(member, 0)
            visible[member] = tuple(
                (other, lvl, pos)
                for lvl, members in enumerate(branch)
                for pos, other in enumerate(members)
                if desc.get(other, 0) & me
            )
            above[member] = tuple(
                other for members in branch[:-1] for other in members if below & bit.get(other, 0)
            )
    return visible, above


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
    ancestors both can see.  Ids are the conductor 0, then one block per
    origin, consecutive from expected_expanded_size(tree) by decreasing
    depth and origin id, with sigma in itertools.product order (see
    CompressedDag).  Per origin only its first id, weight, visible
    ancestors and descendants above are worked out, the last two from one
    descendant-mask pass (_relatives); per copy only its edges and weight,
    by index arithmetic.  Returns G* and its weighting, which conserves the
    total omega weight of G''.
    """
    s = tree.uniform_size
    visible, above = _relatives(g, tree)
    origins = sorted(visible, key=lambda u: (-tree.depth_of(tree.supervertex_of(u)), u))
    shifts = {u: _bit_shifts(visible[u]) for u in origins}
    first = {}
    cid = expected_expanded_size(tree)
    for u in origins:
        first[u] = cid
        cid += 1 << len(visible[u])
    edges = {CONDUCTOR_ID: ()}
    weights = {CONDUCTOR_ID: 1}
    for u in origins:
        vis = visible[u]
        copies = range(first[u], first[u] + (1 << len(vis)))
        depth = tree.depth_of(tree.supervertex_of(u))
        weight = (ADMISSIBILITY_C + 1) ** (1 + len(above[u])) * 2 ** (s * depth - len(vis))
        # Per descendant v above, in id order: the first id of v's copies
        # for each copy of u, from the ancestors both see, and the offsets
        # spanned by the ancestors only v sees.
        blocks = []
        for v in sorted(above[u], key=first.get):
            at = shifts[v]
            bases = _offsets([1 << at[a] if a in at else 0 for a, _, _ in vis], first[v])
            spread = _offsets([1 << sh for a, sh in at.items() if a not in shifts[u]])
            blocks.append((bases, spread))
        for k, cid in enumerate(copies):
            targets = [CONDUCTOR_ID]
            for bases, spread in blocks:
                base = bases[k]
                targets.extend([base + o for o in spread])
            edges[cid] = tuple(targets)
        weights.update(dict.fromkeys(copies, weight))
    gstar = CompressedDag(g, tree, first, visible, shifts, edges)
    return gstar, weights


def compute_output(gd, u, known, wire_values):
    """Answer bit of original vertex u, given the bits in `known` (a dict
    from original id to bit), which it fills with every bit it reads.

    The visible ancestors of u, then u itself, are read top-down: each one
    not yet known is the answer of the copy that the bits found so far
    select, its visible ancestors all coming earlier in that order.  A u
    in `known` is answered from it, reading no wire.  `wire_values` maps
    node ids of this compressed graph to answer bits; a missing entry is a
    construction bug and raises immediately.
    """
    if u not in known:
        for v in [anc for anc, _, _ in gd.visible_ancestors(u)] + [u]:
            if v not in known:
                cid = gd.copy_of(v, known)
                if cid not in wire_values:
                    raise WireValueError(f"no wire value for node {gd.label(cid)}")
                known[v] = 1 if wire_values[cid] else 0
    return known[u]


def lift_query_string(g, gstar, xstar):
    """Pull a correct query string for the compressed graph back to G.

    Each original vertex's bit is what compute_output returns when every
    wire lookup reads the corresponding bit of xstar, in one shared dict.
    """
    known = {}
    return {nid: compute_output(gstar, nid, known, xstar) for nid in g.by_id}
