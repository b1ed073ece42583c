"""The record-based G* builder and the paper's merged weighting, kept as a
test reference.

build_compressed enumerates G* from signatures the way the package did
before it stored G* as blocks of consecutive ids: it makes a CompressedNode
for every copy, with its conditioning strings and signature, sorts each
copy's edges, and CompressedDag indexes the copies by (origin, signature),
so copy_of looks a signature tuple up in a dict.  Like the paper, it
keeps a copy of every dummy vertex the separator tree pads with: a vacuous
verifier that reads no wire and points only to the conductor.
querydag.compress.build_compressed leaves those copies out and must
produce the graph without_dummies makes of this one: the same documents,
edges, orders and copy lookups.  tests/paper_stages.py builds the paper's
G' and G'' on this class, with its explicit records.

The weighting this build returns is the paper's: each copy of G* weighs
the omega weights of the G'' copies it merges, so the total is W(G'').
The package gives G* the least admissible weighting instead, in closed
form; least_weights finds that weighting on any graph by walking it node
by node, and it lies below the paper's at every node.

The relatives of each origin come from two reachability passes, as the
package found them before querydag.compress._relatives read both off one
set of descendant masks: _visible_ancestors along in-edges, taken from
each node's inputs, and _descendants_above along out-edges.  Both this
build and tests/paper_stages.py use them, so the tests check the package's
one-pass relatives against a separate computation.
"""

from __future__ import annotations

import itertools

from querydag.compress import (
    CONDUCTOR_ID,
    CONDUCTOR_NODE,
    CompressedNode,
    compute_output,
    expected_expanded_size,
)
from querydag.errors import WireValueError
from querydag.querygraph import VERIFIER, QueryDag, QueryNode, decimal_str
from querydag.weighting import ADMISSIBILITY_C, descendant_masks


def _origin_queries(g, tree):
    """Query per origin id; vacuous verifiers stand in for dummy vertices."""
    out = dict(g.by_id)
    for d in tree.dummies:
        out[d] = QueryNode(id=d, kind=VERIFIER, inputs=(), proof_var_count=0, clauses=())
    return out


def _relatives_on_branch(g, tree, edges, own_level):
    """Per origin: (relative id, branch level index, position) for every
    node reachable along `edges` that lives in a supervertex on the origin's
    branch, its own supervertex included only when `own_level` is set."""
    ids = list(g.out_neighbors())
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
    inputs = {node.id: node.inputs for node in g.nodes}
    return _relatives_on_branch(g, tree, inputs, own_level=True)


def _descendants_above(g, tree):
    """Descendants of each origin in supervertices strictly above its own on
    its branch: the copies every copy of the origin points to."""
    return _relatives_on_branch(g, tree, g.out_neighbors(), own_level=False)


def least_weights(g):
    """The least weighting admissible with c = ADMISSIBILITY_C, node by
    node, children first (the pins() order reversed): one more than c
    times the children's total."""
    out = g.out_neighbors()
    weights = {}
    for nid in reversed([*g.pins()[1]]):
        weights[nid] = 1 + ADMISSIBILITY_C * sum(weights[child] for child in out[nid])
    return weights


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
        self.origin_query = origin_query
        self._visible = visible
        self._index = {
            (n.origin, n.signature): n.cid
            for n in self.nodes.values()
            if not n.is_conductor
        }

    def node_ids(self):
        return list(self.nodes)

    def out_neighbors(self):
        return self.edges_out

    def out_sums(self, weights):
        """The sum of `weights` over each node's out-neighbours, as one
        block."""
        f = weights.__getitem__
        yield list(self.edges_out), [sum(map(f, kids)) for kids in self.edges_out.values()]

    def weight_runs(self, weights):
        """The weights in topo order, one per node, and no run sizes."""
        return map(weights.__getitem__, self.topo_order()), None

    def edge_count(self):
        return sum(len(t) for t in self.edges_out.values())

    def visible_ancestors(self, origin):
        """The ids of the ancestors of `origin` lying on its own branch, in
        branch order."""
        return tuple(anc for anc, _, _ in self._visible[origin])

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

    def pins(self):
        """A new empty dict to pin, and the ids in topo order to pin it in."""
        return {}, self.topo_order()

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
        return 1 if sat.exists(query, int(z or "0", 2)) else 0

    def forced_bits(self, x, sat, pins):
        """(id, pinned or forced bit under x) per node in topo order, a copy
        at a time through forced_bit: the per-copy reference for the
        package's block form."""
        for cid in self.topo_order():
            yield cid, pins[cid] if cid in pins else self.forced_bit(cid, x, sat)

    # A dict string, settled and read as a query graph's.
    evaluate = QueryDag.evaluate
    positions = QueryDag.positions

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
                str(cid): decimal_str(w) for cid, w in sorted(weights.items())
            }
        return doc


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
    itertools.product order.  Returns G* and the paper's merged weighting,
    which conserves the total omega weight of G''.
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
    return gstar, weights


def without_dummies(gstar, weights):
    """`gstar` and its `weights` with the dummies' copies left out and the
    later ids closed up, as querydag.compress numbers G*.  A dummy's copy
    must point only to the conductor, and no copy may point to it."""
    dummies = set(gstar.septree.dummies)
    renumber, dropped = {}, 0
    for cid in sorted(gstar.nodes):
        if gstar.nodes[cid].origin in dummies:
            assert gstar.edges_out[cid] == (CONDUCTOR_ID,)
            dropped += 1
        else:
            renumber[cid] = cid - dropped
    nodes = {}
    for cid, new in renumber.items():
        node = gstar.nodes[cid]
        nodes[new] = CompressedNode(
            cid=new,
            origin=node.origin,
            supervertex=node.supervertex,
            position=node.position,
            conditioning=node.conditioning,
            signature=node.signature,
        )
    # A copy pointing to a dummy's copy has no target here: a KeyError.
    edges = {
        renumber[cid]: [renumber[t] for t in gstar.edges_out[cid]] for cid in renumber
    }
    visible = {u: vis for u, vis in gstar._visible.items() if u not in dummies}
    kept = CompressedDag(
        gstar.origin_dag, gstar.septree, nodes, edges, visible, gstar.origin_query
    )
    return kept, {renumber[cid]: weights[cid] for cid in weights if cid in renumber}
