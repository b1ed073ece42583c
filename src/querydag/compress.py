"""Separator-tree compression of a query graph.

Compression turns a query graph G into an equivalent graph G* whose nodes
all have few descendant origins, so an admissible weighting of small total
weight exists.  The paper reaches G* in three stages: G' holds one copy of
every vertex per conditioning tuple of hardcoded answer strings for the
supervertices on its branch, G'' adds the conductor t that replays
compute_output on the original output, and G* merges the copies of an
origin that agree on its visible ancestors (those on its own branch),
summing their omega weights.  The paper also copies the dummies that pad
every supervertex to one size; no query reads such a copy.

build_compressed enumerates G* straight from the signatures, over the real
vertices only, without building a copy: the nodes of one origin are a
block of consecutive ids whose index bits are their signatures, and the
origin keeps one table, its visible ancestors in branch order with the
place of each one's bit, so edges, origins and lookups are index
arithmetic, and a node's edges and record (CompressedNode) are made only
when something reads them; a record reads its levels and positions off
the tree.  It gives G*
the least admissible weighting, f(v) = 1 + c * (sum of f over v's
children), in closed form per origin (plan), and keeps it per origin
(OriginWeights).  That weighting lies below the paper's merged one at
every node, so the total W, and with it the threshold search, is
smaller.  G' and G'' live in
tests/paper_stages.py as the reference the tests check G* against, together
with the paper's compute_output over answer strings; the record-based build
this replaced is kept as tests/compress_reference.py, with the two-pass
relatives helpers that _relatives replaced and the paper's merged
weighting, on a G* that keeps the dummies' copies.

A node's query reads each original input wire its origin can see off the
node's index, and resolves any other through compute_output, which reads
the answers of the input's visible ancestors top-down, each off the copy
their bits select, so a node's answer is a deterministic function of its
signature and the answer bits of deeper nodes.  Evaluation, the objective,
the check of a string and the admissibility check run on whole blocks
(forced_bits, out_sums, weight_runs): lists over a block's copies, with
compute_output in vector form and each distinct input code decided once,
and G*'s own weighting read once per block.  A string of G*'s own is a
CompactString, one byte per copy and one for the conductor, in topo order:
evaluate settles one, a witness extraction pins one from empty, and G*
reads either by position; the string format is decided here alone.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import ItemsView, Mapping
from itertools import chain, islice, repeat
from operator import add
from types import SimpleNamespace

from .errors import ValidationError, WireValueError
from .querygraph import Record, decimal_str
from .weighting import ADMISSIBILITY_C, descendant_masks

CONDUCTOR_ID = 0


class CompressedNode(Record):
    """One conditioned copy: origin vertex plus hardcoded answer strings.

    `conditioning` holds one s-bit string per supervertex on the branch from
    the root down to the origin's supervertex; in G*, positions the origin
    cannot see are shown as '*'.  It is for display only.  `signature`
    pairs each of the origin's ancestors on that branch with its bit, which
    is exactly what identifies a node of G*.
    """

    __slots__ = _FIELDS = ("cid", "origin", "supervertex", "position", "conditioning", "signature")

    def __init__(self, cid, origin, supervertex, position, conditioning, signature):
        self.cid = cid
        self.origin = origin  # node id in the original graph, or None for the conductor
        self.supervertex = supervertex
        self.position = position  # 1-based slot inside the supervertex
        self.conditioning = conditioning
        self.signature = signature

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
    Its part of the graph protocol is eight members (see README):
    out_neighbors, whose keys are its one list of ids, out_sums,
    weight_runs, pins, forced_bits, evaluate, positions and `output`.

    The copies of origin u are one block of consecutive ids, first[u] to
    first[u] + 2^|visible(u)| - 1, in itertools.product order over the bits
    of u's visible ancestors: a copy's index in its block, read as a binary
    number with the first visible ancestor most significant, is its
    signature (see _bit_shifts).  Blocks follow one another, with no gap,
    by decreasing depth of the origin's supervertex, then origin id, which
    is a topological order.  So G* keeps no table and no object per copy,
    only per origin its first id, its `shifts`, an ordered dict from each
    visible ancestor, in branch order, to the place of its bit, and its
    descendants `above`, and the range of the copies' ids; its weighting
    keeps one weight per origin (OriginWeights), and a string evaluate
    settles one byte per copy (CompactString).  A copy's origin is the
    block its id falls in, and its bits, edges and record are made off its
    index when read, a block at a time for forced_bits and out_sums.
    `shifts` and `above` depend only on the original graph and its tree.
    """

    output = CONDUCTOR_ID

    def __init__(self, origin_dag, septree, first, shifts, above, copies):
        self.origin_dag = origin_dag
        self.septree = septree
        self._first = first
        self._shifts = shifts
        self._above = above  # descendants above, in id order
        self._copies = copies  # the range of every copy's id
        self._origins, self._starts = list(first), list(first.values())
        self._sizes = [1 << len(shifts[u]) for u in first]

    @property
    def nodes(self):
        """G*'s nodes by id as CompressedNode records, made when read."""
        return _Lazy(self, self._record)

    def out_neighbors(self):
        """Each node's out-edges in id order, a tuple made off its origin's
        block (_block_rows) when read; items() makes one block at a time."""
        return _Lazy(self, self._row, self._rows)

    def visible_ancestors(self, origin):
        """The ids of the ancestors of `origin` lying on its own branch, in
        branch order."""
        return self._shifts[origin].keys()

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

    def pins(self):
        """A new empty CompactString to pin, and the ids in topo order to
        pin it in (see solver.extract_query_string)."""
        return CompactString(self, 0), chain(self._copies, (CONDUCTOR_ID,))

    def _origin_of(self, cid):
        """The origin whose block holds copy `cid`; KeyError for any other id."""
        if cid not in self._copies:
            raise KeyError(cid)
        return self._origins[bisect_right(self._starts, cid) - 1]

    def _block(self, u):
        """The ids of origin u's copies, as the range they cover."""
        start = self._first[u]
        return range(start, start + (1 << len(self._shifts[u])))

    def _block_columns(self, u):
        """The out-edges of origin u's copies but the conductor, yielded as
        columns over the block in id order: per descendant v above u and
        offset spanned by the ancestors only v sees, one column of targets,
        _bases(u, v) plus that offset."""
        mine = self._shifts[u]
        for v in self._above[u]:
            bases = self._bases(u, v)
            yield bases
            spans = [1 << sh for a, sh in self._shifts[v].items() if a not in mine]
            if spans:
                for o in _offsets(spans)[1:]:
                    yield [*map(o.__add__, bases)]

    def _bases(self, u, v, base=0):
        """For each copy of origin u in id order, the copy of v that agrees
        with it on the ancestors both see and has every other bit 0, as its
        id less `base`."""
        at = self._shifts[v]
        places = [1 << at[a] if a in at else 0 for a in self._shifts[u]]
        return _offsets(places, self._first[v] - base)

    def _block_rows(self, u):
        """The out-edges of origin u's copies in id order: the conductor,
        then a target from each of _block_columns."""
        return zip(repeat(CONDUCTOR_ID, 1 << len(self._shifts[u])), *self._block_columns(u))

    def out_sums(self, weights):
        """The sum of `weights`, this graph's OriginWeights, over each
        node's out-neighbours: yields the conductor's, 0, then per origin
        u in id order its first copy alone and the sum every copy of u
        shares, weights[conductor] plus f(v) times 2^|visible(v) -
        visible(u)| targets per v above u."""
        by_origin = self._by_origin(weights)
        yield (CONDUCTOR_ID,), [0]
        conductor = weights[CONDUCTOR_ID]
        shifts = self._shifts
        for u in self._origins:
            mine = shifts[u].keys()
            row = sum(by_origin[v] << len(shifts[v].keys() - mine) for v in self._above[u])
            yield (self._first[u],), [conductor + row]

    def weight_runs(self, weights):
        """The weights of `weights`, this graph's OriginWeights, in topo
        order, one per origin block, then the conductor's, and the runs'
        sizes: the blocks' sizes, then 1 (see weighting.weigh)."""
        ws = map(self._by_origin(weights).__getitem__, self._origins)
        return chain(ws, [weights[CONDUCTOR_ID]]), chain(self._sizes, [1])

    def _by_origin(self, weights):
        """The weight per origin of `weights`, which must be this graph's
        own OriginWeights: the one place a weighting's type is asked.  Any
        other mapping, a per-copy dict or another G*'s, is refused."""
        if not (isinstance(weights, OriginWeights) and weights._gd is self):
            raise ValidationError("G* reads only its own per-origin weighting")
        return weights.by_origin

    def _row(self, cid):
        if cid == CONDUCTOR_ID:
            return ()
        u = self._origin_of(cid)
        return next(islice(self._block_rows(u), cid - self._first[u], None))

    def _rows(self):
        """(id, out-edges) for every id in order, a block at a time."""
        blocks = chain.from_iterable(map(self._block_rows, self._origins))
        return zip(chain((CONDUCTOR_ID,), self._copies), chain([()], blocks))

    def forced_bits(self, x, sat, pins):
        """(id, bit) for every node in topo order: its pin if `pins` holds
        it, with no proof call, else its forced bit under x, the answer of
        its query when every wire lookup reads its bit in x.  The copies
        come one origin block at a time, in id order, each block's bits
        made when its first pair is taken, from the bits x holds then (see
        _block_bits); the conductor comes last, the original output
        replayed through compute_output.  So a caller that puts each pair
        in x before taking the next evaluates.  Proof calls are counted and
        recorded copy by copy in id order."""
        for u in self._origins:
            block = self._block(u)
            yield from zip(block, self._block_bits(u, block, x, sat, pins))
        yield CONDUCTOR_ID, self._conductor_bit(x, pins)

    def evaluate(self, sat, pins):
        """The bits forced_bits gives, settled into a CompactString: each
        origin block's bits, made from the blocks before it, are put in by
        one slice assignment, then the conductor's bit.  The same proof
        calls, in the same order, as forced_bits."""
        x = CompactString(self, len(self._copies) + 1)
        bits, base = x._bits, self._copies.start
        for u in self._origins:
            block = self._block(u)
            bits[block.start - base : block.stop - base] = self._block_bits(u, block, x, sat, pins)
        bits[-1] = self._conductor_bit(x, pins)
        return x

    def positions(self, x):
        """The string x as (seq, base), to read by position: the bit of copy
        cid is seq[cid - base], and the conductor's is x[0].  A string of
        this graph's own (CompactString) gives its bytes, in topo order,
        and the first copy's id; any other mapping is read by id, with
        base 0.  This is the one place a string's form is asked."""
        if type(x) is CompactString and x._copies is self._copies:
            return x._bits, self._copies.start
        return x, 0

    def _conductor_bit(self, x, pins):
        """The conductor's pin, or the original output replayed through
        compute_output on x."""
        if CONDUCTOR_ID in pins:
            return pins[CONDUCTOR_ID]
        return compute_output(self, self.origin_dag.output, {}, x)

    def _block_bits(self, u, block, x, sat, pins):
        """The bits of origin u's copies `block` under x, pinned or forced,
        as one list.  Each copy's input bits are its code (_input_codes);
        the unpinned copies' codes go to sat.exists_each, which counts and
        records every one in id order and decides each distinct one once,
        in first-occurrence order.  A block pinned whole reads no wire."""
        if pins and all(map(pins.__contains__, block)):
            return [*map(pins.__getitem__, block)]
        query = self.origin_dag.by_id[u]
        codes = self._input_codes(u, query.inputs, x)
        if not (pins and any(map(pins.__contains__, block))):
            return [*map(sat.exists_each(query, codes).__getitem__, codes)]
        bit = sat.exists_each(query, [code for cid, code in zip(block, codes) if cid not in pins])
        return [pins[cid] if cid in pins else bit[code] for cid, code in zip(block, codes)]

    def _input_codes(self, u, inputs, x):
        """Each copy of origin u's input bits, in id order, as one number,
        the first of `inputs` most significant.  A visible input's bit comes
        off the copy's index.  An input p that u cannot see is
        compute_output in vector form, over the whole block at once:
        visible(p) + [p] top down, each vertex neither visible to u nor
        found yet read from x, by position (see positions), at the copies
        that the bits known so far select.  What is found is kept for u's
        later inputs.  A wire x lacks raises WireValueError, naming the
        first missing copy in the order the block reads them: a dict lacks
        its id, a string of G*'s own pinned short of it its index."""
        seq, base = self.positions(x)
        shifts = self._shifts[u]
        # Each input's place in the code; a visible ancestor that is no
        # input has none.
        places = dict.fromkeys(shifts, 0)
        hidden = []
        place = 1 << len(inputs)
        for p in inputs:
            place >>= 1
            if p in places:
                places[p] = place
            else:
                hidden.append((p, place))
        codes = _offsets([*places.values()])
        found = {}
        for p, place in hidden:
            if p not in found:
                for v in chain(self._shifts[p], (p,)):
                    if v in shifts or v in found:
                        continue
                    at = self._bases(u, v, base)
                    for a, sh in self._shifts[v].items():
                        if a not in shifts:
                            at = [*map(add, at, map((1 << sh).__mul__, found[a]))]
                    try:
                        found[v] = [*map(bool, map(seq.__getitem__, at))]
                    except (KeyError, IndexError) as exc:
                        i = exc.args[0] if seq is x else next(i for i in at if i >= len(seq))
                        raise WireValueError(f"no wire value for node {self.label(i + base)}") from None
            codes = [*map(add, codes, map(place.__mul__, found[p]))]
        return codes

    def _record(self, cid):
        if cid == CONDUCTOR_ID:
            return CONDUCTOR_NODE
        origin = self._origin_of(cid)
        tree = self.septree
        svid = tree.supervertex_of(origin)
        # The visible ancestors' bits, read off the copy's index.
        k = cid - self._first[origin]
        signature = tuple((anc, k >> shift & 1) for anc, shift in self._shifts[origin].items())
        branch = tree.branch(svid)
        cond = [["*"] * tree.uniform_size for _ in branch]
        for anc, bit in signature:
            cond[branch.index(tree.supervertex_of(anc))][tree.position_of(anc)] = str(bit)
        return CompressedNode(
            cid=cid,
            origin=origin,
            supervertex=svid,
            position=tree.position_of(origin) + 1,
            conditioning=tuple("".join(part) for part in cond),
            signature=signature,
        )

    def to_doc(self, weights):
        """G*'s nodes, edges and `weights`, a weighting of its ids.  The
        edges come out of out_neighbors().items() already sorted."""
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
            "edges": [[a, b] for a, targets in self.out_neighbors().items() for b in targets],
            "weights": {str(cid): decimal_str(w) for cid, w in sorted(weights.items())},
        }


class _Lazy(Mapping):
    """G*'s nodes or edges by id, in ascending id order, each value made by
    `read` when it is read; read-only, and its length and membership make
    none.  `rows`, if given, yields every (id, value) pair for items()."""

    def __init__(self, gd, read, rows=None):
        self._gd, self._read, self._rows = gd, read, rows

    def __len__(self):
        return 1 + len(self._gd._copies)

    def __iter__(self):
        return chain((CONDUCTOR_ID,), self._gd._copies)

    def __contains__(self, cid):
        return cid == CONDUCTOR_ID or cid in self._gd._copies

    def __getitem__(self, cid):
        return self._read(cid)

    def items(self):
        return self._rows() if self._rows else super().items()


class OriginWeights(_Lazy):
    """G*'s weights by id, one per origin: a copy weighs its origin's entry
    of `by_origin`, the conductor 1.  values() and items() walk the blocks
    in id order; a lookup finds its copy's block.  G* reads it per origin
    (out_sums, weight_runs), and reads no other weighting."""

    def __init__(self, gd, by_origin):
        super().__init__(gd, None)
        self.by_origin = by_origin

    def __getitem__(self, cid):
        return 1 if cid == CONDUCTOR_ID else self.by_origin[self._gd._origin_of(cid)]

    def values(self):
        gd = self._gd
        weights = map(self.by_origin.__getitem__, gd._origins)
        return chain((1,), chain.from_iterable(map(repeat, weights, gd._sizes)))

    def items(self):
        return zip(self, self.values())


class CompactString(Mapping):
    """A query string of G*: one byte per node in topo order, each 0 or 1,
    the copies in id order, then the conductor, of which it holds the
    first `size`.  evaluate makes one of every node, read-only; a witness
    extraction pins one from empty (CompressedDag.pins), which takes only
    the changes the pins contract of oracle.threshold_oracle allows: the
    next node's byte added at the end, or the newest one's changed.  A
    lookup by id is a Python call, so G* reads it by position (positions).
    It keeps G*'s range of copy ids, not G*, so a transcript that holds
    its pins keeps no graph alive."""

    __slots__ = ("_copies", "_bits", "_open")

    def __init__(self, gd, size):
        self._copies, self._bits, self._open = gd._copies, bytearray(size), not size

    def _index(self, cid):
        """cid's place in the bytes, held or not; KeyError for no node."""
        copies = self._copies
        if cid in copies:
            return cid - copies.start
        if cid == CONDUCTOR_ID:
            return len(copies)
        raise KeyError(cid)

    def __len__(self):
        return len(self._bits)

    def __iter__(self):
        copies, n = self._copies, len(self._bits)
        return chain(copies, (CONDUCTOR_ID,)) if n > len(copies) else iter(copies[:n])

    def __reversed__(self):
        copies, n = self._copies, len(self._bits)
        return chain((CONDUCTOR_ID,), reversed(copies)) if n > len(copies) else reversed(copies[:n])

    def __getitem__(self, cid):
        i = self._index(cid)
        if i >= len(self._bits):
            raise KeyError(cid)
        return self._bits[i]

    def __setitem__(self, cid, bit):
        """Pin `cid`, the node after the newest in topo order or the newest
        again, to `bit`, the int 0 or 1 or a bool."""
        bits, copies = self._bits, self._copies
        i = cid - copies.start if cid in copies else self._index(cid)
        n = len(bits)
        if not self._open:
            raise TypeError("an evaluated string of G* is read-only")
        if not (type(bit) is int or type(bit) is bool) or bit >> 1 or not n - 1 <= i <= n:
            raise ValidationError(f"pin on node {cid!r}: {bit!r} is not the next or newest bit")
        if i == n:
            bits.append(bit)
        else:
            bits[i] = bit

    def values(self):
        return iter(self._bits)

    def items(self):
        return _CompactItems(self)


class _CompactItems(ItemsView):
    """A CompactString's items, its ids zipped with its bytes."""

    __slots__ = ()

    def __iter__(self):
        x = self._mapping
        return zip(x, x._bits)


def _bit_shifts(visible):
    """Where each visible ancestor's bit sits in the index of a copy within
    its origin's block: the index is the bits read as a binary number, the
    first visible ancestor most significant, which is itertools.product
    order.  copy_of, the copies' signatures and their edges all read the
    numbering from here."""
    return dict(zip(visible, range(len(visible) - 1, -1, -1)))


def _offsets(places, start=0):
    """start + sum of bit_i * places[i], for every bit string in
    itertools.product order."""
    out = [start]
    # The last place is the least significant: each earlier one doubles the
    # list, its bit 0 on the first half and 1 on the second.
    for p in reversed(places):
        out += [*map(p.__add__, out)] if p else out
    return out


def _relatives(g, tree):
    """Per vertex of g, read off one set of descendant masks: its visible
    ancestors, those in the supervertices on its branch, in branch order,
    as the bit shifts of _bit_shifts; and its descendants above, those in
    supervertices strictly above its own on its branch.  The dummies, which
    pad each supervertex after its real members, are left out."""
    out = g.out_neighbors()
    bit = {nid: 1 << i for i, nid in enumerate(out)}
    desc = descendant_masks(out, out)
    real = {sv.id: [m for m in sv.members if m in bit] for sv in tree.supervertices}
    shifts, above = {}, {}
    for sv in tree.supervertices:
        branch = [real[svid] for svid in tree.branch(sv.id)]
        for member in real[sv.id]:
            below, me = desc[member], bit[member]
            shifts[member] = _bit_shifts(
                [other for members in branch for other in members if desc[other] & me]
            )
            above[member] = [
                other for members in branch[:-1] for other in members if below & bit[other]
            ]
    return shifts, above


def expected_expanded_size(tree):
    """Node count of the paper's conductor stage G'', which G*'s ids start
    from: 1 + sum over supervertices of s * 2^(s * depth)."""
    s = tree.uniform_size
    return 1 + sum(
        s * 2 ** (s * tree.depth_of(sv.id)) for sv in tree.supervertices
    )


def plan(g, tree):
    """What G* costs, from one pass per origin u, with no copy made: its
    node count `size`, its total `w_total` under the least admissible
    weighting, and a solve's threshold `budget`, ceil(log2(2W + 1)) + 1.
    With them come the tables build_compressed lays G* out from:
    `origins` by decreasing depth of their supervertex, then id, and per
    origin the bit `shifts` of its visible ancestors, its descendants
    `above` (both from one descendant-mask pass, _relatives) and its
    `least` weight.

    u has 2^|visible(u)| copies, each pointing to the conductor and, for
    each descendant v of u in the supervertices strictly above its own on
    its branch, to 2^|visible(v) - visible(u)| copies of v.  So all of u's
    copies get one least admissible weight, shallowest origins first:

        f(u) = 1 + c * (1 + sum over v above u of 2^|visible(v) - visible(u)| * f(v))

    with c = ADMISSIBILITY_C and f(t) = 1, and W = 1 + sum over origins u
    of f(u) * 2^|visible(u)|.
    """
    shifts, above = _relatives(g, tree)
    origins = sorted(shifts, key=lambda u: (-tree.depth_of(tree.supervertex_of(u)), u))
    least = {}
    for u in reversed(origins):
        least[u] = 1 + ADMISSIBILITY_C * (1 + sum(
            least[v] << len(shifts[v].keys() - shifts[u].keys()) for v in above[u]
        ))
    size = 1 + sum(1 << len(shifts[u]) for u in origins)
    w_total = 1 + sum(least[u] << len(shifts[u]) for u in origins)
    return SimpleNamespace(
        size=size, w_total=w_total, budget=(2 * w_total).bit_length() + 1, origins=origins,
        shifts=shifts, above=above, least=least,
    )


def build_compressed(g, tree):
    """Enumerate G* from signatures: one node per vertex u of g and
    assignment of bits to visible(u), with no conditioned copy built and
    none for the tree's dummies.

    Node u^sigma stands for the copies of u in G'' that agree with sigma on
    u's visible ancestors, and points to the conductor and to every copy of
    a descendant above u whose sigma' agrees with sigma on the ancestors
    both can see (see plan).  Ids are the conductor 0, then one block per
    origin, consecutive from expected_expanded_size(tree) in plan's order,
    with sigma in itertools.product order (see CompressedDag).  No copy's
    edges are built (see CompressedDag.out_neighbors).

    Returns G* and its least admissible weighting, a read-only mapping
    over G*'s ids that keeps plan's weight per origin (OriginWeights).
    """
    p = plan(g, tree)
    first = {}
    start = cid = expected_expanded_size(tree)
    for u in p.origins:
        first[u] = cid
        cid += 1 << len(p.shifts[u])
    above = {u: tuple(sorted(p.above[u], key=first.get)) for u in p.origins}
    gstar = CompressedDag(g, tree, first, p.shifts, above, range(start, cid))
    return gstar, OriginWeights(gstar, p.least)


def compute_output(gd, u, known, wire_values):
    """Answer bit of original vertex u, given the bits in `known` (a dict
    from original id to bit), which it fills with every bit it reads.

    The visible ancestors of u, then u itself, are read top-down: each one
    not yet known is the answer of the copy that the bits found so far
    select, its visible ancestors all coming earlier in that order.  A u
    in `known` is answered from it, reading no wire.  `wire_values` maps
    node ids of this compressed graph to answer bits, read by position
    (gd.positions); a missing entry is a construction bug and raises.
    """
    if u not in known:
        seq, base = gd.positions(wire_values)
        for v in [*gd.visible_ancestors(u), u]:
            if v not in known:
                cid = gd.copy_of(v, known)
                try:
                    bit = seq[cid - base]
                except (KeyError, IndexError):
                    raise WireValueError(f"no wire value for node {gd.label(cid)}") from None
                known[v] = 1 if bit else 0
    return known[u]


def lift_query_string(g, gstar, xstar):
    """Pull a correct query string for the compressed graph back to G.

    Each original vertex's bit is what compute_output returns when every
    wire lookup reads the corresponding bit of xstar, by position, in one
    shared dict.
    """
    known = {}
    return {nid: compute_output(gstar, nid, known, xstar) for nid in g.by_id}
