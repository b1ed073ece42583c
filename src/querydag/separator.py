"""Balanced separators and separator trees over the undirected skeleton.

Separator search is exact: balanced separators are enumerated by increasing
size, then lexicographically by sorted member ids, so all results are
deterministic.  The search runs on vertex bitmasks, built once per graph:
bit i stands for the i-th smallest id, a vertex's neighbours are one mask,
and a subgraph is the mask of its vertices.  The subsets sharing all
members but the last are judged together.  When there are many choices of
the last member, two breadth-first balls rule out most that cannot be
balanced: a separator's member lies in every ball of at most half + 1
vertices around any vertex of the big component (the lemma at
_balanced_separators).  Every candidate the balls keep is judged by a
flood fill of that component, and the components a separator leaves come
from the same flood fill.  Trees are padded with isolated dummy vertices
so every supervertex has the same size.
"""

from __future__ import annotations

import itertools
import json

from .errors import ValidationError
from .querygraph import Record

_FEW_CANDIDATES = 8  # see _balanced_separators


class Supervertex(Record):
    __slots__ = _FIELDS = ("id", "members", "parent")

    def __init__(self, id, members, parent):
        self.id = id
        self.members = members
        self.parent = parent  # int or None for the root


class SeparatorTree:
    """Rooted tree of uniform-size supervertices decomposing a graph."""

    def __init__(self, supervertices, uniform_size, dummies):
        self.supervertices = tuple(supervertices)
        self.uniform_size = uniform_size
        self.dummies = tuple(sorted(dummies))
        self.by_id = {sv.id: sv for sv in self.supervertices}
        self._home = {}
        for sv in self.supervertices:
            for pos, member in enumerate(sv.members):
                self._home[member] = (sv.id, pos)

    def branch(self, svid):
        """Supervertex ids on the superpath from the root down to svid."""
        path = [svid]
        for _ in self.supervertices:
            parent = self.by_id[path[-1]].parent
            if parent is None:
                return tuple(reversed(path))
            path.append(parent)
        raise ValidationError("parent pointers do not reach a root")

    def depth_of(self, svid):
        """Distance from the root plus one; the root has depth 1."""
        return len(self.branch(svid))

    def depth(self):
        return max(self.depth_of(sv.id) for sv in self.supervertices)

    def supervertex_of(self, member):
        return self._home[member][0]

    def position_of(self, member):
        return self._home[member][1]

    def to_doc(self):
        return {
            "uniform_size": self.uniform_size,
            "supervertices": [
                {"id": sv.id, "members": list(sv.members), "parent": sv.parent}
                for sv in self.supervertices
            ],
            "dummies": list(self.dummies),
        }

    def serialize(self):
        return json.dumps(self.to_doc(), sort_keys=True, separators=(",", ":")) + "\n"


def _component(rest, nbrs, half):
    """The component of the least vertex of the vertex mask `rest`, by a
    flood fill over bitmasks that stops, with part of it, once it has more
    than `half` vertices."""
    comp = frontier = rest & -rest
    while frontier:
        grow = 0
        while frontier:
            low = frontier & -frontier
            grow |= nbrs[low.bit_length() - 1]
            frontier ^= low
        frontier = grow & rest & ~comp
        comp |= frontier
        if comp.bit_count() > half:
            break
    return comp


def _oversized(rest, nbrs, half):
    """Part of the component of the vertex mask `rest` with more than `half`
    vertices, or 0 if there is none (callers keep |rest| <= 2 * half + 1, so
    at most one is that large).  Stops once a component outgrows `half`, or
    the vertices left cannot.
    """
    while rest.bit_count() > half:
        comp = _component(rest, nbrs, half)
        if comp.bit_count() > half:
            return comp
        rest ^= comp
    return 0


def _levels(start, rest, nbrs, limit, whole):
    """Flood the vertex mask `rest` level by level from the vertex bit
    `start`.  Returns the vertices reached, the largest ball around start
    of at most `limit` vertices, and the last level reached.  The flood
    covers start's whole component if `whole`, else it stops once the
    ball outgrows `limit`."""
    reach = ball = layer = start
    while layer:
        if reach.bit_count() <= limit:
            ball = reach
        elif not whole:
            break
        last = layer
        grow = 0
        while layer:
            low = layer & -layer
            grow |= nbrs[low.bit_length() - 1]
            layer ^= low
        layer = grow & rest & ~reach
        reach |= layer
    return reach, ball, last


def _near(rest, nbrs, half):
    """The component C of the vertex mask `rest` with more than `half`
    vertices, and the vertices of C in the largest ball of at most
    half + 1 vertices around its least vertex r and in the one around a
    vertex of C farthest from r; (0, rest) if there is no C.  Only these
    can leave no piece of C larger than half (see _balanced_separators).
    """
    left = rest
    while left.bit_count() > half:
        comp, near, last = _levels(left & -left, left, nbrs, half + 1, True)
        if comp.bit_count() > half:
            far = _levels(last & -last, comp, nbrs, half + 1, False)[1]
            return comp, near & far
        left ^= comp
    return 0, rest


def _parts(rest, nbrs):
    """The components of the vertex mask `rest`, as masks by least member."""
    parts = []
    while rest:
        comp = _component(rest, nbrs, len(nbrs))
        parts.append(comp)
        rest ^= comp
    return parts


def _balanced_separators(subset, nbrs, max_size):
    """Every balanced separator of size <= max_size of the vertex mask
    `subset`, in enumeration order: by increasing size, then
    lexicographically by sorted member bits (bits ascend with the ids).
    Yields the member bits and the masks of the components they leave, by
    least member.

    Removing k of the n vertices must leave no component of more than
    half = ceil((n - k) / 2) vertices, which forces two components when two
    or more are left.  The k-subsets sharing a (k-1)-prefix P are judged on
    G - P, where at most one component C is larger than half.  Each
    candidate b > max(P) passes if there is no C, and otherwise if b is in
    C and leaves no piece of C larger than half.

    Lemma: such a b lies, for every vertex r of C, in the largest ball
    around r (distances in C) of at most half + 1 vertices.  Proof: a
    shortest path from r to a vertex v != b with d(r, v) <= d(r, b) cannot
    pass through b, so r's piece of C - b holds the ball of radius d(r, b)
    around r except b; the piece has at most half vertices.

    Up to _FEW_CANDIDATES candidates are judged by a flood fill each.  With
    more, C is flooded by levels and only the candidates in the balls
    around its least vertex and a vertex farthest from that one are kept,
    and each of them is judged by a flood fill of C.  A separator is
    yielded, with its components, as soon as it is judged.
    """
    n = subset.bit_count()
    bits = ()  # the members prefixes draw on, listed from size 2 on
    for size in range(1, min(max_size, n) + 1):
        half = (n - size + 1) // 2
        if size == 2:
            bits = []
            left = subset
            while left:
                bits.append(left & -left)
                left ^= bits[-1]
        for prefix in itertools.combinations(bits, size - 1):
            rest = subset - sum(prefix)
            first = prefix[-1].bit_length() if prefix else 0
            later = rest >> first << first
            scope = rest  # candidates are judged on scope; 0 if all fit
            if later.bit_count() > _FEW_CANDIDATES:
                scope, near = _near(rest, nbrs, half)
                later &= near
            while later:
                bit = later & -later
                later ^= bit
                if not (scope and _oversized(scope ^ bit, nbrs, half)):
                    yield prefix + (bit,), _parts(rest ^ bit, nbrs)


def _pad(raw_supervertices, uniform_size, max_real_id):
    """Pad every supervertex to uniform_size with fresh isolated dummy ids."""
    dummies = []
    next_id = max_real_id + 1
    padded = []
    for svid, members, parent in raw_supervertices:
        members = list(members)
        while len(members) < uniform_size:
            dummies.append(next_id)
            members.append(next_id)
            next_id += 1
        padded.append(Supervertex(id=svid, members=tuple(members), parent=parent))
    return padded, dummies


def _search(subset, budget, nbrs, size_bound, memo):
    """A tree (members, kids) for the vertex mask `subset` within depth
    `budget`, or None.  A subset that fails under one separator is met
    again as a component under another above it, so each (subset, budget)
    pair is searched once, its result kept in `memo`, a dict that the
    caller owns and drops: no closure reaches it, so it leaves no garbage
    cycle behind."""
    key = (subset, budget)
    if key in memo:
        return memo[key]
    found = None
    for members, parts in _balanced_separators(subset, nbrs, size_bound):
        if budget == 1 and parts:
            continue
        kids = []
        for part in parts:
            sub = _search(part, budget - 1, nbrs, size_bound, memo)
            if sub is None:
                break
            kids.append(sub)
        else:
            found = (members, kids)
            break
    memo[key] = found
    return found


def _search_tree(g, depth_bound, size_bound):
    """Backtracking search for a separator tree of depth <= depth_bound whose
    separators have at most size_bound members.

    Vertex i is the i-th smallest id, and nbrs[i] is the mask of its
    neighbours in the undirected skeleton.  All balanced separators of size
    up to size_bound are tried at each level in enumeration order; a
    candidate is kept only if every remaining component admits a tree within
    the reduced depth budget.  Returns the unpadded (id, members, parent)
    triples, or None when no tree exists.
    """
    ids = sorted(g.by_id)
    index = {nid: i for i, nid in enumerate(ids)}
    nbrs = [0] * len(ids)
    for node in g.nodes:
        v = index[node.id]
        for parent in node.inputs:
            u = index[parent]
            nbrs[u] |= 1 << v
            nbrs[v] |= 1 << u

    found = _search((1 << len(ids)) - 1, depth_bound, nbrs, size_bound, {})
    if found is None:
        return None
    pos = {nid: i for i, nid in enumerate(g.topo_order())}
    raw = []
    # Pre-order, kids pushed in reverse so they are numbered in order.
    stack = [(found, None)]
    while stack:
        (members, kids), parent = stack.pop()
        svid = len(raw) + 1
        chosen = (ids[bit.bit_length() - 1] for bit in members)
        raw.append((svid, tuple(sorted(chosen, key=pos.__getitem__)), parent))
        stack += ((kid, svid) for kid in reversed(kids))
    return raw


def build_separator_tree(g):
    """Recursively decompose g by smallest balanced separators, then pad to
    the largest one.

    With depth and size bounds of |V| the search never backtracks: every
    subset fits its budget, so the smallest balanced separator (sizes tried
    from 1 up) is removed at every step and each component decomposed in
    turn.  Balance keeps the depth logarithmic.
    """
    raw = _search_tree(g, len(g.nodes), len(g.nodes))
    uniform = max(len(members) for _, members, _ in raw)
    padded, dummies = _pad(raw, uniform, max(g.by_id))
    return SeparatorTree(padded, uniform, dummies)


def build_depth_bounded_tree(g, depth_bound, size_bound):
    """Separator tree of depth <= D and separators of size <= s, padded to
    exactly `size_bound`, or None when no such tree exists.

    No separator holds more than |V| members, so a larger size bound could
    only add dummies and is rejected.
    """
    if depth_bound < 1 or size_bound < 1:
        raise ValidationError("depth and size bounds must be at least 1")
    if size_bound > len(g.nodes):
        raise ValidationError(
            f"size bound {size_bound} exceeds the graph's {len(g.nodes)} vertices"
        )
    raw = _search_tree(g, depth_bound, size_bound)
    if raw is None:
        return None
    padded, dummies = _pad(raw, size_bound, max(g.by_id))
    return SeparatorTree(padded, size_bound, dummies)
