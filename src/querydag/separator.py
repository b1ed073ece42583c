"""Balanced separators and separator trees over the undirected skeleton.

Separator search is exact: balanced separators are enumerated by increasing
size, then lexicographically by sorted member ids, so all results are
deterministic.  The subsets sharing all members but the last are judged
together, by flood fills over vertex bitmasks or by one cut-vertex pass.
Trees are padded with isolated dummy vertices so every supervertex has the
same size.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

from .errors import ValidationError

_FEW_CANDIDATES = 8  # see _balanced_separators


@dataclass(frozen=True)
class Separator:
    """A vertex set whose removal disconnects the graph (or nearly empties it)."""

    members: tuple
    components: tuple


@dataclass(frozen=True)
class Supervertex:
    id: int
    members: tuple
    parent: object  # int or None for the root


class SeparatorTree:
    """Rooted tree of uniform-size supervertices decomposing a graph."""

    def __init__(self, supervertices, uniform_size, dummies):
        self.supervertices = tuple(supervertices)
        self.uniform_size = uniform_size
        self.dummies = tuple(sorted(dummies))
        self.by_id = {sv.id: sv for sv in self.supervertices}
        self._children = {sv.id: [] for sv in self.supervertices}
        for sv in self.supervertices:
            if sv.parent is not None and sv.parent in self._children:
                self._children[sv.parent].append(sv.id)
        self._home = {}
        for sv in self.supervertices:
            for pos, member in enumerate(sv.members):
                self._home[member] = (sv.id, pos)
        self._branch = {}

    def children_of(self, svid):
        return tuple(self._children[svid])

    def branch(self, svid):
        """Supervertex ids on the superpath from the root down to svid."""
        if svid in self._branch:
            return self._branch[svid]
        path = []
        cur = svid
        for _ in range(len(self.supervertices) + 1):
            path.append(cur)
            parent = self.by_id[cur].parent
            if parent is None:
                break
            cur = parent
        else:
            raise ValidationError("parent pointers do not reach a root")
        result = tuple(reversed(path))
        self._branch[svid] = result
        return result

    def depth_of(self, svid):
        """Distance from the root plus one; the root has depth 1."""
        return len(self.branch(svid))

    def depth(self):
        return max(self.depth_of(sv.id) for sv in self.supervertices)

    def supervertex_of(self, member):
        return self._home[member][0]

    def position_of(self, member):
        return self._home[member][1]

    def subtree_members(self, svid):
        """All graph vertices assigned to the subtree rooted at svid."""
        out = []
        stack = [svid]
        while stack:
            cur = stack.pop()
            out.extend(self.by_id[cur].members)
            stack.extend(self._children[cur])
        return frozenset(out)

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


def _adjacency(vertices, edges):
    adj = {v: set() for v in vertices}
    for a, b in edges:
        if a in adj and b in adj and a != b:
            adj[a].add(b)
            adj[b].add(a)
    return adj


def _components(allowed, adj):
    """Connected components of the vertices in `allowed`, sorted canonically."""
    allowed = set(allowed)
    comps = []
    seen = set()
    for start in sorted(allowed):
        if start in seen:
            continue
        comp = []
        stack = [start]
        seen.add(start)
        while stack:
            v = stack.pop()
            comp.append(v)
            for w in adj.get(v, ()):
                if w in allowed and w not in seen:
                    seen.add(w)
                    stack.append(w)
        comps.append(tuple(sorted(comp)))
    return tuple(sorted(comps))


def _balanced_components(vertex_set, adj, members):
    """Components left by removing `members`, or None if not a balanced separator."""
    rest = vertex_set - set(members)
    comps = _components(rest, adj)
    if len(rest) > 1 and len(comps) < 2:
        return None
    threshold = -(-(len(vertex_set) - len(members)) // 2)  # ceil
    for comp in comps:
        if len(comp) > threshold:
            return None
    return comps


def _oversized(rest, nbrs, half):
    """Part of the component of the vertex mask `rest` with more than `half`
    vertices, or 0 if there is none (callers keep |rest| <= 2 * half + 1, so
    at most one is that large).  A flood fill over bitmasks that stops once
    a component outgrows `half`, or the vertices left cannot.
    """
    while rest.bit_count() > half:
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
                return comp
        rest ^= comp
    return 0


def _cut_fits(rest, root, nbrs, half):
    """Mask of the vertices b of root's component C in the vertex mask `rest`
    that leave no piece of C - b with more than `half` vertices.

    One iterative DFS for cut vertices (Hopcroft-Tarjan), lowpoints kept as
    masks: reach[v] holds the vertices seen earlier that v's subtree is
    adjacent to.  A child c of b whose reach misses the path above b is a
    piece of its own; what is left of C beside b and them is one more.
    """
    n = len(nbrs)
    reach, cut, top, size = [0] * n, [0] * n, [0] * n, [1] * n
    seen = path = 1 << root
    stack = [root]
    while stack:
        v = stack[-1]
        todo = nbrs[v] & rest & ~seen
        if todo:
            bit = todo & -todo
            w = bit.bit_length() - 1
            reach[w] = nbrs[w] & seen
            seen |= bit
            path |= bit
            stack.append(w)
            continue
        stack.pop()
        path ^= 1 << v
        if stack:
            p = stack[-1]
            size[p] += size[v]
            if reach[v] & (path ^ 1 << p):
                reach[p] |= reach[v]
            else:
                cut[p] += size[v]
                top[p] = max(top[p], size[v])
    left = seen.bit_count() - 1
    return sum(1 << b for b in range(n) if seen >> b & 1 and max(top[b], left - cut[b]) <= half)


def _balanced_separators(vertices, adj, max_size):
    """Every balanced separator of size <= max_size of the vertex set, in
    enumeration order: by increasing size, then lexicographically by sorted
    member ids.

    Removing k of the n vertices must leave no component of more than
    half = ceil((n - k) / 2) vertices, which forces two components when two
    or more are left.  The k-subsets sharing a (k-1)-prefix P are judged on
    G - P, where at most one component C is larger than half.  Each
    candidate b > max(P) passes if there is no C, and otherwise if b is in
    C and leaves no piece of C larger than half.  Up to _FEW_CANDIDATES
    candidates are checked by a flood fill each; more, by one cut-vertex
    pass over C.  Components are listed only for the separators yielded.
    """
    vertex_set = set(vertices)
    ids = sorted(vertex_set)
    index = {v: i for i, v in enumerate(ids)}
    nbrs = [sum(1 << index[w] for w in adj.get(v, ()) if w in index) for v in ids]
    n = len(ids)
    bits = [1 << i for i in range(n)]
    for size in range(1, min(max_size, n) + 1):
        half = (n - size + 1) // 2
        for prefix in itertools.combinations(bits, size - 1):
            first = prefix[-1].bit_length() if prefix else 0
            rest = (1 << n) - 1 - sum(prefix)
            if n - first <= _FEW_CANDIDATES:
                fits = 0
                for bit in bits[first:]:
                    if not _oversized(rest ^ bit, nbrs, half):
                        fits |= bit
            else:
                big = _oversized(rest, nbrs, half)
                fits = rest >> first << first
                if big:
                    fits &= _cut_fits(rest, (big & -big).bit_length() - 1, nbrs, half)
            while fits:
                bit = fits & -fits
                fits ^= bit
                members = tuple(ids[b.bit_length() - 1] for b in prefix + (bit,))
                yield Separator(members, _components(vertex_set.difference(members), adj))


def find_balanced_separator(vertices, edges, max_size):
    """First balanced separator of size <= max_size in enumeration order, or
    None when no such separator exists."""
    if max_size < 1:
        raise ValidationError("max_size must be at least 1")
    vertices = set(vertices)
    adj = _adjacency(vertices, edges)
    return next(_balanced_separators(vertices, adj, max_size), None)


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


def _search_tree(g, depth_bound, size_bound):
    """Backtracking search for a separator tree of depth <= depth_bound whose
    separators have at most size_bound members.

    All balanced separators of size up to size_bound are tried at each level
    in enumeration order; a candidate is kept only if every remaining
    component admits a tree within the reduced depth budget.  Returns the
    unpadded (id, members, parent) triples, or None when no tree exists.
    """
    order = g.topo_order()
    pos = {nid: i for i, nid in enumerate(order)}
    adj = _adjacency(order, g.undirected_edges())

    def search(subset, budget):
        for sep in _balanced_separators(subset, adj, size_bound):
            if budget == 1 and sep.components:
                continue
            kids = []
            for comp in sep.components:
                sub = search(comp, budget - 1)
                if sub is None:
                    break
                kids.append(sub)
            else:
                return (sep.members, kids)
        return None

    found = search(tuple(order), depth_bound)
    if found is None:
        return None
    raw = []

    def assign(tree, parent):
        members, kids = tree
        svid = len(raw) + 1
        raw.append((svid, tuple(sorted(members, key=pos.__getitem__)), parent))
        for kid in kids:
            assign(kid, svid)

    assign(found, None)
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


def verify_separator_tree(g, tree):
    """Full invariant check; the test oracle for both builders."""
    real = set(g.by_id)
    dummy = set(tree.dummies)
    if real & dummy:
        return False
    # Tree structure: one root, every supervertex reachable from it.
    roots = [sv.id for sv in tree.supervertices if sv.parent is None]
    if len(roots) != 1:
        return False
    if len(tree.by_id) != len(tree.supervertices):
        return False
    seen = set()
    stack = [roots[0]]
    while stack:
        cur = stack.pop()
        if cur in seen:
            return False
        seen.add(cur)
        stack.extend(tree.children_of(cur))
    if seen != set(tree.by_id):
        return False
    # Members partition V plus dummies.
    all_members = [m for sv in tree.supervertices for m in sv.members]
    if len(all_members) != len(set(all_members)):
        return False
    if set(all_members) != real | dummy:
        return False
    # Uniform size.
    if any(len(sv.members) != tree.uniform_size for sv in tree.supervertices):
        return False
    # Member order must follow the fixed topological order, dummies last by id.
    order = g.topo_order()
    ext = {nid: i for i, nid in enumerate(order)}
    for i, d in enumerate(sorted(dummy)):
        ext[d] = len(order) + i
    for sv in tree.supervertices:
        ranks = [ext[m] for m in sv.members]
        if ranks != sorted(ranks):
            return False
    # Recursive separation: each supervertex is a balanced separator of the
    # subgraph induced on its subtree, and children carry exactly one real
    # connected component each.
    adj = _adjacency(real, g.undirected_edges())
    stack = [roots[0]]
    while stack:
        svid = stack.pop()
        subtree = tree.subtree_members(svid)
        members = set(tree.by_id[svid].members)
        comps = _balanced_components(subtree, adj, members)
        if comps is None:
            return False
        real_comps = {comp for comp in comps if set(comp) & real}
        child_real = []
        for child in tree.children_of(svid):
            part = tuple(sorted(tree.subtree_members(child) & real))
            child_real.append(part)
        if sorted(child_real) != sorted(real_comps):
            return False
        stack.extend(tree.children_of(svid))
    return True
