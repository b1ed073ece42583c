"""Balanced separators and separator trees over the undirected skeleton.

Separator search is exact brute force: candidate subsets are enumerated by
increasing size, then lexicographically by sorted member ids, so all results
are deterministic.  Trees are padded with isolated dummy vertices so every
supervertex has the same size.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

from .errors import ValidationError
from .querygraph import topological_order


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

    def root_id(self):
        roots = [sv.id for sv in self.supervertices if sv.parent is None]
        if len(roots) != 1:
            raise ValidationError("separator tree must have exactly one root")
        return roots[0]

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


def _balanced_separators(vertices, adj, max_size):
    """Every balanced separator of size <= max_size of the vertex set, in
    enumeration order: by increasing size, then lexicographically by sorted
    member ids."""
    vertex_set = set(vertices)
    vertex_list = sorted(vertex_set)
    for size in range(1, min(max_size, len(vertex_list)) + 1):
        for combo in itertools.combinations(vertex_list, size):
            comps = _balanced_components(vertex_set, adj, combo)
            if comps is not None:
                yield Separator(members=combo, components=comps)


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


def build_separator_tree(g):
    """Recursively decompose g by smallest balanced separators, then pad.

    At every step the smallest balanced separator (sizes tried from 1 up) is
    removed and each connected component is decomposed recursively.  Balance
    keeps the depth logarithmic.
    """
    order = topological_order(g)
    pos = {nid: i for i, nid in enumerate(order)}
    adj = _adjacency(order, g.undirected_edges())
    raw = []

    def recurse(subset, parent):
        # The whole subset always qualifies, so a separator is always found.
        sep = next(_balanced_separators(subset, adj, len(subset)))
        svid = len(raw) + 1
        members = tuple(sorted(sep.members, key=pos.__getitem__))
        raw.append((svid, members, parent))
        for comp in sorted(sep.components, key=min):
            recurse(comp, svid)

    recurse(tuple(order), None)
    uniform = max(len(members) for _, members, _ in raw)
    padded, dummies = _pad(raw, uniform, max(g.by_id))
    return SeparatorTree(padded, uniform, dummies)


def build_depth_bounded_tree(g, depth_bound, size_bound):
    """Backtracking search for a separator tree of depth <= D and size <= s.

    All balanced separators of size up to `size_bound` are considered at each
    level; a candidate is kept only if every remaining component admits a
    tree within the reduced depth budget.  Returns None when no tree exists.
    Supervertices are padded to exactly `size_bound`.
    """
    if depth_bound < 1 or size_bound < 1:
        raise ValidationError("depth and size bounds must be at least 1")
    order = topological_order(g)
    pos = {nid: i for i, nid in enumerate(order)}
    adj = _adjacency(order, g.undirected_edges())

    def search(subset, budget):
        for sep in _balanced_separators(subset, adj, size_bound):
            if budget == 1 and sep.components:
                continue
            kids = []
            for comp in sorted(sep.components, key=min):
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
    order = topological_order(g)
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
