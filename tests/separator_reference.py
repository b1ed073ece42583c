"""A set-based reference for balanced separators and separator trees.

querydag.separator searches on vertex bitmasks.  This module does the same
work on plain sets, with nothing shared: an exhaustive enumerator that tries
every k-subset of the sorted vertices in itertools.combinations order, by
increasing k, and runs one component search on what each leaves; and the
full invariant check of a separator tree, the test oracle for both tree
builders.  The mask enumerator of querydag.separator must yield exactly the
separators, members and components of balanced_separators, in the same
order.
"""

from __future__ import annotations

import itertools


def adjacency(vertices, edges):
    adj = {v: set() for v in vertices}
    for a, b in edges:
        if a in adj and b in adj and a != b:
            adj[a].add(b)
            adj[b].add(a)
    return adj


def skeleton(g):
    """Adjacency sets of the undirected skeleton of the query graph g."""
    return adjacency(g.by_id, [(p, node.id) for node in g.nodes for p in node.inputs])


def components(allowed, adj):
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


def balanced_components(vertex_set, adj, members):
    """Components left by removing `members`, or None if not a balanced separator."""
    rest = vertex_set - set(members)
    comps = components(rest, adj)
    if len(rest) > 1 and len(comps) < 2:
        return None
    threshold = -(-(len(vertex_set) - len(members)) // 2)  # ceil
    for comp in comps:
        if len(comp) > threshold:
            return None
    return comps


def balanced_separators(vertices, adj, max_size):
    """Every balanced separator of size <= max_size of the vertex set, as
    (members, components) pairs in enumeration order: by increasing size,
    then lexicographically by sorted member ids."""
    vertex_set = set(vertices)
    vertex_list = sorted(vertex_set)
    for size in range(1, min(max_size, len(vertex_list)) + 1):
        for combo in itertools.combinations(vertex_list, size):
            comps = balanced_components(vertex_set, adj, combo)
            if comps is not None:
                yield combo, comps


def children(tree):
    """Map from each supervertex id to the ids of its children, in tree order."""
    kids = {sv.id: [] for sv in tree.supervertices}
    for sv in tree.supervertices:
        if sv.parent in kids:
            kids[sv.parent].append(sv.id)
    return {svid: tuple(ids) for svid, ids in kids.items()}


def subtree_members(tree, kids, svid):
    """All graph vertices assigned to the subtree rooted at svid, given the
    children map `kids` of the tree."""
    out = []
    stack = [svid]
    while stack:
        cur = stack.pop()
        out.extend(tree.by_id[cur].members)
        stack.extend(kids[cur])
    return frozenset(out)


def verify_separator_tree(g, tree):
    """Full invariant check of a separator tree of g."""
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
    kids = children(tree)
    seen = set()
    stack = [roots[0]]
    while stack:
        cur = stack.pop()
        if cur in seen:
            return False
        seen.add(cur)
        stack.extend(kids[cur])
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
    # Recursive separation: the real members of each supervertex are a
    # balanced separator of the real vertices of its subtree, and children
    # carry exactly one connected component each.  Dummies are left out:
    # as isolated vertices they would count towards the balance threshold
    # and let an unbalanced separator pass.
    adj = skeleton(g)
    stack = [roots[0]]
    while stack:
        svid = stack.pop()
        subtree = subtree_members(tree, kids, svid) & real
        members = set(tree.by_id[svid].members) & real
        comps = balanced_components(subtree, adj, members)
        if comps is None:
            return False
        child_real = []
        for child in kids[svid]:
            part = tuple(sorted(subtree_members(tree, kids, child) & real))
            child_real.append(part)
        if sorted(child_real) != sorted(comps):
            return False
        stack.extend(kids[svid])
    return True
