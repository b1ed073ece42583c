"""The exhaustive balanced-separator enumerator, kept as a test reference.

It tries every k-subset of the sorted vertices in itertools.combinations
order, by increasing k, and runs one breadth-first component search on what
each leaves.  querydag.separator._balanced_separators must yield exactly the
same separators, members and components, in the same order.
"""

from __future__ import annotations

import itertools

from querydag.separator import Separator, _balanced_components


def balanced_separators(vertices, adj, max_size):
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
