"""Byte-identity of separator trees on shapes the random corpus lacks.

The 1000-instance corpus holds graphs of at most eight nodes.  This check
hashes `SeparatorTree.serialize()` of build_separator_tree over larger and
denser seeded graphs, where the enumeration order of balanced separators
decides which tree is built:

- dense DAGs, edge probability 0.6, n = 8-14 (seeds 0-6);
- band-3 DAGs (node i reads i-3..i-1), n = 12-30;
- the complete binary in-tree of 31 nodes;
- the four band-2 shapes of the band2-compress workload (n = 20, 24, 26, 28).

The SHA-256 of all trees is compared with data/septree.sha256.  Run
directly, the module prints the digest; --check compares it with the
recorded one, and only --write records it, for an intended, documented
change of the trees:

    PYTHONPATH=src python tests/test_septree_digest.py            # print the digest
    PYTHONPATH=src python tests/test_septree_digest.py --check    # exit 1 unless it matches
    PYTHONPATH=src python tests/test_septree_digest.py --write    # record an intended change
"""

from __future__ import annotations

import argparse
import hashlib
import pathlib
import random
import sys

from querydag import build_dag, build_separator_tree

RECORDED = pathlib.Path(__file__).parent / "data" / "septree.sha256"


def dag_from_inputs(inputs, output):
    """A DAG whose node i reads inputs[i]."""
    return build_dag([(i, "verifier", ins, 0, []) for i, ins in inputs.items()], output)


def dense_dag(n, seed, p=0.6):
    """Every pair j < i is an edge j -> i with probability p; a node left
    without a reader feeds the output n."""
    rng = random.Random(seed)
    inputs = {i: [j for j in range(1, i) if rng.random() < p] for i in range(1, n + 1)}
    read = {j for ins in inputs.values() for j in ins}
    inputs[n] += [j for j in range(1, n) if j not in read]
    return dag_from_inputs(inputs, n)


def band_dag(n, width):
    return dag_from_inputs({i: list(range(max(1, i - width), i)) for i in range(1, n + 1)}, n)


def binary_in_tree(n):
    """Heap numbering: node h reads 2h and 2h + 1; node 1 is the output."""
    return dag_from_inputs({h: [c for c in (2 * h, 2 * h + 1) if c <= n] for h in range(1, n + 1)}, 1)


def grid_dag(rows, cols):
    """Row-major numbering from 1: each node reads its left and upper
    neighbours; the last node is the output."""
    return dag_from_inputs(
        {
            r * cols + c + 1: [r * cols + c] * (c > 0) + [(r - 1) * cols + c + 1] * (r > 0)
            for r in range(rows)
            for c in range(cols)
        },
        rows * cols,
    )


def corpus():
    for seed, n in enumerate(range(8, 15)):
        yield dense_dag(n, seed)
    for n in range(12, 31, 3):
        yield band_dag(n, 3)
    yield binary_in_tree(31)
    for n in (20, 24, 26, 28):
        yield band_dag(n, 2)


def septree_digest():
    h = hashlib.sha256()
    for g in corpus():
        h.update(build_separator_tree(g).serialize().encode())
    return h.hexdigest()


def test_septree_documents_are_byte_identical():
    assert septree_digest() == RECORDED.read_text().strip()


def cli(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--check", action="store_true", help="compare with the recorded digest")
    mode.add_argument("--write", action="store_true", help="record the digest")
    args = parser.parse_args(argv)
    digest = septree_digest()
    failed = False
    if args.write:
        RECORDED.write_text(digest + "\n")
    elif args.check:
        recorded = RECORDED.read_text().strip()
        if digest != recorded:
            print(f"{RECORDED.name}: digest {digest} != recorded {recorded}", file=sys.stderr)
            failed = True
    print(digest)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(cli())
