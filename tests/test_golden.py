"""Byte-identity of solver reports and CLI documents against recorded output.

Each line of data/golden.jsonl names a seeded instance (family, n, seed), one
run on it, and the SHA-256 and length of the exact text that run produced:
a serialized SolveReport with witness and transcript, or the exit code,
standard output and standard error of one `qw` subcommand.  Any change to an
answer, a weight, a query count, the order of oracle calls or a document
layout shows up here.

Regenerate the data only for an intended, documented output change:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import pathlib
import sys

import pytest

from querydag import (
    BruteForceBackend,
    EvaluationBackend,
    build_compressed,
    build_p,
    build_separator_tree,
    decide_compress,
    decide_depth,
    decide_direct,
    omega_weights,
    serialize_dag,
)
from querydag.cli import gen_instance, main

GOLDEN = pathlib.Path(__file__).parent / "data" / "golden.jsonl"

INSTANCES = (
    ("chain", 2, 1),
    ("chain", 5, 2),
    ("chain", 8, 3),
    ("star", 3, 4),
    ("star", 6, 5),
    ("layered", 4, 6),
    ("layered", 7, 7),
    ("random-sep", 3, 0),
    ("random-sep", 3, 2),
    ("random-sep", 4, 6),
    ("random-sep", 6, 10),
    ("random-sep", 8, 12),
)

# Exhaustive runs are recorded only where they stay fast.
BRUTE_FREE_BITS = 9
ARITH_VARS = 13


def run_case(family, n, seed, run):
    """The exact text one recorded run produces."""
    g = gen_instance(family, n, seed)
    if run[0] == "solve":
        _, method, backend = run
        if method == "direct":
            report = decide_direct(g, witness=True)
        else:
            decide = decide_compress if method == "compress" else decide_depth
            chosen = BruteForceBackend() if backend == "brute" else EvaluationBackend()
            report = decide(g, witness=True, backend=chosen)
        return report.serialize(include_transcript=True)
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(serialize_dag(g))
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(list(run[1:]) + ["-i", "-"])
    finally:
        sys.stdin = saved
    return f"rc={rc}\n--stdout--\n{out.getvalue()}--stderr--\n{err.getvalue()}"


def planned_runs(family, n, seed):
    g = gen_instance(family, n, seed)
    tree = build_separator_tree(g)
    gstar, _ = build_compressed(g, tree)
    runs = [("solve", "direct", None)]
    for method in ("compress", "depth"):
        runs.append(("solve", method, "eval"))
    if len(gstar.nodes) - len(gstar.fixed_bits()) <= BRUTE_FREE_BITS:
        runs.append(("solve", "compress", "brute"))
    if len(g.nodes) <= BRUTE_FREE_BITS:
        runs.append(("solve", "depth", "brute"))
    runs.append(("cli", "compress"))
    runs.append(("cli", "septree"))
    runs.append(
        ("cli", "septree", "--depth", str(tree.depth()), "--size", str(tree.uniform_size))
    )
    runs.append(("cli", "septree", "--depth", "1", "--size", "1"))
    if build_p(g, omega_weights(g, 2)).var_count <= ARITH_VARS:
        runs.append(("cli", "arith"))
    return runs


def _digest(text):
    data = text.encode()
    return hashlib.sha256(data).hexdigest(), len(data)


def _load():
    with open(GOLDEN) as fh:
        return [json.loads(line) for line in fh if line.strip()]


CASES = _load() if GOLDEN.exists() else []


def test_golden_data_is_present():
    assert len(CASES) >= 12 * 6
    assert {(c["family"], c["n"], c["seed"]) for c in CASES} == set(INSTANCES)


@pytest.mark.parametrize(
    "case", CASES, ids=[f"{c['family']}-{c['n']}-{c['seed']}:{'/'.join(str(p) for p in c['run'])}" for c in CASES]
)
def test_output_is_byte_identical(case):
    text = run_case(case["family"], case["n"], case["seed"], case["run"])
    assert _digest(text) == (case["sha256"], case["bytes"])


def regenerate():
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    with open(GOLDEN, "w") as fh:
        for family, n, seed in INSTANCES:
            for run in planned_runs(family, n, seed):
                sha, size = _digest(run_case(family, n, seed, run))
                row = {
                    "family": family, "n": n, "seed": seed, "run": list(run),
                    "sha256": sha, "bytes": size,
                }
                fh.write(json.dumps(row, sort_keys=True) + "\n")


if __name__ == "__main__":
    regenerate()
