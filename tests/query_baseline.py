"""The exact query counts of both decision methods, committed and checked.

Query counts, budgets, |G*| and bit_length(W) are exact, so one run
records them.  Every input is solved in witness mode with decide_compress
and with decide_depth, and each solve gives:

- `budget`: ceil(log2(2W + 1)) + 1;
- `queries`: the threshold queries of the decision, search and final query;
- `threshold_queries`: those and the witness's pinned queries;
- `gstar_nodes`: |G*| (compress only), from compress.plan;
- `w_bits`: bit_length(W);
- `proof_queries` and `proof_distinct`: the proof calls issued, and the
  distinct (node, inputs) decisions among them.

The inputs:

- the four benchmark workloads at seeds 1-3, with the documents of
  perfbench/gen.py, each set summed over its instances;
- the 1000-instance corpus of tests/test_acceptance.py, summed;
- the eight clause-free graphs of ROADMAP item 4's table, one row each.

The rows go to BENCH_queries.json at the repository root.  --check
compares them with that file and names every row that moved; --write
records them.  Not a pytest module; run it directly:

    python tests/query_baseline.py            # print the rows
    python tests/query_baseline.py --check    # exit 1 unless they match
    python tests/query_baseline.py --write    # record an intended change
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE), str(ROOT / "perfbench")]

import gen  # noqa: E402
from instances import random_instance  # noqa: E402
from querydag import build_separator_tree, parse_dag  # noqa: E402
from querydag.compress import plan  # noqa: E402
from querydag.solver import decide_compress, decide_depth  # noqa: E402
from test_septree_digest import band_dag, binary_in_tree, dag_from_inputs, grid_dag  # noqa: E402

RECORDED = ROOT / "BENCH_queries.json"
SEEDS = (1, 2, 3)
CORPUS = range(1000)
METHODS = {"compress": decide_compress, "depth": decide_depth}
FIELDS = (
    "budget", "queries", "threshold_queries", "gstar_nodes", "w_bits", "proof_queries",
    "proof_distinct",
)


def chain_dag(n):
    return dag_from_inputs({i: [i - 1] if i > 1 else [] for i in range(1, n + 1)}, n)


# ROADMAP item 4's table, in its order.
GRAPHS = {
    "chain-256": lambda: chain_dag(256),
    "bintree-255": lambda: binary_in_tree(255),
    "band2-48": lambda: band_dag(48, 2),
    "band3-48": lambda: band_dag(48, 3),
    "band3-96": lambda: band_dag(96, 3),
    "band4-40": lambda: band_dag(40, 4),
    "grid-3x12": lambda: grid_dag(3, 12),
    "grid-4x8": lambda: grid_dag(4, 8),
}


def counts(method, g):
    """The fields of one witness-mode solve of g."""
    report = METHODS[method](g, witness=True)
    stats = report.stats
    return {
        "budget": report.budget,
        "queries": report.queries,
        "threshold_queries": stats.threshold_queries,
        "gstar_nodes": plan(g, build_separator_tree(g)).size if method == "compress" else None,
        "w_bits": report.w_total.bit_length(),
        "proof_queries": stats.proof_queries,
        "proof_distinct": stats.proof_distinct,
    }


def totals(method, graphs):
    """The fields of every graph's solve, summed; `instances` counts them."""
    out = dict.fromkeys(FIELDS, 0)
    out["instances"] = 0
    for g in graphs:
        out["instances"] += 1
        for field, value in counts(method, g).items():
            out[field] = None if value is None else out[field] + value
    return out


def rows():
    """Every recorded row, keyed "<input>/<method>"."""
    out = {}
    for workload in sorted(gen.SHAPES):
        for seed in SEEDS:
            docs = [doc for _, doc in gen.workload_docs(workload, seed)]
            for method in METHODS:
                out[f"{workload}-s{seed}/{method}"] = totals(method, map(parse_dag, docs))
    for method in METHODS:
        out[f"corpus/{method}"] = totals(method, map(random_instance, CORPUS))
    for name, make in GRAPHS.items():
        for method in METHODS:
            out[f"{name}/{method}"] = counts(method, make())
    return out


def cli(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--check", action="store_true", help="compare with the recorded file")
    mode.add_argument("--write", action="store_true", help="record the file")
    args = parser.parse_args(argv)
    text = json.dumps(rows(), indent=1, sort_keys=True) + "\n"
    if args.write:
        RECORDED.write_text(text)
    elif args.check:
        recorded, now = json.loads(RECORDED.read_text()), json.loads(text)
        moved = sorted(k for k in recorded.keys() | now.keys() if recorded.get(k) != now.get(k))
        for key in moved:
            print(f"{RECORDED.name}: {key}: {recorded.get(key)} -> {now.get(key)}", file=sys.stderr)
        if moved:
            return 1
    print(text, end="")
    return 0


if __name__ == "__main__":
    sys.exit(cli())
