"""Command-line front end: instance generation, pipelines, benchmarking.

All documents are JSON; big integers and rationals travel as decimal
strings.  Machine-readable output goes to -o (default standard output); the
bench subcommand additionally prints an aligned table on standard error.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from .compress import build_compressed, expected_expanded_size
from .errors import GenerationError, ParseError, QueryDagError
from .oracle import BruteForceBackend, EvaluationBackend, ProofOracle
from .querygraph import (
    VERIFIER,
    build_dag,
    decimal_str,
    evaluate,
    parse_dag,
    serialize_dag,
)
from .separator import build_depth_bounded_tree, build_separator_tree
from .solver import decide_compress, decide_depth, decide_direct
from .weighting import omega_weights, weight_report

FAMILIES = ("chain", "star", "layered", "random-sep")

# Every decision method, called as decide(g, witness=..., backend=...,
# transcript=...).
DECIDERS = {
    "compress": decide_compress,
    "depth": decide_depth,
    "direct": lambda g, witness=False, backend=None, transcript=False: decide_direct(
        g, witness=witness, transcript=transcript
    ),
}


def _random_clauses(rng, var_count):
    clauses = []
    for _ in range(rng.randint(1, 3)):
        clause = []
        for _ in range(rng.randint(1, 3)):
            var = rng.randint(1, var_count)
            clause.append(var if rng.random() < 0.5 else -var)
        clauses.append(clause)
    return clauses


def _node(rng, nid, inputs):
    proof_vars = rng.randint(1, 2)
    clauses = _random_clauses(rng, len(inputs) + proof_vars)
    return (nid, VERIFIER, list(inputs), proof_vars, clauses)


def gen_instance(family, n, seed, sep_bound=2):
    """Deterministic instance of the requested family and size.

    chain: a directed path.  star: all leaves feed the output.  layered: a
    two-level in-tree (bounded depth, separator size 1), a chain for
    n <= 2.  random-sep: random forward edges, resampled until the balanced
    separator tree the builder finds has supervertices of size at most
    sep_bound.
    """
    if family not in FAMILIES:
        raise GenerationError(f"unknown family {family!r}")
    if n < 1:
        raise GenerationError("n must be at least 1")
    rng = random.Random(seed)
    if family == "chain" or (family == "layered" and n <= 2):
        specs = [_node(rng, i, [i - 1] if i > 1 else []) for i in range(1, n + 1)]
        return build_dag(specs, n)
    if family == "star":
        specs = [_node(rng, i, []) for i in range(1, n)]
        specs.append(_node(rng, n, list(range(1, n))))
        return build_dag(specs, n)
    if family == "layered":
        mid_count = max(1, round((n - 1) ** 0.5))
        source_count = n - 1 - mid_count
        sources = list(range(1, source_count + 1))
        mids = list(range(source_count + 1, source_count + mid_count + 1))
        specs = []
        mid_inputs = {m: [] for m in mids}
        for s in sources:
            mid_inputs[rng.choice(mids)].append(s)
            specs.append(_node(rng, s, []))
        for m in mids:
            specs.append(_node(rng, m, mid_inputs[m]))
        specs.append(_node(rng, n, mids))
        return build_dag(specs, n)
    for _ in range(200):
        # Forward edges keep the graph acyclic; every non-final node gets at
        # least one target, so node n is the unique sink.
        incoming = {i: [] for i in range(1, n + 1)}
        for i in range(1, n):
            count = 1 if rng.random() < 0.7 else min(2, n - i)
            for target in sorted(rng.sample(range(i + 1, n + 1), count)):
                incoming[target].append(i)
        specs = [_node(rng, i, sorted(incoming[i])) for i in range(1, n + 1)]
        g = build_dag(specs, n)
        tree = build_separator_tree(g)
        if tree.uniform_size <= sep_bound:
            return g
    raise GenerationError(
        f"no instance with separator bound {sep_bound} found in 200 attempts"
    )


def _emit(doc, out_path):
    text = doc if isinstance(doc, str) else json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if out_path is None or out_path == "-":
        sys.stdout.write(text)
    else:
        with open(out_path, "w") as fh:
            fh.write(text)


def _read_instance(path):
    try:
        if path is None or path == "-":
            text = sys.stdin.read()
        else:
            with open(path) as fh:
                text = fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"instance is not text: {exc}") from exc
    return parse_dag(text)


def _backend(args):
    if args.backend == "brute":
        return BruteForceBackend(cap=args.cap)
    return EvaluationBackend()


def _cmd_gen(args):
    g = gen_instance(args.family, args.n, args.seed, args.sep_bound)
    _emit(serialize_dag(g), args.output)
    return 0


def _cmd_evaluate(args):
    g = _read_instance(args.input)
    proof_oracle = ProofOracle()
    bits = evaluate(g, proof_oracle)
    doc = {
        "order": g.topo_order(),
        "bits": {str(k): v for k, v in sorted(bits.items())},
        "answer": bits[g.output],
        "proof_queries": proof_oracle.stats.proof_queries,
    }
    _emit(doc, args.output)
    return 0


def _cmd_septree(args):
    g = _read_instance(args.input)
    if args.depth is not None or args.size is not None:
        if args.depth is None or args.size is None:
            raise QueryDagError("depth-bounded trees need both --depth and --size")
        tree = build_depth_bounded_tree(g, args.depth, args.size)
        if tree is None:
            raise QueryDagError(
                f"no separator tree of depth {args.depth} with size {args.size}"
            )
    else:
        tree = build_separator_tree(g)
    _emit(tree.to_doc(), args.output)
    return 0


def _cmd_compress(args):
    g = _read_instance(args.input)
    tree = build_separator_tree(g)
    gstar, fstar = build_compressed(g, tree)
    doc = {
        "septree": tree.to_doc(),
        "expanded_size": expected_expanded_size(tree),
        "compressed": gstar.to_doc(fstar),
        "weight_report": weight_report(fstar),
    }
    _emit(doc, args.output)
    return 0


def _cmd_solve(args):
    g = _read_instance(args.input)
    report = DECIDERS[args.method](
        g, witness=args.witness, backend=_backend(args), transcript=args.transcript
    )
    _emit(report.to_doc(), args.output)
    return 0


def _cmd_arith(args):
    # Imported here, so that the other subcommands never load it.
    from . import arithmetize

    g = _read_instance(args.input)
    weights = omega_weights(g)
    built = arithmetize.build_p(g, weights)
    best, vertex = arithmetize.brute_force_max(
        built.circuit, built.var_count, cap=args.cap
    )
    x = arithmetize.extract_from_optimum(g, built, vertex)
    audit = arithmetize.audit_weak_compression(g)
    doc = {
        "var_count": built.var_count,
        "circuit_size": built.circuit.size(),
        "max": f"{decimal_str(best.numerator)}/{decimal_str(best.denominator)}",
        # 2p is an integer at every vertex.
        "max_scaled": decimal_str(int(2 * best)),
        "witness_vertex": "".join(str(b) for b in vertex),
        "query_string": {str(k): v for k, v in sorted(x.items())},
        "audit": {
            "B": audit.bits,
            "h_target": audit.bits,
            "queries_used": audit.queries_used,
            "budget": audit.bits + 1,
        },
    }
    if args.dump_circuit:
        doc["circuit"] = built.circuit.to_doc()
    _emit(doc, args.output)
    return 0


def run_bench(*, family, sizes, sep_bound, repetitions, seed, method="compress"):
    """One row per (size, repetition) of `family`: tree parameters, weight,
    query counts.  Repetition rep of size n solves the instance generated
    with seed `seed + 1000 * rep + n` and separator bound `sep_bound`."""
    rows = []
    for n in sizes:
        for rep in range(repetitions):
            instance_seed = seed + 1000 * rep + n
            g = gen_instance(family, n, instance_seed, sep_bound)
            tree = build_separator_tree(g)
            report = DECIDERS[method](g)
            rows.append(
                {
                    "family": family,
                    "n": n,
                    "rep": rep,
                    "seed": instance_seed,
                    "s": tree.uniform_size,
                    "D": tree.depth(),
                    "W": None
                    if report.w_total is None
                    else decimal_str(report.w_total),
                    "queries": report.queries
                    if report.method != "direct"
                    else report.stats.proof_queries,
                    "budget": report.budget,
                    "answer": report.answer,
                    "method": report.method,
                }
            )
    return rows


def _format_table(rows):
    headers = ["family", "n", "rep", "s", "D", "W", "queries", "budget", "answer"]
    table = [[str(row[h]) for h in headers] for row in rows]
    widths = [
        max(len(h), *(len(line[i]) for line in table)) if table else len(h)
        for i, h in enumerate(headers)
    ]
    out = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))]
    for line in table:
        out.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(line)))
    return "\n".join(out) + "\n"


def _sizes(text):
    """The --sizes argument: comma-separated integers."""
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _reps(text):
    """The --reps argument: a positive integer."""
    try:
        reps = int(text)
    except ValueError:
        reps = 0
    if reps < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return reps


def _cmd_bench(args):
    rows = run_bench(
        family=args.family,
        sizes=args.sizes,
        sep_bound=args.sep_bound,
        repetitions=args.reps,
        seed=args.seed,
        method=args.method,
    )
    sys.stderr.write(_format_table(rows))
    _emit({"rows": rows}, args.output)
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="qw", description="Decide NP query graphs with few oracle queries."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_input=True):
        if needs_input:
            p.add_argument("-i", "--input", default=None, help="instance file")
        p.add_argument("-o", "--output", default=None, help="output file")

    p = sub.add_parser("gen", help="generate a seeded instance")
    p.add_argument("--family", choices=FAMILIES, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sep-bound", type=int, default=2)
    common(p, needs_input=False)

    p = sub.add_parser("evaluate", help="reference evaluation trace")
    common(p)

    p = sub.add_parser("septree", help="balanced or depth-bounded separator tree")
    p.add_argument("--depth", type=int, default=None)
    p.add_argument("--size", type=int, default=None)
    common(p)

    p = sub.add_parser("compress", help="compressed graph dump and weight report")
    common(p)

    p = sub.add_parser("solve", help="decide an instance")
    p.add_argument("--method", choices=tuple(DECIDERS), default="compress")
    p.add_argument("--witness", action="store_true")
    p.add_argument("--transcript", action="store_true")
    p.add_argument("--backend", choices=("eval", "brute"), default="eval")
    p.add_argument(
        "--cap", type=int, default=20, help="free-bit cap, brute backend only"
    )
    common(p)

    p = sub.add_parser("arith", help="polynomial build, brute-force max, audit")
    # One circuit evaluation per point: 16 variables take seconds, 24 about
    # twenty minutes.
    p.add_argument("--cap", type=int, default=16)
    p.add_argument("--dump-circuit", action="store_true")
    common(p)

    p = sub.add_parser("bench", help="family sweep with query counts")
    p.add_argument("--family", choices=FAMILIES, required=True)
    p.add_argument("--sizes", type=_sizes, required=True, help="comma-separated sizes")
    p.add_argument("--reps", type=_reps, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sep-bound", type=int, default=2)
    p.add_argument("--method", choices=tuple(DECIDERS), default="compress")
    common(p, needs_input=False)

    return parser


_HANDLERS = {
    "gen": _cmd_gen,
    "evaluate": _cmd_evaluate,
    "septree": _cmd_septree,
    "compress": _cmd_compress,
    "solve": _cmd_solve,
    "arith": _cmd_arith,
    "bench": _cmd_bench,
}


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return _HANDLERS[args.command](args)
    except QueryDagError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
