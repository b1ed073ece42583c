"""Benchmark of querydag: one seeded workload per run, every output checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the package is imported from `src/`.
The run generates the workload's instance documents from the seed, evaluates
each one with the independent reference in `reference.py`, then solves the
whole set over and over for S seconds in this one process and thread.  Each
solve is the in-process equivalent of `qw solve` on a parsed instance: the
`decide_*` call plus `SolveReport.serialize()`.  Every output is checked; a
solve that raises or breaks a check counts as failed.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`.  With `--trace 0` the metrics are the
end-to-end ones, measured with nothing wrapped; with `--trace 1` they are the
per-layer ones from `tracing.py`, and spans go to `perfbench/out/`.

Times are in reference seconds.  The speed of a core on a shared machine
drifts by up to 2x over seconds, so every measured call runs between two
timings of a fixed calibration loop, and its elapsed time is scaled by
CAL_REF_S over the mean of those two.  Per instance the median over repeats
is taken, then the medians are summed.  README.md has the measurements
behind this choice.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

import gen
import reference
import tracing

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

# Workload -> (decision method, witness mode).
WORKLOADS = {
    "band2-compress": ("compress", False),
    "chain-compress-witness": ("compress", True),
    "chain-depth-witness": ("depth", True),
    "sat-layered-depth-witness": ("depth", True),
}

SETUP_REPS = 9
MIN_PASSES = 3

# Seconds the calibration loop takes on an unloaded core of the machine the
# benchmark was written on (Intel Xeon, 2 vCPUs, Python 3.11).
CAL_REF_S = 0.010

LAYER_MS = (
    "querygraph.parse", "separator.septree", "compress.build", "compress.expand",
    "compress.conductor", "compress.merge", "compress.evaluate",
    "compress.compute_output", "compress.check", "compress.lift",
    "weighting.omega", "weighting.rho", "weighting.admissible", "oracle.sat",
    "oracle.threshold", "oracle.record", "solver.search", "solver.extract",
    "solver.maxt",
)
LAYER_CALLS = {
    "compress.compute_output_calls": "compress.compute_output",
    "oracle.sat_calls": "oracle.sat",
    "oracle.threshold_calls": "oracle.threshold",
}
LAYER_COUNTS = (
    "compress.gprime_nodes", "compress.gstar_nodes", "oracle.sat_distinct",
    "weighting.w_bits",
)


def calibrate():
    """Seconds taken by a fixed loop of dict, tuple, str and int work."""
    start = time.perf_counter()
    table = {}
    acc = 0
    for i in range(20000):
        key = (i & 1023, str(i & 63))
        table[key] = table.get(key, 0) + i
        acc += (i * 2654435761) % 1000003
    return time.perf_counter() - start


class Clock:
    """Times calls in reference seconds, each between two calibration runs."""

    def __init__(self):
        self.before = calibrate()

    def time(self, call):
        """(result, reference seconds, scale applied to this call's times)."""
        start = time.perf_counter()
        result = call()
        elapsed = time.perf_counter() - start
        after = calibrate()
        scale = CAL_REF_S / ((self.before + after) / 2)
        self.before = after
        return result, elapsed * scale, scale


def import_querydag():
    """A fresh import of the package, as a new `qw` process would do."""
    for name in [m for m in sys.modules if m.split(".")[0] == "querydag"]:
        del sys.modules[name]
    import querydag

    return querydag


def setup(docs):
    """Import the package and parse and validate every document."""
    qd = import_querydag()
    return qd, [qd.querygraph.parse_dag(doc) for doc in docs]


def solve(qd, method, witness, g):
    decide = qd.solver.decide_compress if method == "compress" else qd.solver.decide_depth
    report = decide(g, witness=witness)
    return report, report.serialize()


def median_sum(per_instance):
    """Sum over instances of each instance's median repeat."""
    return sum(statistics.median(values) for values in per_instance if values)


class Run:
    """Solves the instance set, checks every output, keeps the figures."""

    def __init__(self, qd, method, witness, graphs, refs, labels):
        self.qd = qd
        self.method = method
        self.witness = witness
        self.graphs = graphs
        self.refs = refs
        self.labels = labels
        self.clock = Clock()
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.queries = [None] * len(graphs)
        self.seconds = [[] for _ in graphs]

    def one(self, i, call=None):
        """Solve instance i once and check it.

        Returns (reference seconds, scale, report), or None if it failed.
        """
        self.attempted += 1
        call = call or (lambda: solve(self.qd, self.method, self.witness, self.graphs[i]))
        gc.collect()
        try:
            (report, text), seconds, scale = self.clock.time(call)
        except Exception as exc:  # a crash is a failed solve; the run goes on
            self.failed += 1
            print(f"{self.labels[i]}: solve raised {exc!r}", file=sys.stderr)
            return None
        problems = reference.check(
            json.loads(text), report.stats.threshold_queries, self.refs[i],
            self.method, self.witness,
        )
        if self.queries[i] is None:
            self.queries[i] = report.stats.threshold_queries
        elif self.queries[i] != report.stats.threshold_queries:
            problems.append("threshold query count changed between repeats")
        if problems:
            self.failed += 1
            self.correct = False
            print(f"{self.labels[i]}: {'; '.join(problems)}", file=sys.stderr)
            return None
        return seconds, scale, report

    def timed_pass(self):
        for i in range(len(self.graphs)):
            done = self.one(i)
            if done is not None:
                self.seconds[i].append(done[0])

    def peak_alloc_mb(self):
        """Largest tracemalloc peak of one solve, in its own untimed pass."""
        peaks = [0]
        tracemalloc.start()
        try:
            for i in range(len(self.graphs)):

                def call():
                    gc.collect()
                    tracemalloc.reset_peak()
                    base = tracemalloc.get_traced_memory()[0]
                    out = solve(self.qd, self.method, self.witness, self.graphs[i])
                    peaks.append(tracemalloc.get_traced_memory()[1] - base)
                    return out

                self.one(i, call)
        finally:
            tracemalloc.stop()
        return max(peaks) / 1e6

    def report_repeats(self):
        for label, values in zip(self.labels, self.seconds):
            if values:
                print(
                    f"{label}: {len(values)} repeats, median {statistics.median(values) * 1000:.1f} "
                    f"ref ms, range {min(values) * 1000:.1f}-{max(values) * 1000:.1f}",
                    file=sys.stderr,
                )


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(args, docs, refs, labels, method, witness):
    clock = Clock()
    setups = []
    for _ in range(SETUP_REPS):
        gc.collect()
        (qd, graphs), seconds, _ = clock.time(lambda: setup(docs))
        setups.append(seconds)
    run = Run(qd, method, witness, graphs, refs, labels)
    gc.collect()
    gc.freeze()
    deadline = time.perf_counter() + args.seconds
    passes = 0
    while passes < MIN_PASSES or time.perf_counter() < deadline:
        run.timed_pass()
        passes += 1
    peak = run.peak_alloc_mb()
    metrics = {
        "setup_s": metric(statistics.median(setups), "s"),
        "solve_s": metric(median_sum(run.seconds), "s"),
        "threshold_queries": metric(sum(q or 0 for q in run.queries), "count"),
        "peak_alloc_mb": metric(peak, "MB"),
    }
    return run, metrics


def layer_figures(tracer, scale, report):
    """One traced solve's figures; times scaled to reference milliseconds."""
    layers = tracing.summarize(tracer.spans)
    figures = {
        f"{layer}_ms": layers.get(layer, {}).get("ms", 0.0) * scale for layer in LAYER_MS
    }
    for name, layer in LAYER_CALLS.items():
        figures[name] = layers.get(layer, {}).get("calls", 0)
    figures["compress.gprime_nodes"] = tracer.counts["compress.gprime_nodes"]
    figures["compress.gstar_nodes"] = tracer.counts["compress.gstar_nodes"]
    figures["oracle.sat_distinct"] = len(tracer.distinct)
    figures["weighting.w_bits"] = report.w_total.bit_length()
    return figures


def traced(args, docs, refs, labels, method, witness):
    """Untraced and traced passes in turn; per-layer figures from the traced."""
    qd, graphs = setup(docs)
    run = Run(qd, method, witness, graphs, refs, labels)
    tracer = tracing.Tracer()
    n = len(graphs)
    traced_seconds = [[] for _ in range(n)]
    figures = [[] for _ in range(n)]  # per instance, one dict per traced repeat
    spans = {}
    absent = []
    gc.collect()
    gc.freeze()
    deadline = time.perf_counter() + args.seconds
    passes = 0
    while passes < 2 * MIN_PASSES or time.perf_counter() < deadline:
        if passes % 2 == 0:
            run.timed_pass()
        else:
            uninstall, absent = tracing.install(qd, tracer)
            try:
                for i in range(n):
                    tracer.reset()
                    qd.querygraph.parse_dag(docs[i])
                    done = run.one(i, lambda: tracer.span(
                        "solve", solve, (qd, method, witness, graphs[i]), {}))
                    if done is None:
                        continue
                    seconds, scale, report = done
                    traced_seconds[i].append(seconds)
                    figures[i].append(layer_figures(tracer, scale, report))
                    spans[labels[i]] = tracer.spans
            finally:
                uninstall()
        passes += 1
    names = [f"{layer}_ms" for layer in LAYER_MS] + list(LAYER_CALLS) + list(LAYER_COUNTS)
    metrics = {}
    for name in names:
        unit = "ms" if name.endswith("_ms") else "bits" if name.endswith("_bits") else "count"
        per_instance = [[rep[name] for rep in reps] for reps in figures]
        metrics[name] = metric(median_sum(per_instance), unit)
    calls = metrics["oracle.sat_calls"]["value"]
    metrics["oracle.sat_distinct_ratio"] = metric(
        metrics["oracle.sat_distinct"]["value"] / calls if calls else 0.0, "ratio")
    untraced = median_sum(run.seconds)
    metrics["trace.overhead_ratio"] = metric(
        median_sum(traced_seconds) / untraced if untraced else 0.0, "ratio")
    metrics["trace.absent_targets"] = metric(len(absent), "count")
    for target in absent:
        print(f"trace: {target} not found; its layer reads 0", file=sys.stderr)
    write_trace(args, metrics, spans, absent)
    return run, metrics


def write_trace(args, metrics, spans, absent):
    """Spans of the last traced repeat of each instance, with self times."""
    OUT.mkdir(exist_ok=True)
    doc = {"workload": args.workload, "seed": args.seed, "metrics": metrics,
           "absent": absent, "instances": {}}
    for label, records in spans.items():
        doc["instances"][label] = {
            "layers": tracing.summarize(records),
            "spans": [[sid, name, parent, round(start, 7), round(end, 7)]
                      for sid, name, parent, start, end in records],
        }
    path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps(doc) + "\n")
    print(f"trace written to {path}", file=sys.stderr)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "querydag" / "__init__.py").is_file():
        print(f"querydag sources not found under {SRC}", file=sys.stderr)
        return 1
    sys.path.insert(0, str(SRC))
    method, witness = WORKLOADS[args.workload]
    labels, docs = zip(*gen.workload_docs(args.workload, args.seed))
    refs = [reference.evaluate(doc) for doc in docs]
    measure = traced if args.trace else end_to_end
    run, metrics = measure(args, docs, refs, labels, method, witness)
    run.report_repeats()
    print(json.dumps({
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
