"""Byte-identity of every CLI document over the 1000-instance corpus.

Runs `qw` in-process on random_instance(seed) for seeds 0-999 (the corpus of
tests/test_acceptance.py) with six runs per instance: compress, septree,
evaluate, and solve --witness --transcript for each of the compress, depth
and direct methods.  The exit code, standard output and standard error of
all 6,000 runs go into one SHA-256, recorded in data/corpus.sha256.  A
second SHA-256, recorded in data/corpus-masked.sha256, hashes the same runs
with `proof_queries` and every `"kind": "proof"` transcript entry dropped
from each JSON standard output: a change that only moves proof-call
accounting keeps it, while any change to an answer, a weight, a threshold
query or a witness breaks it.  --check compares both digests with the
recorded ones and --write records both.  Not a pytest module; run it
directly:

    python tests/corpus_digest.py            # print both digests
    python tests/corpus_digest.py --check    # exit 1 unless both match
    python tests/corpus_digest.py --write    # record an intended change
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from instances import random_instance  # noqa: E402
from querydag import serialize_dag  # noqa: E402
from querydag.cli import main  # noqa: E402

RECORDED = HERE / "data" / "corpus.sha256"
MASKED = HERE / "data" / "corpus-masked.sha256"
SEEDS = range(1000)
RUNS = (
    ("compress",),
    ("septree",),
    ("evaluate",),
    *(("solve", "--method", m, "--witness", "--transcript") for m in ("compress", "depth", "direct")),
)


def run(argv, text):
    """Exit code, standard output and standard error of one in-process run."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(list(argv) + ["-i", "-"])
    finally:
        sys.stdin = saved
    return rc, out.getvalue(), err.getvalue()


def masked(out):
    """Standard output without proof-call accounting: a JSON object loses
    `proof_queries` and the proof entries of its transcript; anything else
    is kept as it is."""
    try:
        doc = json.loads(out)
    except ValueError:
        return out
    if not isinstance(doc, dict):
        return out
    doc.pop("proof_queries", None)
    if "transcript" in doc:
        doc["transcript"] = [e for e in doc["transcript"] if e["kind"] != "proof"]
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def corpus_digests():
    """(full digest, masked digest) of every run."""
    full, mask = hashlib.sha256(), hashlib.sha256()
    for seed in SEEDS:
        text = serialize_dag(random_instance(seed))
        for argv in RUNS:
            rc, out, err = run(argv, text)
            full.update(json.dumps([seed, list(argv), rc, out, err]).encode() + b"\n")
            mask.update(json.dumps([seed, list(argv), rc, masked(out), err]).encode() + b"\n")
    return full.hexdigest(), mask.hexdigest()


def cli(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--check", action="store_true", help="compare with the recorded digest")
    mode.add_argument("--write", action="store_true", help="record the digest")
    args = parser.parse_args(argv)
    digests = corpus_digests()
    failed = False
    for path, digest in zip((RECORDED, MASKED), digests):
        if args.write:
            path.write_text(digest + "\n")
        elif args.check:
            recorded = path.read_text().strip()
            if digest != recorded:
                print(f"{path.name}: digest {digest} != recorded {recorded}", file=sys.stderr)
                failed = True
        print(digest)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(cli())
