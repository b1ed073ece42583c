"""Byte-identity of every CLI document over the 1000-instance corpus.

Runs `qw` in-process on random_instance(seed) for seeds 0-999 (the corpus of
tests/test_acceptance.py) with six runs per instance: compress, septree,
evaluate, and solve --witness --transcript for each of the compress, depth
and direct methods.  The exit code, standard output and standard error of
all 6,000 runs go into one SHA-256, which --check compares with the digest
recorded in data/corpus.sha256.  Not a pytest module; run it directly:

    python tests/corpus_digest.py            # print the digest
    python tests/corpus_digest.py --check    # exit 1 unless it matches
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

from conftest import random_instance  # noqa: E402
from querydag import serialize_dag  # noqa: E402
from querydag.cli import main  # noqa: E402

RECORDED = HERE / "data" / "corpus.sha256"
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


def corpus_digest():
    h = hashlib.sha256()
    for seed in SEEDS:
        text = serialize_dag(random_instance(seed))
        for argv in RUNS:
            rc, out, err = run(argv, text)
            h.update(json.dumps([seed, list(argv), rc, out, err]).encode() + b"\n")
    return h.hexdigest()


def cli(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--check", action="store_true", help="compare with the recorded digest")
    mode.add_argument("--write", action="store_true", help="record the digest")
    args = parser.parse_args(argv)
    digest = corpus_digest()
    if args.write:
        RECORDED.write_text(digest + "\n")
    elif args.check:
        recorded = RECORDED.read_text().strip()
        if digest != recorded:
            print(f"corpus digest {digest} != recorded {recorded}", file=sys.stderr)
            return 1
    print(digest)
    return 0


if __name__ == "__main__":
    sys.exit(cli())
