"""The random instances of the test corpus, with no pytest import, so that
tests/corpus_digest.py runs on an interpreter without pytest."""

from __future__ import annotations

from querydag.cli import gen_instance


def random_instance(seed, max_n=8, sep_bound=2):
    n = 1 + seed % max_n
    return gen_instance("random-sep", n, seed, sep_bound)
