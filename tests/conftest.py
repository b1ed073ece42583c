"""Shared fixtures and independent reference oracles for the test suite.

The enumeration helpers here recompute answers from first principles (all
proof assignments, all answer strings) so the production code is always
checked against a second route.
"""

from __future__ import annotations

import itertools

import pytest

from querydag import (
    ProofOracle,
    binary_search_T,
    build_dag,
    max_t_for_assignment,
    search_budget,
    threshold_oracle,
)

from instances import random_instance  # noqa: F401  (re-exported for the tests)


@pytest.fixture
def chain2():
    return build_dag(
        [
            (1, "verifier", [], 1, [[1]]),
            (2, "verifier", [1], 1, [[1], [2]]),
        ],
        2,
    )


@pytest.fixture
def chain3():
    return build_dag(
        [
            (1, "verifier", [], 1, [[1]]),
            (2, "verifier", [1], 1, [[1], [2]]),
            (3, "verifier", [2], 1, [[1], [2]]),
        ],
        3,
    )


@pytest.fixture
def chain2_v1_unsat():
    return build_dag(
        [
            (1, "verifier", [], 1, [[1], [-1]]),
            (2, "verifier", [1], 1, [[1], [2]]),
        ],
        2,
    )


@pytest.fixture
def chain2_v2_unsat():
    return build_dag(
        [
            (1, "verifier", [], 1, [[1]]),
            (2, "verifier", [1], 1, [[1], [2], [-2]]),
        ],
        2,
    )


@pytest.fixture
def single_vacuous():
    return build_dag([(1, "verifier", [], 0, [])], 1)


@pytest.fixture
def single_contradictory():
    return build_dag([(1, "verifier", [], 1, [[1], [-1]])], 1)


@pytest.fixture
def star4():
    """Three satisfiable leaves feeding the output; answer 1."""
    return build_dag(
        [
            (1, "verifier", [], 1, [[1]]),
            (2, "verifier", [], 1, [[1]]),
            (3, "verifier", [], 1, [[1]]),
            (4, "verifier", [1, 2, 3], 1, [[1], [2], [3]]),
        ],
        4,
    )


def clause_true(clause, assignment):
    return any(
        (lit > 0 and assignment[lit]) or (lit < 0 and not assignment[-lit])
        for lit in clause
    )


def code_of(input_bits):
    """The proof oracle's input code of a '0'/'1' string: one number, the
    first bit most significant, 0 for the empty string."""
    return int(input_bits, 2) if input_bits else 0


def enum_sat(node, input_bits):
    """Proof existence by full enumeration; independent of the DPLL."""
    n_in = len(node.inputs)
    for proof in itertools.product((0, 1), repeat=node.proof_var_count):
        assignment = {}
        for i, bit in enumerate(input_bits):
            assignment[i + 1] = bool(int(bit))
        for j, bit in enumerate(proof):
            assignment[n_in + j + 1] = bool(bit)
        if all(clause_true(cl, assignment) for cl in node.clauses):
            return True
    return False


def enum_evaluate(g):
    """Reference evaluation built on enum_sat."""
    bits = {}
    for nid in g.topo_order():
        node = g.by_id[nid]
        z = "".join("1" if bits[p] else "0" for p in node.inputs)
        bits[nid] = 1 if enum_sat(node, z) else 0
    return bits, bits[g.output]


def brute_two_t(dag, weights, pins=None):
    """Exact maximum of the scaled objective by enumerating all strings that
    agree with `pins`."""
    oracle = ProofOracle()
    pins = pins or {}
    free = [nid for nid in dag.node_ids() if nid not in pins]
    best = None
    for combo in itertools.product((0, 1), repeat=len(free)):
        x = dict(pins)
        x.update(zip(free, combo))
        value = max_t_for_assignment(dag, weights, x, oracle)
        if best is None or value > best:
            best = value
    return best


def search(dag, weights, oracle, backend):
    """(ask, 2T): the threshold query bound to (dag, weights) on `backend`
    and the binary search's maximum through it, as a solve runs them."""
    ask = threshold_oracle(dag, weights, oracle, backend)
    return ask, binary_search_T(ask, search_budget(weights))
