"""Proof-existence and threshold oracles, with exact query accounting.

Only threshold queries are compared against the paper-style budgets; proof
queries are internal to the oracle's own decision procedure, the way an NP
oracle does unbounded work behind one answer.

Two threshold backends are provided.  BruteForceBackend is the reference: it
enumerates answer strings outright and is capped.  EvaluationBackend answers
exactly at any size by computing the unique maximizer of the objective (the
correct query string; every other string scores at least one scaled unit
lower), so compressed instances with hundreds of nodes stay tractable.  The
two are cross-checked against each other in the tests.
"""

from __future__ import annotations

import itertools

from .errors import CapacityError, ValidationError
from .querygraph import evaluate


class OracleStats:
    """Counters and an ordered transcript of every oracle interaction."""

    def __init__(self):
        self.proof_queries = 0
        self.threshold_queries = 0
        self.transcript = []

    def record_proof(self, node_id, input_bits, answer):
        self.proof_queries += 1
        self.transcript.append(
            {"kind": "proof", "node": node_id, "inputs": input_bits, "answer": answer}
        )

    def record_threshold(self, threshold, pins, answer):
        self.threshold_queries += 1
        self.transcript.append(
            {
                "kind": "threshold",
                "threshold": str(threshold),
                "pins": {str(k): v for k, v in sorted(pins.items())},
                "answer": answer,
            }
        )

    def to_doc(self):
        return [dict(entry) for entry in self.transcript]


def _assign(clauses, lit):
    out = []
    for clause in clauses:
        if lit in clause:
            continue
        out.append(tuple(l for l in clause if l != -lit))
    return out


def _propagate(clauses):
    """Unit propagation to a fixpoint; None on an empty clause."""
    while True:
        for clause in clauses:
            if len(clause) < 2:
                break
        else:
            return clauses
        if not clause:
            return None
        clauses = _assign(clauses, clause[0])


def _dpll(clauses):
    # Branch on the smallest unassigned variable, the positive literal first.
    # Pending branches wait on an explicit stack, so deep formulas cannot hit
    # the recursion limit; a branch's literal is assigned only once popped.
    stack = [(clauses, None)]
    while stack:
        clauses, lit = stack.pop()
        clauses = _propagate(clauses if lit is None else _assign(clauses, lit))
        if clauses is None:
            continue
        if not clauses:
            return True
        var = min(abs(l) for clause in clauses for l in clause)
        stack.append((clauses, -var))
        stack.append((clauses, var))
    return False


def sat_exists_proof(node, input_bits):
    """Does some proof assignment satisfy all clauses, inputs being fixed?"""
    if len(input_bits) != len(node.inputs):
        raise ValueError(
            f"node {node.id}: expected {len(node.inputs)} input bits, "
            f"got {len(input_bits)}"
        )
    clauses = [tuple(cl) for cl in node.clauses]
    for i, bit in enumerate(input_bits):
        clauses = _assign(clauses, (i + 1) if int(bit) else -(i + 1))
    return _dpll(clauses)


class ProofOracle:
    """Per-node proof-existence decisions, recorded when stats are attached."""

    def __init__(self, stats=None):
        self.stats = stats

    def exists(self, node, input_bits):
        answer = sat_exists_proof(node, input_bits)
        if self.stats is not None:
            self.stats.record_proof(node.id, "".join(str(int(b)) for b in input_bits), answer)
        return answer


def _merge_pins(inst):
    """Fixed bits plus pins; a pin contradicting a fixed bit admits no string."""
    merged = inst.dag.fixed_bits()
    for nid, bit in inst.pins.items():
        if nid in merged and merged[nid] != bit:
            return None
        merged[nid] = bit
    return merged


class BruteForceBackend:
    """Reference threshold decision: enumerate every unpinned answer string."""

    def __init__(self, cap=20):
        self.cap = cap

    def decide(self, inst, proof_oracle):
        from .solver import max_t_for_assignment

        fixed = _merge_pins(inst)
        if fixed is None:
            return False
        ids = list(inst.dag.node_ids())
        free = [nid for nid in ids if nid not in fixed]
        if len(free) > self.cap:
            raise CapacityError(
                f"brute-force threshold backend: {len(free)} free bits exceed "
                f"the cap of {self.cap}"
            )
        for combo in itertools.product((0, 1), repeat=len(free)):
            x = dict(fixed)
            x.update(zip(free, combo))
            if max_t_for_assignment(inst, x, proof_oracle) >= inst.threshold:
                return True
        return False


class EvaluationBackend:
    """Exact threshold decisions via the unique maximizer of the objective.

    The correct query string attains the maximum 2T, and any other string
    scores at most 2T - 1 (integer scaling plus the admissibility gap), so an
    unpinned query is just a comparison against 2T, and a pinned query at a
    threshold of at least 2T is decided by pin consistency.  Pinned queries
    strictly below 2T with inconsistent pins fall back to brute force.
    """

    def __init__(self, fallback_cap=20):
        self.fallback_cap = fallback_cap
        self._cache = {}

    def _profile(self, inst, proof_oracle):
        from .solver import max_t_for_assignment
        from .weighting import check_admissible

        key = (id(inst.dag), id(inst.weights))
        hit = self._cache.get(key)
        if hit is not None:
            return hit[2], hit[3]
        # The one-unit gap below the maximum only exists for integer
        # weightings that are admissible with constant 2 or more.
        if inst.weights.c < 2 or not all(
            isinstance(w, int) for w in inst.weights.weights.values()
        ):
            raise ValidationError(
                "evaluation backend needs an integer weighting with c >= 2"
            )
        ok, bad = check_admissible(inst.dag, inst.weights)
        if not ok:
            raise ValidationError(f"weighting is not admissible at node {bad}")
        bits = evaluate(inst.dag, proof_oracle).bits
        two_t = max_t_for_assignment(inst, bits, proof_oracle)
        # Keep the graph objects alive so ids cannot be recycled under us.
        self._cache[key] = (inst.dag, inst.weights, bits, two_t)
        return bits, two_t

    def decide(self, inst, proof_oracle):
        correct, two_t = self._profile(inst, proof_oracle)
        fixed = _merge_pins(inst)
        if fixed is None:
            return False
        if all(correct[nid] == bit for nid, bit in fixed.items()):
            return inst.threshold <= two_t
        if inst.threshold >= two_t:
            return False
        return BruteForceBackend(cap=self.fallback_cap).decide(inst, proof_oracle)


def threshold_query(inst, proof_oracle, stats, backend):
    """One counted oracle call: does some pinned answer string reach the
    scaled threshold?"""
    answer = backend.decide(inst, proof_oracle)
    stats.record_threshold(inst.threshold, inst.pins, answer)
    return answer
