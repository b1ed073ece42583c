"""Proof-existence and threshold oracles, with exact query accounting.

Only threshold queries are compared against the paper-style budgets; proof
queries are internal to the oracle's own decision procedure, the way an NP
oracle does unbounded work behind one answer.  That work is a DPLL search
over integer bitmasks, one bit per variable that occurs in the clauses: each
clause is a (positive, negative) pair of variable masks and the assignment a
(true, false) pair, with unit propagation to a fixpoint and branching on the
smallest free variable.  A ProofOracle lasts one solve and memoizes its
answers per (query, input bits); every issued call is still counted and
recorded, and `proof_distinct` is the memo's size.

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
    """Counters and an ordered transcript of every oracle interaction.

    Entries are kept raw, as tuples holding the pins mapping the query was
    given, not a copy; to_doc renders them, so each query costs an append
    and nothing more.  The queries of a witness extraction all hold its one
    pins dict plus their position k in it, which each carries as
    `ThresholdInstance.position`, and to_doc rebuilds what query k pinned:
    the first k entries as they end up, then the node at index k pinned at
    1.  `decisions` holds each distinct proof decision once, keyed on
    (query, input bits); the proof oracle reads it as its memo.
    """

    def __init__(self):
        self.proof_queries = 0
        self.threshold_queries = 0
        self.transcript = []
        self.decisions = {}

    @property
    def proof_distinct(self):
        return len(self.decisions)

    def record_proof(self, node_id, input_bits, answer):
        self.proof_queries += 1
        self.transcript.append(("proof", node_id, input_bits, answer))

    def record_threshold(self, inst, answer):
        self.threshold_queries += 1
        self.transcript.append(
            ("threshold", inst.threshold, inst.pins, answer, inst.position)
        )

    def to_doc(self):
        doc = []
        for entry in self.transcript:
            if entry[0] == "proof":
                _, node, inputs, answer = entry
                doc.append(
                    {"kind": "proof", "node": node, "inputs": inputs, "answer": answer}
                )
            else:
                _, threshold, pins, answer, k = entry
                if k is not None:
                    pins = dict(itertools.islice(pins.items(), k + 1))
                    pins[next(reversed(pins))] = 1
                doc.append(
                    {
                        "kind": "threshold",
                        "threshold": str(threshold),
                        "pins": {str(k): v for k, v in sorted(pins.items())},
                        "answer": answer,
                    }
                )
        return doc


def _propagate(clauses, true, false):
    """Unit propagation to a fixpoint over (positive, negative) clause masks.

    Returns the clauses still unsatisfied, the extended assignment and the
    variables those clauses leave free, or None on a conflict.
    """
    while True:
        free_vars = 0
        live = []
        before = assigned = true | false
        for pos, neg in clauses:
            if pos & true or neg & false:
                continue
            free = (pos | neg) & ~assigned
            if not free:
                return None
            if free & (free - 1):
                live.append((pos, neg))
                free_vars |= free
            else:
                # A unit clause: its one free literal must hold.
                true |= pos & free
                false |= neg & free
                assigned |= free
        if assigned == before:
            return live, true, false, free_vars
        clauses = live


def _dpll(clauses, true, false):
    # Branch on the smallest variable left in an unsatisfied clause, the
    # positive literal first.  Pending branches wait on an explicit stack, so
    # deep formulas cannot hit the recursion limit.
    stack = [(clauses, true, false)]
    while stack:
        state = _propagate(*stack.pop())
        if state is None:
            continue
        clauses, true, false, free_vars = state
        if not clauses:
            return True
        var = free_vars & -free_vars
        stack.append((clauses, true, false | var))
        stack.append((clauses, true | var, false))
    return False


def sat_exists_proof(node, input_bits):
    """Does some proof assignment satisfy all clauses, inputs being fixed?"""
    if len(input_bits) != len(node.inputs):
        raise ValueError(
            f"node {node.id}: expected {len(node.inputs)} input bits, "
            f"got {len(input_bits)}"
        )
    # The variables in the clauses take consecutive bits in ascending order,
    # so masks are as wide as the variables used, not as their numbers, and
    # the smallest free bit is still the smallest free variable.  An input
    # in no clause gets no bit; a clause holding v and -v always holds.
    used = sorted({abs(lit) for clause in node.clauses for lit in clause})
    mask = {var: 1 << i for i, var in enumerate(used)}
    clauses = []
    for clause in node.clauses:
        pos = neg = 0
        for lit in clause:
            if lit > 0:
                pos |= mask[lit]
            else:
                neg |= mask[-lit]
        if not pos & neg:
            clauses.append((pos, neg))
    true = false = 0
    for var, bit in enumerate(input_bits, start=1):
        if int(bit):
            true |= mask.get(var, 0)
        else:
            false |= mask.get(var, 0)
    return _dpll(clauses, true, false)


class ProofOracle:
    """Per-node proof-existence decisions, each one recorded in `stats`, the
    oracle's own record of every proof and threshold query of a solve.

    Answers are memoized for the oracle's lifetime, one solve, on the query
    itself and its input bits: a repeated call is still recorded, but only
    a new pair reaches `sat_exists_proof`.
    """

    def __init__(self):
        self.stats = OracleStats()

    def exists(self, node, input_bits):
        bits = "".join(str(int(b)) for b in input_bits)
        # Keyed on the node's value, not its id: one oracle may serve
        # several graphs whose ids collide.
        key = (node, bits)
        memo = self.stats.decisions
        answer = memo.get(key)
        if answer is None:
            answer = memo[key] = sat_exists_proof(node, input_bits)
        self.stats.record_proof(node.id, bits, answer)
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
    scores at most 2T - 1 (integer scaling plus the admissibility gap).  It
    agrees with the graph's fixed bits, so a query whose pins agree with it
    is just a comparison against 2T.  Any other query admits only other
    strings: it is false at a threshold of at least 2T and falls back to
    brute force below.

    Once (dag, weights) is profiled, a query costs O(1): an identity check
    of the profile, then for a query without pins or with a position (see
    ThresholdInstance) a look at its newest pins only.  For that the backend
    keeps the pins dict of the last query, if it had a position, and
    whether its settled entries agree; a new profile drops both.
    """

    def __init__(self, fallback_cap=20):
        self.fallback_cap = fallback_cap
        self._current = None  # (dag, weights, bits, 2T) of the last profile
        # (pins, position, do the entries before position agree?) of the
        # last query on the current profile, if it had a position.
        self._pinned = None

    def _profile(self, inst, proof_oracle):
        hit = self._current
        if hit is not None and hit[0] is inst.dag and hit[1] is inst.weights:
            return hit[2:]
        # Imported at call time, and only on a miss: a profiled query pays
        # for no import, and callers that swap these functions on their
        # modules are still heard.
        from .solver import max_t_for_assignment
        from .weighting import check_admissible

        self._current = self._pinned = None
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
        if not inst.dag.fixed_bits().items() <= bits.items():
            raise ValidationError("the correct query string contradicts a fixed bit")
        two_t = max_t_for_assignment(inst, bits, proof_oracle)
        self._current = (inst.dag, inst.weights, bits, two_t)
        return bits, two_t

    def _pins_agree(self, inst, correct):
        """Do all of the query's pins agree with the maximizer?

        A query at position k that continues the last one, on the same dict
        at k - 1, checks two entries read from the dict's end: the one at
        k - 1, final since the last query, and the new one.  Any other
        positioned query scans the entries before it once; a query without
        a position, or whose pins do not end at it, is checked in full.
        """
        pins, k = inst.pins, inst.position
        agreed = correct.items()
        if k is None or len(pins) != k + 1:
            self._pinned = None
            return pins.items() <= agreed
        last = self._pinned
        newest = reversed(pins.items())
        entry = next(newest)
        if last is not None and last[0] is pins and last[1] == k - 1:
            before = last[2] and next(newest) in agreed
        else:
            before = all(e in agreed for e in itertools.islice(pins.items(), k))
        self._pinned = (pins, k, before)
        return before and entry in agreed

    def decide(self, inst, proof_oracle):
        correct, two_t = self._profile(inst, proof_oracle)
        if self._pins_agree(inst, correct):
            return inst.threshold <= two_t
        if inst.threshold >= two_t:
            return False
        return BruteForceBackend(cap=self.fallback_cap).decide(inst, proof_oracle)


def threshold_query(inst, proof_oracle, backend):
    """One counted oracle call, recorded in the proof oracle's stats: does
    some pinned answer string reach the scaled threshold?

    The transcript keeps `inst.pins` itself, so the mapping is the query's
    only while it runs.  A witness extraction, which goes on to extend it,
    sets `inst.position`, and the transcript rebuilds the query's pins from
    that.
    """
    answer = backend.decide(inst, proof_oracle)
    proof_oracle.stats.record_threshold(inst, answer)
    return answer
