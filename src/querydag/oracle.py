"""Proof-existence and threshold oracles, with exact query accounting.

Only threshold queries are compared against the paper-style budgets; proof
queries are internal to the oracle's own decision procedure, the way an NP
oracle does unbounded work behind one answer.  That work is a DPLL search
over integer bitmasks, one bit per variable that occurs in the clauses: each
clause is a (positive, negative) pair of variable masks and the assignment a
(true, false) pair.  The search branches on the smallest variable of the
first unsatisfied clause with two free literals, or failing that of the
first unsatisfied clause.  Its root propagates unit clauses to a fixpoint
over every clause; each search node below propagates only from the variable
it branched on, through the clauses that lose a literal to it.  The masks
and those per-variable clause lists are the node's compiled form
(CompiledCnf), linear in its clauses, built on its first decision and kept
on the node for later ones; parsing compiles nothing, and a clause-free
node is never compiled.  A ProofOracle lasts one solve and memoizes its
answers per (query, input bits); every issued call is still counted, and
recorded when the solve keeps a transcript, and `proof_distinct` is the
memo's size.

Two threshold backends are provided.  BruteForceBackend is the reference: it
enumerates answer strings outright and is capped.  EvaluationBackend answers
exactly at any size by computing the unique maximizer of the objective under
the query's pins (without pins, the correct query string; every other string
scores at least one scaled unit lower), so compressed instances with
hundreds of nodes stay tractable.  The two are cross-checked against each
other in the tests.
"""

from __future__ import annotations

import itertools

from . import weighting
from .errors import CapacityError, ValidationError
from .querygraph import decimal_str, evaluate


class OracleStats:
    """Counters of every oracle interaction, and on request their transcript.

    The counters and the `decisions` memo always run; the ordered
    transcript is kept only when asked for (`transcript=True`), and is
    otherwise None, so a solve that prints no transcript does not hold one.
    `decisions` holds each distinct proof decision once, keyed on (query,
    input bits); the proof oracle reads it as its memo.

    Entries are kept raw, as tuples holding the pins mapping the query was
    given, not a copy; to_doc renders them, so each query costs an append
    and nothing more.  The queries of a witness extraction all hold its one
    pins dict plus their position k in it, which each carries as
    `ThresholdInstance.position`, and to_doc rebuilds what query k pinned:
    the first k entries as they end up, then the node at index k pinned at
    1.  Rendering reads the live dicts, so it is right only while callers
    keep the pins contract of ThresholdInstance: a dict cleared and reused
    from position 0 would rewrite the earlier queries' pins.  That contract
    binds whether or not a transcript is kept, since the evaluation backend
    relies on it too; only this rendering depends on the transcript.
    """

    def __init__(self, transcript=False):
        self.proof_queries = 0
        self.threshold_queries = 0
        self.transcript = [] if transcript else None
        self.decisions = {}

    @property
    def proof_distinct(self):
        return len(self.decisions)

    def record_proof(self, node_id, input_bits, answer):
        self.proof_queries += 1
        if self.transcript is not None:
            self.transcript.append(("proof", node_id, input_bits, answer))

    def record_threshold(self, inst, answer):
        self.threshold_queries += 1
        if self.transcript is not None:
            self.transcript.append(
                ("threshold", inst.threshold, inst.pins, answer, inst.position)
            )

    def to_doc(self):
        # An empty list would read as a solve that made no query.
        if self.transcript is None:
            raise ValueError("these stats kept no transcript")
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
                        "threshold": decimal_str(threshold),
                        "pins": {str(k): v for k, v in sorted(pins.items())},
                        "answer": answer,
                    }
                )
        return doc


class CompiledCnf:
    """A node's clauses as the DPLL reads them, built on the node's first
    decision and cached on it (`QueryNode.cnf`).

    The variables in the clauses take consecutive bits in ascending order,
    so masks are as wide as the variables used, not as their numbers, and a
    clause's smallest free bit is still its smallest free variable.  An
    input in no clause gets no bit; a clause holding v and -v always holds
    and is dropped.  `wires` holds each input wire's bit (0 for none),
    `clauses` each remaining clause as a (positive, negative) pair of
    masks, in the node's order, and `on_true[bit]` / `on_false[bit]` the
    clauses that lose a literal when that variable is set true / false.
    The root of a search sets the pseudo-variable 0 false, and
    `on_false[0]` is every clause, so the root checks them all.  The size
    is linear in the node's literals.
    """

    __slots__ = ("wires", "clauses", "on_true", "on_false")

    def __init__(self, node):
        used = sorted({abs(lit) for clause in node.clauses for lit in clause})
        mask = {}
        self.on_true = {}
        self.on_false = {}
        # The clauses holding literal v lose it when v is set false, those
        # holding -v when v is set true: lose[lit] is that list.
        lose = {}
        for i, var in enumerate(used):
            bit = mask[var] = 1 << i
            lose[var] = self.on_false[bit] = []
            lose[-var] = self.on_true[bit] = []
        self.wires = tuple(mask.get(var, 0) for var in range(1, len(node.inputs) + 1))
        clauses = []
        for clause in node.clauses:
            pos = neg = 0
            for lit in clause:
                if lit > 0:
                    pos |= mask[lit]
                else:
                    neg |= mask[-lit]
            if pos & neg:
                continue
            pair = (pos, neg)
            clauses.append(pair)
            if pos.bit_count() + neg.bit_count() < len(clause):
                clause = set(clause)  # a repeated literal is listed once
            for lit in clause:
                lose[lit].append(pair)
        self.clauses = tuple(clauses)
        self.on_false[0] = self.clauses


def _propagate(cnf, true, false, var, value):
    """Set var to value, then unit-propagate to a fixpoint.

    Only clauses that lose a literal are looked at: first those of var,
    then those of each variable a unit clause sets.  At the root (var 0)
    that is every clause, so the root's fixpoint is the full one, and each
    search node below it needs only the consequences of its own branch.
    Returns the extended (true, false) assignment, or None on a conflict.
    """
    if value:
        true |= var
    else:
        false |= var
    on_true, on_false = cnf.on_true, cnf.on_false
    queue = [var]
    while queue:
        bit = queue.pop()
        for pos, neg in (on_true if bit & true else on_false)[bit]:
            if pos & true or neg & false:
                continue
            free = (pos | neg) & ~(true | false)
            if not free:
                return None
            if free & (free - 1):
                continue
            # A unit clause: its one free literal must hold.
            if pos & free:
                true |= free
            else:
                false |= free
            queue.append(free)
    return true, false


def _dpll(cnf, true, false):
    # Each search node is one _propagate call, from the assignment its
    # parent reached plus its branch; the root propagates everything.
    # Branch on the smallest free variable of the first unsatisfied clause
    # with two free literals, so that either branch satisfies the clause or
    # forces its other literal; if no clause has two, on that of the first
    # unsatisfied clause.  After propagation every unsatisfied clause has
    # two free literals or more, so one scan that stops at the first with
    # exactly two finds the variable.  It is set true first.  Pending
    # branches wait on an explicit stack, so deep formulas cannot hit the
    # recursion limit.
    clauses = cnf.clauses
    stack = [(true, false, 0, 0)]
    while stack:
        state = _propagate(cnf, *stack.pop())
        if state is None:
            continue
        true, false = state
        assigned = true | false
        pick = 0
        for pos, neg in clauses:
            if pos & true or neg & false:
                continue
            free = (pos | neg) & ~assigned
            rest = free & (free - 1)
            if not rest & (rest - 1):
                pick = free
                break
            pick = pick or free
        if not pick:
            return True
        var = pick & -pick
        stack.append((true, false, var, 0))
        stack.append((true, false, var, 1))
    return False


def sat_exists_proof(node, input_bits):
    """Does some proof assignment satisfy all clauses, inputs being fixed?"""
    if len(input_bits) != len(node.inputs):
        raise ValueError(
            f"node {node.id}: expected {len(node.inputs)} input bits, "
            f"got {len(input_bits)}"
        )
    # A clause-free verifier always holds and is never compiled.
    if not node.clauses:
        return True
    cnf = node.cnf
    true = false = 0
    for bit, wire in zip(input_bits, cnf.wires):
        if int(bit):
            true |= wire
        else:
            false |= wire
    return _dpll(cnf, true, false)


class ProofOracle:
    """Per-node proof-existence decisions, each one counted in `stats`, the
    oracle's own record of every proof and threshold query of a solve,
    which keeps a transcript only when `transcript` is set.

    Answers are memoized for the oracle's lifetime, one solve, on the query
    itself and its input bits: a repeated call is still counted, but only
    a new pair reaches `sat_exists_proof`.
    """

    def __init__(self, transcript=False):
        self.stats = OracleStats(transcript)

    def exists(self, node, input_bits):
        """Does `node` have a proof on `input_bits`, the '0'/'1' string a
        forced_bit builds?  It is the memo key and transcript entry as given."""
        # Keyed on the node's value, not its id: one oracle may serve
        # several graphs whose ids collide.
        key = (node, input_bits)
        memo = self.stats.decisions
        answer = memo.get(key)
        if answer is None:
            answer = memo[key] = sat_exists_proof(node, input_bits)
        self.stats.record_proof(node.id, input_bits, answer)
        return answer


def max_t_for_assignment(inst, x, proof_oracle, check=None):
    """Scaled objective 2t of the string x, proofs chosen best per node.

    Proofs enter as a cross product, so each node maximizes independently:
    a node claimed 1 contributes 2w when its forced answer under x is 1, a
    node claimed 0 contributes w.  Only the 1s in `check` (every node when
    it is None) are looked up; any other node is taken to hold its forced
    bit and scores w(1 + x) without a proof call.  With check=() that is
    2T of the correct string, whose every forced bit equals its bit.
    """
    dag = inst.dag
    weights = inst.weights
    total = 0
    for nid in dag.node_ids():
        bit = x[nid]
        if bit and (check is None or nid in check):
            total += 2 * weights[nid] * dag.forced_bit(nid, x, proof_oracle)
        else:
            total += (1 + bit) * weights[nid]
    return total


class BruteForceBackend:
    """Reference threshold decision: enumerate every unpinned answer string."""

    def __init__(self, cap=20):
        self.cap = cap

    def decide(self, inst, proof_oracle):
        pins = inst.pins
        free = [nid for nid in inst.dag.node_ids() if nid not in pins]
        if len(free) > self.cap:
            raise CapacityError(
                f"brute-force threshold backend: {len(free)} free bits exceed "
                f"the cap of {self.cap}"
            )
        for combo in itertools.product((0, 1), repeat=len(free)):
            x = dict(pins)
            x.update(zip(free, combo))
            if max_t_for_assignment(inst, x, proof_oracle) >= inst.threshold:
                return True
        return False


class EvaluationBackend:
    """Exact threshold decisions via the unique maximizer of the objective.

    The correct query string attains the maximum 2T, and any other string
    scores at most 2T - 1 (integer scaling plus the admissibility gap), so
    a query whose pins agree with it is just a comparison against 2T.  Any
    other query admits only other strings: it is false at a threshold of at
    least 2T, and below that it is compared with the score of the best
    string under its pins, which one evaluation keeping the pinned bits
    finds (see querygraph.evaluate).

    The profile is one evaluation, one proof call per node that has a
    query, and 2T from max_t_for_assignment checking no node: on the
    correct string every forced bit equals its bit, so the objective is the
    sum of w(1 + x) over the nodes.
    Once (dag, weights) is profiled, a query costs an identity check of
    both against the profile and, without pins (every binary-search probe),
    one comparison with 2T.  A query with a position (see
    ThresholdInstance) looks at its newest pins only.  For that the backend
    keeps the pins dict of the last query, if it had a position, and
    whether its settled entries agree; a new profile, or a query without
    pins, drops it.  A query whose pins disagree, below 2T, costs one pass
    of forced bits, scored checking only its pinned 1s: at most |V| proof
    calls.
    """

    def __init__(self):
        self._current = None  # (dag, weights, bits, 2T) of the last profile
        # (pins, position, do the entries before position agree?) of the
        # last query on the current profile, if it had a position.
        self._pinned = None

    def _profile(self, inst, proof_oracle):
        """Profile inst's (dag, weights) and keep it as the current one,
        dropping the last: return (maximizer, 2T).  Checks that the
        weighting is integer and admissible; 2T is read off the maximizer
        without a proof call.  decide calls it only when the pair is not
        the current one."""
        self._current = self._pinned = None
        # The one-unit gap below the maximum only exists for integer
        # weightings that are admissible.
        if not all(isinstance(w, int) for w in inst.weights.values()):
            raise ValidationError("evaluation backend needs an integer weighting")
        # Looked up on the module at call time, so callers that swap the
        # function there are still heard.
        ok, bad = weighting.check_admissible(inst.dag, inst.weights)
        if not ok:
            raise ValidationError(f"weighting is not admissible at node {bad}")
        bits = evaluate(inst.dag, proof_oracle)
        two_t = max_t_for_assignment(inst, bits, proof_oracle, check=())
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
        """Does some string under inst's pins reach its threshold?  The
        (dag, weights) pair is profiled unless it is the current one, by
        identity; a query without pins is then one comparison with 2T."""
        current = self._current
        if current is None or current[0] is not inst.dag or current[1] is not inst.weights:
            self._profile(inst, proof_oracle)
            current = self._current
        _, _, correct, two_t = current
        if not inst.pins:
            self._pinned = None
            return inst.threshold <= two_t
        if self._pins_agree(inst, correct):
            return inst.threshold <= two_t
        if inst.threshold >= two_t:
            return False
        # Score the best string: an unpinned node holds its forced bit
        # already, so only a pinned 1 needs a proof call.
        best = evaluate(inst.dag, proof_oracle, inst.pins)
        score = max_t_for_assignment(inst, best, proof_oracle, check=inst.pins)
        return inst.threshold <= score


def threshold_query(inst, proof_oracle, backend):
    """One counted oracle call, recorded in the proof oracle's stats: does
    some pinned answer string reach the scaled threshold?

    The caller may change `inst.pins` afterwards only as ThresholdInstance
    allows, transcript or not: the backend may compare later queries with
    it.  A transcript keeps the mapping itself, not a copy; a witness
    extraction, which goes on to extend it, sets `inst.position`, and the
    transcript rebuilds the query's pins from that.
    """
    answer = backend.decide(inst, proof_oracle)
    proof_oracle.stats.record_threshold(inst, answer)
    return answer
