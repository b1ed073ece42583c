"""Proof-existence and threshold oracles, with exact query accounting.

Only threshold queries are compared against the paper-style budgets; proof
queries are internal to the oracle's own decision procedure, the way an NP
oracle does unbounded work behind one answer.  That work is a DPLL search
over integer bitmasks, one bit per variable that occurs in the clauses: each
clause is a (positive, negative, variables) triple of variable masks and the
assignment a (true, false) pair.  The search branches on the smallest
variable of the first unsatisfied clause with two free literals, or failing
that of the first unsatisfied clause.  Its root sets the input wires and
propagates unit clauses to a fixpoint, reading first only the clauses with
at most one literal outside the wires, the only ones that can then be unit
or empty; each search node below propagates only from the variable it
branched on, through the clauses that lose a literal to it.  The masks
and those per-variable clause lists are the node's compiled form
(CompiledCnf), linear in its clauses, built on its first decision and kept
on the node for later ones; parsing compiles nothing, and a clause-free
node is never compiled.  A proof call carries its input bits as one
integer code, the first input most significant.  A ProofOracle lasts one
solve and memoizes its answers per (query, code); every issued call is
still counted, and recorded when the solve keeps a transcript, and
`proof_distinct` is the memo's size.

Every threshold query of a solve asks about one weighted graph, so the
solve binds its (dag, weights) and its proof oracle to a threshold backend
once (threshold_oracle), and each query then passes only its threshold and
pins.  Two backends are provided.  BruteForceBackend is the reference:
it enumerates answer strings outright and is capped.  EvaluationBackend
answers exactly at any size by computing, when bound, the unique maximizer
of the objective (the correct query string; every other string scores at
least one scaled unit lower), and under pins that disagree with it the best
string keeping them, so compressed instances with hundreds of nodes stay
tractable.  The two are cross-checked against each other in the tests.
"""

from __future__ import annotations

import itertools
from types import MappingProxyType

from . import weighting
from .errors import CapacityError, PipelineError, ValidationError
from .querygraph import decimal_str, evaluate


class OracleStats:
    """Counters of every oracle interaction, and on request their transcript.

    The counters and the `decisions` memo always run; the ordered
    transcript is kept only when asked for (`transcript=True`), and is
    otherwise None, so a solve that prints no transcript does not hold one.
    `decisions` holds each distinct proof decision once, keyed on (query,
    code); the proof oracle reads it as its memo.

    Entries are kept raw: a threshold entry holds the pins mapping its
    query was given, not a copy, with its length and newest bit at query
    time, from which the pins contract of threshold_oracle rebuilds what
    it pinned.  entry_doc renders one, so each query costs an append.
    """

    def __init__(self, transcript=False):
        self.proof_queries = 0
        self.threshold_queries = 0
        self.transcript = [] if transcript else None
        self.decisions = {}

    @property
    def proof_distinct(self):
        return len(self.decisions)

    def record_proof(self, node_id, code, width, answer):
        """Count one proof call; its entry renders `code` as `width` bits."""
        self.proof_queries += 1
        if self.transcript is not None:
            # The bit above the code keeps its leading zeros; width 0 is "".
            self.transcript.append(("proof", node_id, bin(code | 1 << width)[3:], answer))

    def record_proofs(self, node_id, codes, width, bits):
        """record_proof for each call of ProofOracle.exists_each, in order:
        its answer is bits[code] as exists() gives it, a bool."""
        self.proof_queries += len(codes)
        if self.transcript is not None:
            top = 1 << width
            self.transcript.extend(
                [("proof", node_id, bin(c | top)[3:], bits[c] == 1) for c in codes]
            )

    def record_threshold(self, threshold, pins, answer):
        self.threshold_queries += 1
        if self.transcript is not None:
            n = len(pins)
            newest = pins[next(reversed(pins))] if n else None
            self.transcript.append(("threshold", threshold, pins, answer, n, newest))

    def to_doc(self):
        # An empty list would read as a solve that made no query.
        if self.transcript is None:
            raise ValueError("these stats kept no transcript")
        return list(map(entry_doc, self.transcript))


def entry_doc(entry):
    """One transcript entry as its document (see OracleStats): a threshold
    entry is (threshold, pins, answer, n, newest) as the query recorded it,
    its pins rebuilt as the pins contract of threshold_oracle allows."""
    if entry[0] == "proof":
        _, node, inputs, answer = entry
        return {"kind": "proof", "node": node, "inputs": inputs, "answer": answer}
    _, threshold, pins, answer, n, newest = entry
    pins = dict(itertools.islice(pins.items(), n))
    if n:
        pins[next(reversed(pins))] = newest
    return {
        "kind": "threshold",
        "threshold": decimal_str(threshold),
        "pins": {str(k): v for k, v in sorted(pins.items())},
        "answer": answer,
    }


class CompiledCnf:
    """A node's clauses as the DPLL reads them, built on the node's first
    decision and cached on it (`QueryNode.cnf`).

    The variables in the clauses take consecutive bits in ascending order,
    so masks are as wide as the variables used, not as their numbers, and a
    clause's smallest free bit is still its smallest free variable.  An
    input in no clause gets no bit; a clause holding v and -v always holds
    and is dropped.  `wires` holds each input wire's bit (0 for none) in
    code order, the last input first: wires[i] is set by bit i of a code.
    `clauses` holds each remaining clause as a (positive, negative,
    variables) triple of masks, in the node's order, and `on_true[bit]` /
    `on_false[bit]` the clauses that lose a literal when that variable is
    set true / false.  A search sets every input wire before its root, so
    there only a clause with at most one literal outside the wires can be
    unit or empty.  The root sets the pseudo-variable 0 false, and
    `on_false[0]` is those clauses, in clause order; propagation reaches
    any other clause through a variable it sets.  The size is linear in the
    node's literals.
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
        self.wires = tuple(mask.get(var, 0) for var in range(len(node.inputs), 0, -1))
        # The wires' bits are distinct, so their sum is their union.
        proof = ~sum(self.wires)
        clauses = []
        root = self.on_false[0] = []
        for clause in node.clauses:
            pos = neg = 0
            for lit in clause:
                if lit > 0:
                    pos |= mask[lit]
                else:
                    neg |= mask[-lit]
            if pos & neg:
                continue
            both = pos | neg
            entry = (pos, neg, both)
            clauses.append(entry)
            rest = both & proof
            if not rest & (rest - 1):
                root.append(entry)
            if both.bit_count() < len(clause):
                clause = set(clause)  # a repeated literal is listed once
            for lit in clause:
                lose[lit].append(entry)
        self.clauses = tuple(clauses)


def _propagate(cnf, true, false, var, value):
    """Set var to value, then unit-propagate to a fixpoint.

    Only clauses that lose a literal are looked at: first those of var,
    then those of each variable a unit clause sets.  At the root (var 0)
    those are the clauses with at most one literal outside the input wires,
    the only ones that can be unit or empty with just the wires set, so the
    root's fixpoint is the full one, and each search node below it needs
    only the consequences of its own branch.  `unassigned` masks the free
    variables, so a clause's free literals are one AND away.
    Returns the extended (true, false) assignment, or None on a conflict.
    """
    if value:
        true |= var
    else:
        false |= var
    on_true, on_false = cnf.on_true, cnf.on_false
    unassigned = ~(true | false)
    queue = [var]
    while queue:
        bit = queue.pop()
        for pos, neg, both in (on_true if bit & true else on_false)[bit]:
            if pos & true or neg & false:
                continue
            free = both & unassigned
            if not free:
                return None
            if free & (free - 1):
                continue
            # A unit clause: its one free literal must hold.
            if pos & free:
                true |= free
            else:
                false |= free
            unassigned ^= free
            queue.append(free)
    return true, false


def _dpll(cnf, true, false):
    # Each search node is one _propagate call, from the assignment its
    # parent reached plus its branch; the root propagates from the wires.
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
        unassigned = ~(true | false)
        pick = 0
        for pos, neg, both in clauses:
            if pos & true or neg & false:
                continue
            free = both & unassigned
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


def sat_exists_proof(node, code):
    """Does some proof assignment satisfy all clauses, the input wires set
    from `code`?  A code outside [0, 2**indegree) raises ValueError."""
    width = len(node.inputs)
    if code < 0 or code >> width:
        raise ValueError(f"node {node.id}: input code {code} outside [0, 2**{width})")
    # A clause-free verifier always holds and is never compiled.
    if not node.clauses:
        return True
    cnf = node.cnf
    true = false = 0
    for wire in cnf.wires:
        if code & 1:
            true |= wire
        else:
            false |= wire
        code >>= 1
    return _dpll(cnf, true, false)


class ProofOracle:
    """Per-node proof-existence decisions, each one counted in `stats`, the
    oracle's own record of every proof and threshold query of a solve,
    which keeps a transcript only when `transcript` is set.

    Answers are memoized for the oracle's lifetime, one solve, on the query
    itself and its input code: a repeated call is still counted, but only
    a new pair reaches `sat_exists_proof`, whichever method issued it.
    """

    def __init__(self, transcript=False):
        self.stats = OracleStats(transcript)

    def exists(self, node, code):
        """Does `node` have a proof on `code`, its input wires' bits as one
        number, the first input most significant?"""
        # Keyed on the node's value, not its id: one oracle may serve
        # several graphs whose ids collide.
        key = (node, code)
        memo = self.stats.decisions
        answer = memo.get(key)
        if answer is None:
            answer = memo[key] = sat_exists_proof(node, code)
        self.stats.record_proof(node.id, code, len(node.inputs), answer)
        return answer

    def exists_each(self, node, codes):
        """exists() for each of `codes`: each call counted and recorded in
        order, each distinct code decided once through the memo, in
        first-occurrence order.  Returns each distinct code's bit, 1 or 0."""
        memo = self.stats.decisions
        bits = {}
        for code in dict.fromkeys(codes):
            key = (node, code)
            answer = memo.get(key)
            if answer is None:
                answer = memo[key] = sat_exists_proof(node, code)
            bits[code] = 1 if answer else 0
        self.stats.record_proofs(node.id, codes, len(node.inputs), bits)
        return bits


def max_t_for_assignment(dag, weights, x, proof_oracle, check=None):
    """Scaled objective 2t of the string x, proofs chosen best per node.

    Proofs enter as a cross product, so each node maximizes independently:
    a node claimed 1 contributes 2w when its forced answer under x is 1, a
    node claimed 0 contributes w.  One pass of dag.forced_bits looks up
    only the 1s in `check` (every node when it is None); it holds every
    other node at its own bit, with no proof call, so it scores w(1 + x).
    The weights come a run of equal ones at a time (weighting.weigh).
    """
    return _objective(dag, dag.weight_runs(weights), x, proof_oracle, check)


def _objective(dag, runs, x, proof_oracle, check=None):
    """max_t_for_assignment on the weights dag.weight_runs gave as `runs`.
    forced_bits gives each held node its own bit back, so a score reads x
    only through held, with no lookup by id in x, which on G*'s string is
    a Python call per node."""
    held = {
        nid: bit for nid, bit in x.items() if not bit or (check is not None and nid not in check)
    }
    scores = [
        2 * bit if bit or nid not in held else 1
        for nid, bit in dag.forced_bits(x, proof_oracle, held)
    ]
    return weighting.weigh(runs, scores)


def _pin_bit(cid, bit):
    """A pin's bit, which must be the int 0 or 1 or a bool; anything else
    is a ValidationError naming the pin's id `cid`."""
    if type(bit) is bool or type(bit) is int and 0 <= bit <= 1:
        return bit
    raise ValidationError(f"pin on node {cid!r}: {bit!r} is not the bit 0 or 1")


# The default cap on the free bits BruteForceBackend enumerates: 2^cap
# strings, one forced_bits pass each.
BRUTE_FORCE_CAP = 20


class BruteForceBackend:
    """Reference threshold decision: enumerate every unpinned answer string
    of the bound (dag, weights), the free bits in ascending id order, so
    the order a graph was declared in changes nothing; each string is scored
    with the bound proof oracle, on the weight runs read once per bind."""

    def __init__(self, cap=BRUTE_FORCE_CAP):
        self.cap = cap
        self._bound = None

    def bind(self, dag, weights, proof_oracle):
        # The weights are read once, a run at a time, and the runs kept for
        # the many strings to come.
        ws, sizes = dag.weight_runs(weights)
        try:
            ws = [*ws]
        except KeyError as exc:
            raise weighting.missing_weight(exc) from None
        self._bound = (dag, (ws, sizes and [*sizes]), proof_oracle)

    def decide(self, threshold, pins):
        if self._bound is None:
            raise PipelineError("threshold backend queried before bind")
        dag, runs, proof_oracle = self._bound
        for cid, bit in pins.items():
            _pin_bit(cid, bit)
        ids = dag.node_ids()
        free = [nid for nid in sorted(ids) if nid not in pins]
        # Each pin on a node of the graph leaves one node fewer free.
        if len(free) + len(pins) != len(ids):
            raise ValidationError("a pin's id is not a node of the bound graph")
        if len(free) > self.cap:
            raise CapacityError(
                f"brute-force threshold backend: {len(free)} free bits exceed "
                f"the cap of {self.cap}"
            )
        for combo in itertools.product((0, 1), repeat=len(free)):
            x = dict(pins)
            x.update(zip(free, combo))
            if _objective(dag, runs, x, proof_oracle) >= threshold:
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

    `bind` profiles (dag, weights): one evaluation, one proof call per node
    that has a query, and 2T in closed form: on the correct string every
    forced bit equals its bit, so the objective is the sum of w(1 + x) over
    the nodes, W plus the weight of the ones, on G* one origin block at a
    time: its weight times its size plus its ones, then the conductor's.
    The profile keeps the maximizer as evaluate returns it, a dict on a
    query graph and on G* one byte per copy, and reads it by position (see
    the graphs' positions).  The checks that the weighting is integer and
    admissible read it a block at a time too.  A query without pins (every
    binary-search probe) is then one comparison with 2T.  A pinned query
    that extends the last one's dict by one entry looks at its newest pins
    only, as the pins contract of threshold_oracle allows (see
    _pins_agree); for that the backend keeps the last pinned
    query's dict, its length, whether the entries before its newest agree
    and the maximizer's bit there, and a new profile drops them.  A query
    whose pins disagree, below 2T, costs two passes of forced bits: the
    evaluation keeping its pins, which looks up every other node, and the
    objective, which looks up only its pinned 1s: at most |V| proof calls
    in all, on the proof oracle bound last.
    """

    def __init__(self):
        # The bound (dag, weights), its maximizer, that read by position
        # as (seq, base), and 2T, and the proof oracle of the current solve.
        self._dag = self._weights = self._correct = self._two_t = self._proof_oracle = None
        self._positions = None
        # (pins, len(pins), do the entries before its newest agree?, the
        # maximizer's bit at its newest) of the last pinned query on the
        # bound profile.
        self._pinned = None

    def bind(self, dag, weights, proof_oracle):
        """Keep `proof_oracle` for the queries to come, and profile (dag,
        weights) and keep it as the bound pair, dropping the last.  Checks
        that the weighting is integer and admissible; 2T is read off the
        maximizer without a proof call."""
        self._proof_oracle = proof_oracle
        self._dag = self._weights = self._correct = self._two_t = self._pinned = None
        self._positions = None
        # The one-unit gap below the maximum only exists for integer
        # weightings that are admissible.
        try:
            integer = all(isinstance(w, int) for w in dag.weight_runs(weights)[0])
        except KeyError as exc:
            raise weighting.missing_weight(exc) from None
        if not integer:
            raise ValidationError("evaluation backend needs an integer weighting")
        # Looked up on the module at call time, so callers that swap the
        # function there are still heard.
        ok, bad = weighting.check_admissible(dag, weights)
        if not ok:
            raise ValidationError(f"weighting is not admissible at node {bad}")
        # evaluate's bits come in topo order, as weigh reads values: 2T is
        # W plus the weight of the maximizer's ones, summed a run at a time.
        correct = evaluate(dag, proof_oracle)
        w_total = weighting.weigh(dag.weight_runs(weights))
        self._two_t = w_total + weighting.weigh(dag.weight_runs(weights), correct.values())
        self._dag, self._weights, self._correct = dag, weights, correct
        self._positions = dag.positions(correct)

    def _pins_agree(self, pins):
        """Do all of the non-empty `pins` agree with the maximizer?

        A query on the last pinned query's dict, exactly one entry longer,
        checks the two entries at the dict's end (see threshold_oracle):
        the last query's newest against the maximizer's bit kept there, and
        its own.  Any other query checks every entry.  Each pin checked is
        also checked to be a bit (_pin_bit).  The maximizer's bit at a
        pin's id cid is read by position, seq[cid - base], with no Python
        call; an id below base (G*'s conductor) reads it off the maximizer
        itself.
        """
        seq, base = self._positions
        n = len(pins)
        last = self._pinned
        newest = reversed(pins.items())
        cid, bit = next(newest)
        mine = seq[cid - base] if cid >= base else self._correct[cid]
        if last is not None and last[0] is pins and last[1] == n - 1:
            before = _pin_bit(*next(newest)) == last[3] and last[2]
        else:
            correct = self._correct
            before = all([
                (seq[c - base] if c >= base else correct[c]) == _pin_bit(c, b)
                for c, b in itertools.islice(pins.items(), n - 1)
            ])
        self._pinned = (pins, n, before, mine)
        return _pin_bit(cid, bit) == mine and before

    def decide(self, threshold, pins):
        """Does some string of the bound pair under `pins` reach
        `threshold`?  Without pins, or with pins that agree with the
        maximizer, one comparison with 2T.  A malformed pin is a
        ValidationError (see threshold_oracle)."""
        two_t = self._two_t
        if two_t is None:
            raise PipelineError("threshold backend queried before bind")
        if not pins:
            return threshold <= two_t
        try:
            agree = self._pins_agree(pins)
        except (IndexError, KeyError, TypeError):
            raise ValidationError("a pin's id is not a node of the bound graph") from None
        if agree:
            return threshold <= two_t
        if threshold >= two_t:
            return False
        # Score the best string: an unpinned node holds its forced bit
        # already, so only a pinned 1 needs a proof call.
        dag, proof_oracle = self._dag, self._proof_oracle
        best = evaluate(dag, proof_oracle, pins)
        return threshold <= max_t_for_assignment(dag, self._weights, best, proof_oracle, check=pins)


# The pins of every binary-search probe: one read-only empty mapping shared
# by all of them, instead of a fresh dict per probe.
_NO_PINS = MappingProxyType({})


def threshold_oracle(dag, weights, proof_oracle, backend):
    """Bind (dag, weights) and `proof_oracle` to `backend` and return the
    solve's threshold query, ask(threshold, pins): one counted oracle call,
    recorded in the proof oracle's stats, asking whether some answer string
    under `pins`, bits keyed by ids of dag, reaches the scaled threshold.

    The pins contract.  Nothing copies the pins mapping: the backend may
    compare later queries with it, and a transcript, when the solve keeps
    one, reads it again whenever it is rendered.  So, transcript or not,
    after its query a pins dict may gain entries at its end, and its newest
    entry may change; nothing else about it changes, and it is not cleared
    or reused.  A witness extraction hands every query the same dict, one
    entry longer each time; a backend may then check only what is new since
    the last query, and a transcript rebuilds each query's pins from their
    length and newest bit.

    The pin rule.  A pin's id must be a node of dag and its value the int 0
    or 1, or a bool; both backends raise ValidationError for any other,
    each checking a pin where it reads it.  A weighting that lacks a node
    of dag is a ValidationError when bound.
    """
    backend.bind(dag, weights, proof_oracle)
    stats = proof_oracle.stats

    def ask(threshold, pins=_NO_PINS):
        answer = backend.decide(threshold, pins)
        stats.record_threshold(threshold, pins, answer)
        return answer

    return ask
