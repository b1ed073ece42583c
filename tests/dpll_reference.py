"""The clause-list DPLL, kept as a test reference.

Every decision encodes the node's clauses into (positive, negative) masks
afresh, and every search node copies the clauses still unsatisfied into a
new list on each round of unit propagation.  querydag.oracle's DPLL must
give the same answer with the same number of search nodes, one `_propagate`
call each, on every formula.
"""

from __future__ import annotations


def _propagate(clauses, true, false):
    """Unit propagation to a fixpoint over (positive, negative) clause masks.

    Returns the clauses still unsatisfied, the extended assignment and the
    free variables of the first of those clauses with exactly two (0 if
    none has two), or None on a conflict.
    """
    while True:
        pair = 0
        live = []
        before = assigned = true | false
        for pos, neg in clauses:
            if pos & true or neg & false:
                continue
            free = (pos | neg) & ~assigned
            if not free:
                return None
            rest = free & (free - 1)
            if rest:
                live.append((pos, neg))
                if not (pair or rest & (rest - 1)):
                    pair = free
            else:
                # A unit clause: its one free literal must hold.
                true |= pos & free
                false |= neg & free
                assigned |= free
        if assigned == before:
            return live, true, false, pair
        clauses = live


def _dpll(clauses, true, false):
    # Branch on the smallest free variable of the first unsatisfied clause
    # with two free literals, so that either branch satisfies the clause or
    # forces its other literal; if no clause has two, on that of the first
    # unsatisfied clause.  The variable is set true first.  Pending branches
    # wait on an explicit stack, so deep formulas cannot hit the recursion
    # limit.
    stack = [(clauses, true, false)]
    while stack:
        state = _propagate(*stack.pop())
        if state is None:
            continue
        clauses, true, false, pair = state
        if not clauses:
            return True
        if not pair:
            pos, neg = clauses[0]
            pair = (pos | neg) & ~(true | false)
        var = pair & -pair
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
    # a clause's smallest free bit is still its smallest free variable.  An
    # input in no clause gets no bit; a clause holding v and -v always holds.
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
