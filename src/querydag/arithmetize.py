"""Arithmetization pipeline: verifiers to 3-CNF to a weighted polynomial.

Every verifier becomes a 3-CNF with its input-wire variables left free, each
clause becomes the polynomial 1 - l1*l2*l3 (negated literals as 1 - v), a
verifier's clauses multiply into q_V, and the weighted combination

    p = sum over nodes of  w * (x * q_V + (1 - x) / 2)

agrees with the unscaled objective t on Boolean points.  p is only ever
evaluated at hypercube vertices.

All arithmetic is exact: integers until the constant 1/2 brings in Fractions.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .errors import CapacityError, PipelineError
from .oracle import EvaluationBackend, ProofOracle, threshold_oracle
from .querygraph import decimal_str, is_correct_query_string
from .solver import binary_search_T, search_budget

VAR = "var"
CONST = "const"
SUM = "sum"
PROD = "prod"

# The default variable cap of exhaustive search, which evaluates the circuit
# once per point: 16 variables take seconds, 24 about twenty minutes.
EXHAUSTIVE_CAP = 16


class ArithCircuit:
    """A DAG of +/x gates over exact rationals; children precede parents.

    Each gate is a (kind, value, children) tuple, whose value is the
    variable index of a VAR gate and the exact constant of a CONST gate.
    Its points have var_count coordinates, some of which no gate may read.
    """

    def __init__(self, gates, output, var_count):
        self.gates = tuple(gates)
        self.output = output
        self.var_count = var_count

    def eval(self, point):
        """Value at a point; stays in int arithmetic until a Fraction appears."""
        values = [0] * len(self.gates)
        for i, (kind, value, children) in enumerate(self.gates):
            if kind == VAR:
                values[i] = point[value]
            elif kind == CONST:
                values[i] = value
            elif kind == SUM:
                acc = 0
                for child in children:
                    acc += values[child]
                values[i] = acc
            else:
                acc = 1
                for child in children:
                    acc *= values[child]
                    if acc == 0:
                        break
                values[i] = acc
        return values[self.output]

    def size(self):
        return len(self.gates)

    def to_doc(self):
        out = []
        for i, (kind, value, children) in enumerate(self.gates):
            entry = {"id": i, "kind": kind, "children": list(children)}
            if kind == VAR:
                entry["var"] = value
            elif kind == CONST:
                frac = Fraction(value)
                entry["value"] = f"{frac.numerator}/{frac.denominator}"
            out.append(entry)
        return {"gates": out, "output": self.output}


class CircuitBuilder:
    """Hash-consing builder; shared literals keep the circuit small."""

    def __init__(self):
        self.gates = []
        self._vars = {}
        self._consts = {}
        self._literals = {}

    def _push(self, gate):
        self.gates.append(gate)
        return len(self.gates) - 1

    def var(self, index):
        if index not in self._vars:
            self._vars[index] = self._push((VAR, index, ()))
        return self._vars[index]

    def const(self, value):
        frac = Fraction(value)
        stored = int(frac) if frac.denominator == 1 else frac
        key = (frac.numerator, frac.denominator)
        if key not in self._consts:
            self._consts[key] = self._push((CONST, stored, ()))
        return self._consts[key]

    def add(self, children):
        children = tuple(children)
        if not children:
            return self.const(0)
        if len(children) == 1:
            return children[0]
        return self._push((SUM, None, children))

    def mul(self, children):
        children = tuple(children)
        if not children:
            return self.const(1)
        if len(children) == 1:
            return children[0]
        return self._push((PROD, None, children))

    def literal(self, index, positive):
        """Gate for v or 1 - v over variable `index`."""
        key = (index, positive)
        if key not in self._literals:
            v = self.var(index)
            if positive:
                self._literals[key] = v
            else:
                neg = self.mul((self.const(-1), v))
                self._literals[key] = self.add((self.const(1), neg))
        return self._literals[key]

    def clause(self, coords):
        """1 - l1*l2*l3 for a clause given as (variable index, positive) pairs."""
        prod = self.mul(tuple(self.literal(i, not pos) for i, pos in coords))
        neg = self.mul((self.const(-1), prod))
        return self.add((self.const(1), neg))

    def finish(self, output, var_count):
        return ArithCircuit(self.gates, output, var_count)


def to_three_cnf(node):
    """(clauses, var_count): the node's clauses split to width exactly 3,
    over its local variables, wires, proofs, then auxiliaries; input-wire
    variables stay free.

    Clauses longer than 3 chain through fresh auxiliary variables; shorter
    ones repeat their last literal.  An empty clause stays unsatisfiable via
    a fresh contradictory pair.
    """
    base = node.var_count
    aux = 0
    out = []
    for clause in node.clauses:
        lits = list(clause)
        k = len(lits)
        if k == 0:
            aux += 1
            a = base + aux
            out.append((a, a, a))
            out.append((-a, -a, -a))
        elif k <= 3:
            out.append(tuple(lits + lits[-1:] * (3 - k)))
        else:
            fresh = [base + aux + i + 1 for i in range(k - 3)]
            aux += k - 3
            out.append((lits[0], lits[1], fresh[0]))
            for t in range(k - 4):
                out.append((-fresh[t], lits[2 + t], fresh[t + 1]))
            out.append((-fresh[-1], lits[k - 2], lits[k - 1]))
    return tuple(out), base + aux


def three_cnf_for_dag(g):
    """(clauses per node, n_common): every node's 3-CNF padded to one clause
    count, keyed in g.topo_order(), and the largest local variable count.

    Clause padding repeats the tautology (v or not-v or v) over local
    variable 1, whose value is 1 at every Boolean point; a node with fewer
    than n_common variables leaves the rest of its block unused.
    """
    per = {nid: to_three_cnf(g.by_id[nid]) for nid in g.topo_order()}
    n_common = max(var_count for _, var_count in per.values())
    m_common = max(len(clauses) for clauses, _ in per.values())
    padded = {
        nid: clauses + ((1, -1, 1),) * (m_common - len(clauses))
        for nid, (clauses, _) in per.items()
    }
    return padded, n_common


def build_p(g, weights, cap=None):
    """(circuit, x_coord): the circuit for p = sum of w * (x * q_V + (1 - x)/2),
    subcircuits shared, and its variable layout.

    Coordinates 0..m-1 are the answer bits x in topological order, and
    x_coord maps each node id to its coordinate in that order; each node
    then owns a block of (n_common - indeg) free coordinates for its proof,
    auxiliary, and padding variables.  With a `cap`, a count of coordinates
    above it raises CapacityError before any coordinate is laid out.
    """
    clauses_by_node, n_common = three_cnf_for_dag(g)
    if cap is not None:
        edges = sum(len(node.inputs) for node in g.nodes)
        _check_cap(len(clauses_by_node) * (1 + n_common) - edges, cap)
    x_coord = {nid: i for i, nid in enumerate(clauses_by_node)}
    cursor = len(x_coord)
    builder = CircuitBuilder()
    half = builder.const(Fraction(1, 2))
    terms = []
    for nid, clauses in clauses_by_node.items():
        inputs = g.by_id[nid].inputs
        # Local variable j is input wire j, then the node's block in order.
        block = n_common - len(inputs)
        coords = [x_coord[i] for i in inputs] + list(range(cursor, cursor + block))
        cursor += block
        clause_gates = [
            builder.clause(tuple((coords[abs(l) - 1], l > 0) for l in cl))
            for cl in clauses
        ]
        q = builder.mul(tuple(clause_gates))
        x = builder.var(x_coord[nid])
        sat_part = builder.mul((x, q))
        miss_part = builder.mul((builder.literal(x_coord[nid], False), half))
        inner = builder.add((sat_part, miss_part))
        terms.append(builder.mul((builder.const(weights[nid]), inner)))
    return builder.finish(builder.add(tuple(terms)), cursor), x_coord


def brute_force_max(circuit, cap=EXHAUSTIVE_CAP):
    """Exhaustive maximum over all Boolean points, with lex-least witness.

    Only the coordinates some var gate reads are enumerated: the others
    cannot move the value, so the lex-least optimum holds them at 0.  The
    cap still counts every coordinate.
    """
    var_count = circuit.var_count
    _check_cap(var_count, cap)
    read = sorted({value for kind, value, _ in circuit.gates if kind == VAR})
    point = [0] * var_count
    best = None
    witness = None
    # Ascending masks with the least read coordinate most significant, so
    # the first strict maximum is the lex-least optimal vertex.
    for bits in itertools.product((0, 1), repeat=len(read)):
        for coord, bit in zip(read, bits):
            point[coord] = bit
        value = circuit.eval(point)
        if best is None or value > best:
            best = value
            witness = tuple(point)
    return Fraction(best), witness


def _check_cap(var_count, cap):
    if var_count > cap:
        raise CapacityError(f"{decimal_str(var_count)} variables exceed the cap of {cap}")


def extract_from_optimum(g, x_coord, vertex):
    """Read the query string off an optimal vertex and insist it is correct."""
    x = {nid: vertex[coord] for nid, coord in x_coord.items()}
    if not is_correct_query_string(g, x, ProofOracle()):
        raise PipelineError("optimum vertex does not encode a correct query string")
    return x


def audit_weak_compression(g, weights):
    """(bits, queries_used): the bit-length of the scaled optimum 2T under
    `weights`, the weighting p was built with, and the threshold queries
    the binary search spent to find it.

    The optimum of p equals T, so locating it pins down every query answer;
    the search, on a fresh evaluation backend, spends at most
    bit_length(2T) + 1 threshold queries.
    """
    proof_oracle = ProofOracle()
    ask = threshold_oracle(g, weights, proof_oracle, EvaluationBackend())
    t_tilde = binary_search_T(ask, search_budget(weights))
    return t_tilde.bit_length(), proof_oracle.stats.threshold_queries
