"""Arithmetization pipeline: verifiers to 3-CNF to a weighted polynomial.

Every verifier becomes a 3-CNF with its input-wire variables left free, each
clause becomes the polynomial 1 - l1*l2*l3 (negated literals as 1 - v), a
verifier's clauses multiply into q_V, and the weighted combination

    p = sum over nodes of  w * (x * q_V + (1 - x) / 2)

agrees with the unscaled objective t on Boolean points.  The multilinear
extension of p is never materialized; points with fractional coordinates are
evaluated through the convex-combination identity over both fixings of each
fractional coordinate, which only ever consults p at hypercube vertices.

All arithmetic is exact: integers at vertices, Fractions elsewhere.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .errors import CapacityError, PipelineError
from .oracle import EvaluationBackend, ProofOracle
from .querygraph import is_correct_query_string
from .solver import binary_search_T
from .weighting import omega_weights

VAR = "var"
CONST = "const"
SUM = "sum"
PROD = "prod"


@dataclass(frozen=True)
class Gate:
    kind: str
    value: object  # variable index for VAR, exact constant for CONST
    children: tuple


class ArithCircuit:
    """A DAG of +/x gates over exact rationals; children precede parents."""

    def __init__(self, gates, output):
        self.gates = tuple(gates)
        self.output = output

    def eval(self, point):
        """Value at a point; stays in int arithmetic until a Fraction appears."""
        values = [0] * len(self.gates)
        for i, gate in enumerate(self.gates):
            if gate.kind == VAR:
                values[i] = point[gate.value]
            elif gate.kind == CONST:
                values[i] = gate.value
            elif gate.kind == SUM:
                acc = 0
                for child in gate.children:
                    acc += values[child]
                values[i] = acc
            else:
                acc = 1
                for child in gate.children:
                    acc *= values[child]
                    if acc == 0:
                        break
                values[i] = acc
        return values[self.output]

    def size(self):
        return len(self.gates)

    def to_doc(self):
        out = []
        for i, gate in enumerate(self.gates):
            entry = {"id": i, "kind": gate.kind, "children": list(gate.children)}
            if gate.kind == VAR:
                entry["var"] = gate.value
            elif gate.kind == CONST:
                frac = Fraction(gate.value)
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
            self._vars[index] = self._push(Gate(VAR, index, ()))
        return self._vars[index]

    def const(self, value):
        frac = Fraction(value)
        stored = int(frac) if frac.denominator == 1 else frac
        key = (frac.numerator, frac.denominator)
        if key not in self._consts:
            self._consts[key] = self._push(Gate(CONST, stored, ()))
        return self._consts[key]

    def add(self, children):
        children = tuple(children)
        if not children:
            return self.const(0)
        if len(children) == 1:
            return children[0]
        return self._push(Gate(SUM, None, children))

    def mul(self, children):
        children = tuple(children)
        if not children:
            return self.const(1)
        if len(children) == 1:
            return children[0]
        return self._push(Gate(PROD, None, children))

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

    def finish(self, output):
        return ArithCircuit(self.gates, output)


def arithmetize_clause(literals):
    """Standalone circuit for one 3-literal clause over variables 0..2.

    Literals are signed 1-based positions, e.g. (1, -2, 3) for the clause
    z1 or not-z2 or z3.
    """
    if len(literals) != 3:
        raise ValueError("clause must have exactly 3 literals")
    builder = CircuitBuilder()
    coords = tuple((abs(l) - 1, l > 0) for l in literals)
    return builder.finish(builder.clause(coords))


@dataclass(frozen=True)
class NodeCnf:
    """Per-node 3-CNF over local variables: wires, proofs, then auxiliaries."""

    clauses: tuple
    var_count: int


def to_three_cnf(node):
    """Split clauses to width exactly 3; input-wire variables stay free.

    Clauses longer than 3 chain through fresh auxiliary variables; shorter
    clauses repeat a literal.  An empty clause stays unsatisfiable via a
    fresh contradictory pair.
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
        elif k == 1:
            out.append((lits[0], lits[0], lits[0]))
        elif k == 2:
            out.append((lits[0], lits[1], lits[1]))
        elif k == 3:
            out.append(tuple(lits))
        else:
            fresh = [base + aux + i + 1 for i in range(k - 3)]
            aux += k - 3
            out.append((lits[0], lits[1], fresh[0]))
            for t in range(k - 4):
                out.append((-fresh[t], lits[2 + t], fresh[t + 1]))
            out.append((-fresh[-1], lits[k - 2], lits[k - 1]))
    return NodeCnf(clauses=tuple(out), var_count=base + aux)


def three_cnf_for_dag(g):
    """(clauses per node, n_common): every node's 3-CNF padded to one clause
    count, keyed in g.topo_order(), and the largest local variable count.

    Clause padding repeats the tautology (v or not-v or v) over local
    variable 1, whose value is 1 at every Boolean point; a node with fewer
    than n_common variables leaves the rest of its block unused.
    """
    per = {nid: to_three_cnf(g.by_id[nid]) for nid in g.topo_order()}
    n_common = max(nc.var_count for nc in per.values())
    m_common = max(len(nc.clauses) for nc in per.values())
    padded = {
        nid: nc.clauses + ((1, -1, 1),) * (m_common - len(nc.clauses))
        for nid, nc in per.items()
    }
    return padded, n_common


@dataclass(frozen=True)
class BuiltPolynomial:
    """The weighted polynomial with its variable layout.

    Coordinates 0..m-1 are the answer bits x in topological order, and
    x_coord maps each node id to its coordinate in that order; each node
    then owns a block of (n_common - indeg) free coordinates for its proof,
    auxiliary, and padding variables.
    """

    circuit: ArithCircuit
    var_count: int
    x_coord: dict


def build_p(g, weights):
    """Circuit for p = sum of w * (x * q_V + (1 - x)/2), subcircuits shared."""
    clauses_by_node, n_common = three_cnf_for_dag(g)
    order = list(clauses_by_node)
    x_coord = {nid: i for i, nid in enumerate(order)}
    block_start = {}
    cursor = len(order)
    for nid in order:
        block_start[nid] = cursor
        cursor += n_common - len(g.by_id[nid].inputs)
    builder = CircuitBuilder()
    half = builder.const(Fraction(1, 2))
    terms = []
    for nid in order:
        node = g.by_id[nid]
        indeg = len(node.inputs)

        def coord(local, _node=node, _indeg=indeg, _start=block_start[nid]):
            if local <= _indeg:
                return x_coord[_node.inputs[local - 1]]
            return _start + (local - _indeg - 1)

        clause_gates = [
            builder.clause(tuple((coord(abs(l)), l > 0) for l in cl))
            for cl in clauses_by_node[nid]
        ]
        q = builder.mul(tuple(clause_gates))
        x = builder.var(x_coord[nid])
        sat_part = builder.mul((x, q))
        miss_part = builder.mul((builder.literal(x_coord[nid], False), half))
        inner = builder.add((sat_part, miss_part))
        terms.append(builder.mul((builder.const(weights[nid]), inner)))
    circuit = builder.finish(builder.add(tuple(terms)))
    return BuiltPolynomial(circuit=circuit, var_count=cursor, x_coord=x_coord)


def multilinear_eval(circuit, point, cap=20):
    """The multilinear extension of the circuit's vertex values, at `point`.

    Coordinates already in {0, 1} are substituted directly; every strictly
    fractional coordinate branches into its two fixings, so the cost is one
    circuit evaluation per completion.  Agrees with the circuit on vertices.
    """
    point = [Fraction(c) for c in point]
    for c in point:
        if c < 0 or c > 1:
            raise ValueError("point coordinates must lie in [0, 1]")
    fractional = [i for i, c in enumerate(point) if c != 0 and c != 1]
    if len(fractional) > cap:
        raise CapacityError(
            f"{len(fractional)} fractional coordinates exceed the cap of {cap}"
        )
    base = [int(c) if c in (0, 1) else 0 for c in point]
    total = Fraction(0)
    for mask in range(1 << len(fractional)):
        weight = Fraction(1)
        for j, i in enumerate(fractional):
            bit = (mask >> j) & 1
            base[i] = bit
            weight *= point[i] if bit else 1 - point[i]
        total += weight * circuit.eval(base)
    return total


def brute_force_max(circuit, var_count, cap=24):
    """Exhaustive maximum over all Boolean points, with lex-least witness."""
    if var_count > cap:
        raise CapacityError(f"{var_count} variables exceed the cap of {cap}")
    best = None
    witness = None
    # Ascending masks with coordinate 0 most significant, so the first
    # strict maximum is the lex-least optimal vertex.
    for point in itertools.product((0, 1), repeat=var_count):
        value = circuit.eval(point)
        if best is None or value > best:
            best = value
            witness = point
    return Fraction(best), witness


def extract_from_optimum(g, built, witness):
    """Read the query string off an optimal vertex and insist it is correct."""
    x = {nid: witness[coord] for nid, coord in built.x_coord.items()}
    if not is_correct_query_string(g, x, ProofOracle()):
        raise PipelineError("optimum vertex does not encode a correct query string")
    return x


@dataclass(frozen=True)
class CompressionAudit:
    """How many oracle queries the optimum's bit-length actually demanded."""

    bits: int  # bit-length of the scaled optimum 2T
    queries_used: int


def audit_weak_compression(g):
    """Binary-search the scaled optimum and compare queries to its bit-length.

    The optimum of p equals T, so locating it pins down every query answer;
    the search, on a fresh evaluation backend, spends at most
    bit_length(2T) + 1 threshold queries.
    """
    proof_oracle = ProofOracle()
    weights = omega_weights(g)
    t_tilde = binary_search_T(g, weights, proof_oracle, EvaluationBackend())
    return CompressionAudit(
        bits=t_tilde.bit_length(), queries_used=proof_oracle.stats.threshold_queries
    )
