"""References for an arithmetized circuit, kept for the tests.

querydag.arithmetize builds p and maximizes it at hypercube vertices only;
no part of the pipeline reads p off the hypercube.  multilinear_eval
evaluates its multilinear extension at any point of [0, 1]^n through the
convex-combination identity over both fixings of each fractional
coordinate, which only ever consults the circuit at vertices, so the tests
can check that the extension agrees with p on vertices and stays below the
vertex optimum.  brute_force_max_full maximizes p over every vertex,
including the coordinates no gate reads, which brute_force_max leaves at 0.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from querydag.arithmetize import EXHAUSTIVE_CAP
from querydag.errors import CapacityError


def brute_force_max_full(circuit, cap=EXHAUSTIVE_CAP):
    """Exhaustive maximum over all 2^var_count Boolean points, with the
    lex-least witness."""
    var_count = circuit.var_count
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
