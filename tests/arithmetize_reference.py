"""The multilinear extension of an arithmetized circuit, kept as a test
reference.

querydag.arithmetize builds p and maximizes it at hypercube vertices only;
no part of the pipeline reads p off the hypercube.  multilinear_eval
evaluates its multilinear extension at any point of [0, 1]^n through the
convex-combination identity over both fixings of each fractional
coordinate, which only ever consults the circuit at vertices, so the tests
can check that the extension agrees with p on vertices and stays below the
vertex optimum.
"""

from __future__ import annotations

from fractions import Fraction

from querydag.errors import CapacityError


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
