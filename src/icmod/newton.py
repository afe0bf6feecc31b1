"""Newton polygon, integral closure and unique factorization of complete
monomial ideals.

Everything here is integer arithmetic on staircase corners: the lower-left
hull is computed with a monotone chain over exact cross products, and the
closure walks the hull edge by edge.  On the edge (p0, q0) -> (p1, q1), with
dp = p0 - p1 and dq = q1 - q0, the least y-exponent above column u is
q0 + ceil(dq * (p0 - u) / dp).  A steep edge (dq >= dp) drops by at least one
per column, so each column u in (p1, p0] is a corner; a shallow edge
(dq < dp) drops by at most one, so each row v in [q0, q1) has one corner, at
the least column reaching it, u = p0 - floor(dp * (v - q0) / dq).  The last
vertex (0, q_t) closes the staircase.  The cost is O(edges + output corners),
whatever a_0 and b_r are.  The walk emits corners with strictly decreasing
u and strictly increasing v, so its output is canonical as it stands.  It has
exactly 1 + sum over edges of min(dp, dq) corners; that count is taken from the
vertices before the walk, and must not exceed `MAX_OUTPUT_SIZE`.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import NamedTuple

from .errors import NotComplete, NotMPrimary
from .staircase import MAX_OUTPUT_SIZE, Monomial, MonomialIdeal, within_budget


class SimpleFactor(NamedTuple("SimpleFactor", [("p", int), ("q", int)])):
    """Exponent pair of a simple complete ideal, the closure of (x^p, y^q); a
    tuple, so hashing, equality and ordering by (p, q) run in C."""

    __slots__ = ()

    def __new__(cls, p: int, q: int) -> "SimpleFactor":
        if p < 1 or q < 1 or math.gcd(p, q) != 1:
            raise ValueError(f"not a primitive exponent pair: {(p, q)}")
        return tuple.__new__(cls, (p, q))

    @classmethod
    def _make(cls, iterable) -> "SimpleFactor":  # `_replace` too: checked as in __new__
        return cls(*iterable)

    @property
    def order(self) -> int:
        return min(self.p, self.q)


class Factorization(NamedTuple):
    """Multiset of simple factors with multiplicities, canonically sorted."""

    factors: tuple[tuple[SimpleFactor, int], ...]

    @staticmethod
    def from_counts(counts: dict[SimpleFactor, int]) -> "Factorization":
        items = sorted(counts.items(), key=lambda fm: (-fm[0].p, fm[0].q))
        return Factorization(tuple((f, m) for f, m in items if m > 0))

    def as_dict(self) -> dict[SimpleFactor, int]:
        return dict(self.factors)

    def colength(self) -> int:
        """Colength of the product, (e + sum of n (p + q - 1)) / 2 with e = sum of n n' min(p q',
        p' q) over ordered pairs of factors, its multiplicity (Hoskin-Deligne; Huneke-Swanson)."""
        fs = self.factors
        e = sum(n * m * min(p * s, r * q) for (p, q), n in fs for (r, s), m in fs)
        return (e + sum(n * (p + q - 1) for (p, q), n in fs)) // 2

    def remove(self, f: SimpleFactor) -> "Factorization":
        counts = Counter(self.as_dict())
        if counts[f] < 1:
            raise ValueError(f"{f} is not a factor")
        counts[f] -= 1
        return Factorization.from_counts(counts)


class NewtonPolygon(NamedTuple):
    """Lower-left hull vertices (p_0,0), ..., (0,q_t), sorted by p descending.

    The closure and the factorization of an ideal are both read off its
    polygon, so a caller that needs both builds the hull once.
    """

    vertices: tuple[Monomial, ...]

    def closure(self) -> MonomialIdeal:
        """The ideal of all lattice points on or above the polygon."""
        edges = list(zip(self.vertices, self.vertices[1:]))
        corners = 1 + sum(min(p0 - p1, q1 - q0) for (p0, q0), (p1, q1) in edges)
        within_budget("closure", corners, "corners", MAX_OUTPUT_SIZE)
        gens = []
        for (p0, q0), (p1, q1) in edges:
            dp, dq = p0 - p1, q1 - q0
            if dq >= dp:
                gens.extend((u, q0 - (-dq * (p0 - u) // dp)) for u in range(p0, p1, -1))
            else:
                gens.extend((p0 - dp * (v - q0) // dq, v) for v in range(q0, q1))
        gens.append(self.vertices[-1])
        return MonomialIdeal(tuple(gens))

    def factorization(self) -> Factorization:
        """The simple factors of the polygon's closure.

        Each edge of lattice width dp and height dq contributes the simple
        factor (dp/d, dq/d) with multiplicity d = gcd(dp, dq).  The edges of a
        strictly convex hull have pairwise distinct directions, so each factor
        comes from one edge.
        """
        counts: dict[SimpleFactor, int] = {}
        for (p0, q0), (p1, q1) in zip(self.vertices, self.vertices[1:]):
            dp, dq = p0 - p1, q1 - q0
            d = math.gcd(dp, dq)
            counts[SimpleFactor(dp // d, dq // d)] = d
        return Factorization.from_counts(counts)

    def transpose(self) -> "NewtonPolygon":
        """The polygon of the transposed ideal: x and y swapped."""
        return NewtonPolygon(tuple((q, p) for p, q in reversed(self.vertices)))


def _cross(o: Monomial, a: Monomial, b: Monomial) -> int:
    return (a[0] - o[0]) * (b[1] - o[1]) - (b[0] - o[0]) * (a[1] - o[1])


def newton_vertices(ideal: MonomialIdeal) -> NewtonPolygon:
    """Vertices of the lower-left convex hull of the staircase corners."""
    if ideal.is_unit:
        raise NotMPrimary("the unit ideal has no Newton polygon")
    pts = sorted(ideal.gens)
    hull: list[Monomial] = []
    for p in pts:
        while len(hull) >= 2 and _cross(hull[-2], hull[-1], p) <= 0:
            hull.pop()
        hull.append(p)
    return NewtonPolygon(tuple(reversed(hull)))


def closure(ideal: MonomialIdeal) -> MonomialIdeal:
    """Integral closure: the ideal of all lattice points inside the polygon."""
    return ideal if ideal.is_unit else newton_vertices(ideal).closure()


def is_complete(ideal: MonomialIdeal) -> bool:
    return closure(ideal) == ideal


def zariski_factor(ideal: MonomialIdeal) -> Factorization:
    """Unique decomposition of a complete ideal into simple factors."""
    polygon = newton_vertices(ideal)
    if polygon.closure() != ideal:
        raise NotComplete(f"{ideal} is not integrally closed")
    return polygon.factorization()


def simple_ideal(f: SimpleFactor) -> MonomialIdeal:
    """The simple complete ideal attached to a primitive pair: closure of (x^p, y^q)."""
    return NewtonPolygon(((f.p, 0), (0, f.q))).closure()


def reconstruct(factorization: Factorization) -> MonomialIdeal:
    """Product of the simple closures; inverse of zariski_factor."""
    if not factorization.factors:
        raise ValueError("empty factorization")
    result: MonomialIdeal | None = None
    for f, mult in factorization.factors:
        piece = simple_ideal(f).power(mult)
        result = piece if result is None else result.product(piece)
    return result  # type: ignore[return-value]
