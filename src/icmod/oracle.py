"""Independent brute-force oracles.

Lengths and minimal generator counts are ranks of spanning rows over
truncations R^2 / m^N R^2 (resp. R / m^N).  Soundness of the truncation comes
from Fitt_0(F/M) * F being contained in M: once m^N lands in the Fitting
ideal, the quotient no longer changes.  Every module result is read at N by
exact rational Gaussian elimination and re-checked at N+1 by an integer
union-find rank of the same rows, so the check catches a fault of either
kernel as well as a truncation that is too small.

The integral-closure oracle here deliberately avoids the Newton polygon: it
tests membership of powers m^n in I^n, which is what the closure machinery is
validated against.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Sequence

from .errors import InternalInconsistency, NotFiniteColength
from .newton import SimpleFactor, simple_ideal
from .presentation import Presentation2, finite_fitting0
from .staircase import MAX_OUTPUT_SIZE, Monomial, MonomialIdeal, within_budget

# polynomial term: (coefficient, x-exponent, y-exponent)
Term = tuple[int, int, int]
Poly = Sequence[Term]


def truncation_margin() -> int:
    """Degrees past a_0 + b_r at which `module_min_gens` truncates: none.

    m^(a_0+b_r-1) lies in I = Fitt_0 and Fitt_0 R^2 in M, so m^(a_0+b_r) R^2
    lies in mM and degrees below a_0 + b_r hold all of M/mM.
    """
    return 0


class TruncationSpace:
    """Positions of the monomial basis vectors of rank coordinates, degree < n:
    coordinate by coordinate, then by degree, then by x-exponent."""

    def __init__(self, n: int, rank: int = 2):
        if n < 1:
            raise ValueError("truncation degree must be >= 1")
        self.n = n
        self.block = n * (n + 1) // 2
        self.dim = rank * self.block

    def index(self, coord: int, c: int, d: int) -> int | None:
        t = c + d
        return coord * self.block + t * (t + 1) // 2 + c if t < self.n else None


def _rank(
    rows: Iterable[dict[int, Fraction]],
    pivots: dict[int, dict[int, Fraction]] | None = None,
) -> int:
    """Rank of a sparse row collection by fraction-free-ish elimination.

    Given `pivots` from an earlier call, elimination continues on them and
    the result is the rank of the earlier rows and `rows` together.
    """
    if pivots is None:
        pivots = {}
    for row in rows:
        work = dict(row)
        while work:
            lead = max(work)
            pivot = pivots.get(lead)
            if pivot is None:
                coef = work[lead]
                if coef != 1:
                    inv = Fraction(1, 1) / coef
                    work = {c: v * inv for c, v in work.items()}
                pivots[lead] = work
                break
            coef = work.pop(lead)
            for c, v in pivot.items():
                if c == lead:
                    continue
                nv = work.get(c, 0) - coef * v
                if nv:
                    work[c] = nv
                else:
                    work.pop(c, None)
    return len(pivots)


def _module_rows(
    pres: Presentation2,
    space: TruncationSpace,
    min_mult_degree: int,
    max_mult_degree: int | None = None,
) -> Iterator[dict[int, Fraction]]:
    """Rows spanning (monomial multiples of the columns) inside the truncation."""
    n = space.n
    for top, bot in pres.cols:
        low = min(e[0] + e[1] for e in (top, bot) if e is not None)
        stop = n - low if max_mult_degree is None else min(n - low, max_mult_degree + 1)
        for deg in range(min_mult_degree, stop):
            for c in range(deg + 1):
                d = deg - c
                row: dict[int, Fraction] = {}
                for coord, entry in ((0, top), (1, bot)):
                    if entry is None:
                        continue
                    idx = space.index(coord, entry[0] + c, entry[1] + d)
                    if idx is not None:
                        row[idx] = Fraction(1)
                if row:
                    yield row


def _incidence_rank(
    pres: Presentation2,
    space: TruncationSpace,
    min_mult_degree: int,
    max_mult_degree: int | None = None,
    parent: list[int] | None = None,
) -> int:
    """Rank over Q of `_module_rows(pres, space, ...)`, in integers only.

    Each row is a monomial multiple of a column: at most two entries, both 1,
    one in each coordinate.  With the second coordinate's sign flipped, a
    two-entry row is the edge e_i - e_j of a bipartite graph on the positions,
    and a one-entry row e_i is the edge from i to one extra ground position
    (so a component holding a one-entry row is flagged by the ground).  The
    rank of a graph's edge vectors is the number of edges that join two
    components, counted here on a union-find.  The result is the rank that
    these rows add to those already joined in `parent` (a fresh union-find,
    `list(range(space.dim + 1))`, when none is given), so a later call on
    the same `parent` carries on from this one.
    """
    ground = space.dim
    if parent is None:
        parent = list(range(ground + 1))
    n = space.n
    added = 0
    for top, bot in pres.cols:
        low = min(e[0] + e[1] for e in (top, bot) if e is not None)
        stop = n - low if max_mult_degree is None else min(n - low, max_mult_degree + 1)
        for deg in range(min_mult_degree, stop):
            # within one degree, positions run by x-exponent: the multiple
            # x^c y^(deg-c) of an entry sits c past its multiple by y^deg
            ends = [
                index
                for coord, entry in ((0, top), (1, bot))
                if entry is not None
                and (index := space.index(coord, entry[0], entry[1] + deg)) is not None
            ]
            first, second, step = (*ends, 1) if len(ends) == 2 else (ends[0], ground, 0)
            for c in range(deg + 1):
                i = first + c
                while parent[i] != i:
                    parent[i] = i = parent[parent[i]]
                j = second + step * c
                while parent[j] != j:
                    parent[j] = j = parent[parent[j]]
                if i != j:
                    # the larger root wins, so the ground stays a root
                    if i < j:
                        parent[i] = j
                    else:
                        parent[j] = i
                    added += 1
    return added


def _rechecked(
    value: Callable[[int], int], recheck: Callable[[int], int], n: int, what: str
) -> int:
    """value(n), after checking that recheck(n + 1) agrees.  The two readings
    come from the two rank kernels, so the check catches a fault of either as
    well as a truncation that is too small.  The truncation at n + 1 indexes
    the 2 * (n + 1)(n + 2) / 2 monomials of R^2 below it, refused above
    `MAX_OUTPUT_SIZE` before any elimination."""
    within_budget("truncation", (n + 1) * (n + 2), "index entries", MAX_OUTPUT_SIZE)
    got = value(n)
    if got != recheck(n + 1):
        raise InternalInconsistency(
            f"{what}: the Fraction reading at truncation {n} and the union-find"
            f" reading at {n + 1} disagree"
        )
    return got


def module_colength(pres: Presentation2) -> int:
    """Length of R^2 / M: the `Fraction` elimination in a truncation, re-checked
    by the union-find rank at N+1."""
    ideal = finite_fitting0(pres)
    base = max(1, ideal.a0 + ideal.br)

    def value(n: int) -> int:
        space = TruncationSpace(n)
        return space.dim - _rank(_module_rows(pres, space, 0))

    def recheck(n: int) -> int:
        space = TruncationSpace(n)
        return space.dim - _incidence_rank(pres, space, 0)

    return _rechecked(value, recheck, base, "module colength")


def module_min_gens(pres: Presentation2) -> int:
    """Minimal number of generators, as dim of M / mM in a truncation: the
    `Fraction` elimination, re-checked by the union-find rank at N+1."""
    ideal = finite_fitting0(pres)
    base = max(1, ideal.a0 + ideal.br + truncation_margin())

    # each reading ranks mM first, then carries on with the columns
    # themselves, which gives the rank of M

    def value(n: int) -> int:
        space = TruncationSpace(n)
        pivots: dict[int, dict[int, Fraction]] = {}
        shifted = _rank(_module_rows(pres, space, 1), pivots)
        full = _rank(_module_rows(pres, space, 0, 0), pivots)
        return full - shifted

    def recheck(n: int) -> int:
        space = TruncationSpace(n)
        parent = list(range(space.dim + 1))
        _incidence_rank(pres, space, 1, parent=parent)
        return _incidence_rank(pres, space, 0, 0, parent)

    return _rechecked(value, recheck, base, "minimal generator count")


def _poly_rows(polys: Sequence[Poly], space: TruncationSpace) -> Iterator[dict[int, Fraction]]:
    n = space.n
    for poly in polys:
        if not poly:
            continue
        low = min(a + b for _, a, b in poly)
        for deg in range(n - low):
            for c in range(deg + 1):
                d = deg - c
                row: dict[int, Fraction] = {}
                for coef, a, b in poly:
                    idx = space.index(0, a + c, b + d)
                    if idx is not None:
                        row[idx] = row.get(idx, Fraction(0)) + coef
                row = {i: v for i, v in row.items() if v}
                if row:
                    yield row


_POLY_TRUNCATION_CAP = 64


def poly_ideal_colength(gens: Sequence[Poly]) -> int:
    """Length of R / (gens) for sparse polynomial generators, e.g. with x+y.

    The truncation degree grows until two truncations in a row agree, up to
    degree 64.  When single-term generators include x^a and y^b, m^(a+b-1)
    lies in the ideal, so the truncation at a + b - 1 is exact and the search
    stops there; it indexes n(n+1)/2 monomials at degree n, refused above
    `MAX_OUTPUT_SIZE` before any elimination.
    """
    if not gens or all(not g for g in gens):
        raise NotFiniteColength("no generators")
    monomials = [(a, b) for g in gens if len(g) == 1 for coef, a, b in g if coef]
    x_power = min((a for a, b in monomials if b == 0), default=None)
    y_power = min((b for a, b in monomials if a == 0), default=None)
    exact = None if x_power is None or y_power is None else max(1, x_power + y_power - 1)

    def value(n: int) -> int:
        space = TruncationSpace(n, rank=1)
        return space.dim - _rank(_poly_rows(gens, space))

    n = max(a + b for g in gens for _, a, b in g) + 2
    while n <= _POLY_TRUNCATION_CAP and (exact is None or n < exact):
        got = value(n)
        if got == value(n + 1):
            return got
        n = max(n + 2, 2 * n - n // 2)
    if exact is None:
        raise NotFiniteColength(
            f"colength did not stabilize below truncation degree {_POLY_TRUNCATION_CAP}"
        )
    within_budget("truncation", exact * (exact + 1) // 2, "index entries", MAX_OUTPUT_SIZE)
    return value(exact)


def ideal_as_polys(ideal: MonomialIdeal) -> list[Poly]:
    return [[(1, a, b)] for a, b in ideal.gens]


def closure_power_oracle(m: Monomial, ideal: MonomialIdeal, n_max: int) -> bool:
    """Whether m^n lies in I^n for some n <= n_max (power membership test)."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    u, v = m
    power = ideal
    for n in range(1, n_max + 1):
        if power.member((n * u, n * v)):
            return True
        if n < n_max:
            power = power.product(ideal)
    return False


def _primitive_pairs(bound_a: int, bound_b: int) -> list[SimpleFactor]:
    """The primitive pairs in the bounds, by (p, q).  Each is an enumerated ideal
    of min(p, q) + 1 generators, so their sum already counts against the budget,
    before `enumerate_complete` builds each pair's simple closure once."""
    pairs = []
    size = 0
    for p in range(1, bound_a + 1):
        for q in range(1, bound_b + 1):
            if math.gcd(p, q) == 1:
                pairs.append(SimpleFactor(p, q))
                size += min(p, q) + 1
                within_budget("enumeration", size, "generators", MAX_OUTPUT_SIZE)
    return pairs


def enumerate_complete(bound_a: int, bound_b: int) -> Iterator[MonomialIdeal]:
    """All complete m-primary monomial ideals with a_0 <= bound_a, b_r <= bound_b.

    A complete ideal is a product of simple closures, and the exponents of a
    product add, so the enumeration walks multisets of primitive pairs whose
    componentwise sums stay within the bounds.  Each pair's simple closure is
    built once, and the walk carries the ideal down from the unit ideal: a
    child is its parent times one simple closure, so each ideal costs one
    product.  The ideals
    found are all kept, so the walk stops once they hold more than
    `MAX_OUTPUT_SIZE` generators.
    """
    if bound_a < 1 or bound_b < 1:
        raise ValueError("bounds must be >= 1")
    pairs = _primitive_pairs(bound_a, bound_b)
    simple = [simple_ideal(f) for f in pairs]
    found: list[MonomialIdeal] = []
    size = 0

    def walk(start: int, ideal: MonomialIdeal, sum_p: int, sum_q: int):
        nonlocal size
        if sum_p:
            size += len(ideal.gens)
            within_budget("enumeration", size, "generators", MAX_OUTPUT_SIZE)
            found.append(ideal)
        for i in range(start, len(pairs)):
            f = pairs[i]
            if sum_p + f.p > bound_a or sum_q + f.q > bound_b:
                continue
            walk(i, ideal.product(simple[i]), sum_p + f.p, sum_q + f.q)

    walk(0, MonomialIdeal(((0, 0),)), 0, 0)
    found.sort(key=lambda ideal: (ideal.a0, ideal.br, ideal.gens))
    seen = set()
    for ideal in found:
        if ideal.gens in seen:
            raise InternalInconsistency("duplicate ideal in enumeration")
        seen.add(ideal.gens)
        yield ideal
