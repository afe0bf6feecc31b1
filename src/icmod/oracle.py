"""Independent brute-force oracles.

The module length and minimal generator count are ranks of spanning rows in
one exact finite quotient.  Let F = R^2 and I = Fitt_0(F/M).  Then IF lies in
M (Eisenbud, GTM 150, Prop. 20.7), and x^a_0, y^b_r lie in I, so B =
(x^(a_0+1), y^(b_r+1)) gives BF in mIF, in mM, in M.  F/BF is the box of the
monomials x^c y^d, c <= a_0, d <= b_r, in each coordinate, and there
dim M/mM = rank(M) - rank(mM) and length(F/M) = dim(F/BF) - rank(M).  The
rows are the monomial multiples of the columns reduced mod BF, and two
kernels rank the same rows: exact rational Gaussian elimination, and an
integer union-find, since the rows are the incidence rows of a graph
(Godsil-Royle, GTM 207, Sec. 8.2).  They share no elimination, so a fault in
either shows as a disagreement.  Lengths of polynomial ideals are ranks over
truncations R / m^N.

The integral-closure oracle here deliberately avoids the Newton polygon: it
tests membership of powers m^n in I^n, which is what the closure machinery is
validated against.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .errors import InternalInconsistency, NotFiniteColength
from .newton import SimpleFactor, simple_ideal
from .presentation import Presentation2, finite_fitting0
from .staircase import MAX_OUTPUT_SIZE, Monomial, MonomialIdeal, within_budget

# polynomial term: (coefficient, x-exponent, y-exponent)
Term = tuple[int, int, int]
Poly = Sequence[Term]


def truncation_margin() -> int:
    """0.  Kept only for the benchmark's span observer, which reports
    n(n + 1), n = a_0 + b_r + this margin, as `oracle.truncation_dim`; the
    module oracles rank in the box of the module docstring and read no
    margin."""
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


def _box_ends(pres: Presentation2, a: int, b: int) -> Iterator[list[tuple[int, int, int]]]:
    """For each column, the entries that lie in the box c <= a, d <= b of F:
    each as its position and how far x and y can move it inside the box.

    x^c y^d in coordinate `coord` sits at coord * block + d * (a + 1) + c,
    block = (a + 1)(b + 1).
    """
    width = a + 1
    block = width * (b + 1)
    for col in pres.cols:
        yield [
            (coord * block + e[1] * width + e[0], a - e[0], b - e[1])
            for coord, e in enumerate(col)
            if e is not None and e[0] <= a and e[1] <= b
        ]


def _box_row_count(pres: Presentation2, a: int, b: int) -> int:
    """How many rows `_box_rows` lists, in O(columns): the multiples that keep
    an entry in the box form a rectangle anchored at x^0 y^0, and a two-entry
    column lists the union of its two rectangles."""
    count = 0
    for ends in _box_ends(pres, a, b):
        count += sum((w + 1) * (h + 1) for _, w, h in ends)
        if len(ends) == 2:
            (_, w1, h1), (_, w2, h2) = ends
            count -= (min(w1, w2) + 1) * (min(h1, h2) + 1)
    return count


def _box_rows(pres: Presentation2, a: int, b: int, shifted: bool) -> Iterator[tuple[int, int]]:
    """The monomial multiples of the columns reduced mod BF, B = (x^(a+1),
    y^(b+1)): the multiples by m (the rows of mM) when `shifted`, else the
    columns themselves.  An entry outside the box is 0 mod BF, and a multiple
    with none inside is 0 and not listed.  A row is the pair of its entries'
    positions, the second the ground position 2(a + 1)(b + 1) when only one
    entry is left."""
    width = a + 1
    ground = 2 * width * (b + 1)
    for ends in _box_ends(pres, a, b):
        if not ends:
            continue
        # a one-entry column gets a second entry that never lands in the box
        (p, pc, pd), (q, qc, qd) = ends if len(ends) == 2 else (*ends, (ground, -1, -1))
        if not shifted:
            yield p, q
            continue
        for d in range(max(pd, qd) + 1):
            for c in range(0 if d else 1, max(pc, qc) + 1):
                keeps_p = c <= pc and d <= pd
                keeps_q = c <= qc and d <= qd
                if keeps_p:
                    yield p + d * width + c, q + d * width + c if keeps_q else ground
                elif keeps_q:
                    yield q + d * width + c, ground


def _incidence_rank(rows: Iterable[tuple[int, int]], parent: list[int]) -> int:
    """Rank over Q of the rows of `_box_rows`, in integers only.

    The two entries of a row lie in different coordinates, so with the second
    coordinate's sign flipped a row is the edge e_i - e_j of a bipartite
    graph on the positions, and a one-entry row is the edge from its position
    to the ground, the last position of the union-find `parent`.  The rank of
    a graph's edge vectors is the number of edges that join two components,
    so the result is the rank these rows add to those already joined there.
    """
    added = 0
    for i, j in rows:
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]
        while parent[j] != j:
            parent[j] = j = parent[parent[j]]
        if i != j:
            # either root may win without changing the count; the larger does
            if i < j:
                parent[i] = j
            else:
                parent[j] = i
            added += 1
    return added


def _box_ranks(pres: Presentation2, a: int, b: int) -> tuple[int, int, int]:
    """dim F/BF, rank(mM) and rank(M) in the box c <= a, d <= b of F = R^2.

    Both kernels rank the rows of mM and then carry on with the columns
    themselves, which gives the rank of M; they must agree on both ranks.
    The box's positions and rows count against `MAX_OUTPUT_SIZE` first.
    """
    dim = 2 * (a + 1) * (b + 1)
    within_budget("module oracle box", dim, "index entries", MAX_OUTPUT_SIZE)
    within_budget("module oracle box", _box_row_count(pres, a, b), "rows", MAX_OUTPUT_SIZE)
    pivots: dict[int, dict[int, Fraction]] = {}
    parent = list(range(dim + 1))
    incidence = 0
    ranks = []
    for shifted in (True, False):
        rows = (
            {i: Fraction(1), j: Fraction(1)} if j < dim else {i: Fraction(1)}
            for i, j in _box_rows(pres, a, b, shifted)
        )
        fraction = _rank(rows, pivots)
        incidence += _incidence_rank(_box_rows(pres, a, b, shifted), parent)
        if fraction != incidence:
            raise InternalInconsistency(
                f"module oracle: the Fraction elimination ranks {'mM' if shifted else 'M'}"
                f" at {fraction} and the union-find at {incidence}; the two kernels disagree"
            )
        ranks.append(fraction)
    return dim, ranks[0], ranks[1]


def module_colength(pres: Presentation2) -> int:
    """Length of R^2 / M: dim F/BF - rank(M), with B from Fitt_0."""
    ideal = finite_fitting0(pres)
    dim, _, full = _box_ranks(pres, ideal.a0, ideal.br)
    return dim - full


def module_min_gens(pres: Presentation2) -> int:
    """Minimal number of generators: dim M/mM = rank(M) - rank(mM) in F/BF,
    with B from Fitt_0."""
    ideal = finite_fitting0(pres)
    _, shifted, full = _box_ranks(pres, ideal.a0, ideal.br)
    return full - shifted


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
    product.  The ideals found are all kept, so the walk stops once they hold
    more than `MAX_OUTPUT_SIZE` generators.
    """
    if bound_a < 1 or bound_b < 1:
        raise ValueError("bounds must be >= 1")
    pairs = _primitive_pairs(bound_a, bound_b)
    simple = [simple_ideal(f) for f in pairs]
    found: list[MonomialIdeal] = []
    size = 0
    # depth first on an explicit stack of (first pair, ideal, sum_p, sum_q),
    # children pushed in reverse so that they pop in pair order
    stack = [(0, MonomialIdeal(((0, 0),)), 0, 0)]
    while stack:
        start, ideal, sum_p, sum_q = stack.pop()
        if sum_p:
            size += len(ideal.gens)
            within_budget("enumeration", size, "generators", MAX_OUTPUT_SIZE)
            found.append(ideal)
        for i in reversed(range(start, len(pairs))):
            f = pairs[i]
            if sum_p + f.p <= bound_a and sum_q + f.q <= bound_b:
                stack.append((i, ideal.product(simple[i]), sum_p + f.p, sum_q + f.q))
    found.sort(key=lambda ideal: (ideal.a0, ideal.br, ideal.gens))
    seen = set()
    for ideal in found:
        if ideal.gens in seen:
            raise InternalInconsistency("duplicate ideal in enumeration")
        seen.add(ideal.gens)
        yield ideal
