"""Independent brute-force oracles.

The module length and minimal generator count are ranks of spanning rows in
one exact finite quotient.  Let F = R^2 and I = Fitt_0(F/M).  Then IF lies in
M (Eisenbud, GTM 150, Prop. 20.7), and x^a_0, y^b_r lie in I, so B =
(x^(a_0+1), y^(b_r+1)) gives BF in mIF, in mM, in M.  F/BF is the box of the
monomials x^c y^d, c <= a_0, d <= b_r, in each coordinate, and there
dim M/mM = rank(M) - rank(mM) and length(F/M) = dim(F/BF) - rank(M).  The
rows are the monomial multiples of the columns reduced mod BF, with entries
1, so they are the incidence rows of a graph (Godsil-Royle, GTM 207, Sec.
8.2), and their rank is counted.  A row left with one entry joins its
position to the ground.  A row that keeps both entries of a column (t, b)
joins z to z + gap, where the gap between the positions of t and b depends
only on the shift t - b.  Every two-entry column has the same shift, as a
second one puts a binomial minor in Fitt_0 (`presentation._graded_columns`),
so those rows form a matching, and ground edges plus a matching have rank
|G| + |D| - #{z in D : z, z + gap in G}, G the grounded positions and D the
matched z: an edge of the matching closes a cycle only through the ground.
Nothing is read from the graded counts: the tests rank the same rows by the
exact rational elimination `_rank` as the reference, and the certificate
verifier compares the oracle with the graded counts of the decision.
Lengths of polynomial ideals are ranks over truncations R / m^N, by `_pivots`,
searched from the least degree N that the ideal's restrictions to the axes
allow.

The integral-closure oracle here deliberately avoids the Newton polygon: it
tests membership of powers m^n in I^n, which is what the closure machinery is
validated against.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Collection, Iterable, Iterator, Sequence

from .errors import InternalInconsistency, NotFiniteColength
from .newton import SimpleFactor, simple_ideal
from .presentation import Presentation2, finite_fitting0
from .staircase import MAX_MASK_BITS, MAX_OUTPUT_SIZE, Monomial, MonomialIdeal, within_budget

# polynomial term: (coefficient, x-exponent, y-exponent)
Term = tuple[int, int, int]
Poly = Sequence[Term]


def truncation_margin() -> int:
    """0.  Kept only for the benchmark's span observer, which reports
    n(n + 1), n = a_0 + b_r + this margin, as `oracle.truncation_dim`; the
    module oracles rank in the box of the module docstring and read no
    margin."""
    return 0


def _pivots(rows: Iterable[dict[int, int | Fraction]]) -> Collection[int]:
    """Pivot positions of sparse `int` or `Fraction` rows by exact elimination over Q: each is
    its row's least position, scaled to lead 1, so only a lead other than 1 makes `Fraction`s."""
    pivots: dict[int, dict[int, int | Fraction]] = {}
    for row in rows:
        work = dict(row)
        while work:
            lead = min(work)
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
    return pivots.keys()


def _rank(rows: Iterable[dict[int, int | Fraction]]) -> int:
    return len(_pivots(rows))  # the rank over Q


def _rectangle(width: int, w: int, h: int) -> int:
    """The bits d * width + c with c <= w, d <= h: one row of w + 1 bits,
    doubled until it has h + 1 rows or more, then cut to h + 1."""
    mask, rows = (1 << w + 1) - 1, 1
    while rows <= h:
        mask |= mask << rows * width
        rows *= 2
    return mask & (1 << (h + 1) * width) - 1


def _graph_rank(ground: int, matched: int, gap: int) -> int:
    """Rank of the edges from the positions of `ground` to the ground and
    from each z of `matched` to z + gap, all of them one bit per position.
    The second kind is a matching, so each of its edges adds 1 unless both
    ends already reach the ground."""
    return ground.bit_count() + matched.bit_count() - (matched & ground & ground >> gap).bit_count()


def _box_ranks(pres: Presentation2, a: int, b: int) -> tuple[int, int, int]:
    """dim F/BF, rank(mM) and rank(M) in the box c <= a, d <= b of F = R^2.

    The rows of mM are the multiples x^c y^d != 1 of the columns mod BF, B =
    (x^(a+1), y^(b+1)), where an entry outside the box is 0.  Those left with
    one entry join it to the ground: each multiple of a one-entry column,
    and each multiple of a two-entry column outside the corner c <= min(pc,
    qc), d <= min(pd, qd) where both entries stay.  The corner's multiples
    join p + o to q + o, o = d(a + 1) + c, a gap q - p that is the same for
    every two-entry column (module docstring), so they form a matching.

    Each column is kept as its entries that lie in the box: an entry x^c y^d
    of coordinate `coord` is its position coord * (a + 1)(b + 1) + d(a + 1)
    + c and how far x and y can move it inside the box, so the multiples
    that keep it form a rectangle anchored at the entry.  A repeated column
    adds no rank and is kept once.  The box's positions count against
    `MAX_OUTPUT_SIZE`, and then the mask bits, positions times distinct
    columns, against `MAX_MASK_BITS`, before any mask is built.
    """
    width = a + 1
    block = width * (b + 1)
    dim = 2 * block
    within_budget("module oracle box", dim, "index entries", MAX_OUTPUT_SIZE)
    distinct = set()
    for top, bottom in pres.cols:
        ends = ()
        if top is not None and top[0] <= a and top[1] <= b:
            ends = ((top[1] * width + top[0], a - top[0], b - top[1]),)
        if bottom is not None and bottom[0] <= a and bottom[1] <= b:
            ends += ((block + bottom[1] * width + bottom[0], a - bottom[0], b - bottom[1]),)
        distinct.add(ends)
    within_budget("module oracle box", len(distinct) * dim, "mask bits", MAX_MASK_BITS)
    ground = matched = ground_columns = matched_columns = 0
    gaps = set()
    for ends in distinct:
        if len(ends) == 1:
            ((p, pc, pd),) = ends
            ground |= (_rectangle(width, pc, pd) ^ 1) << p
            ground_columns |= 1 << p
        elif ends:
            (p, pc, pd), (q, qc, qd) = ends
            corner = _rectangle(width, min(pc, qc), min(pd, qd))
            ground |= (_rectangle(width, pc, pd) ^ corner) << p
            ground |= (_rectangle(width, qc, qd) ^ corner) << q
            matched |= (corner ^ 1) << p
            matched_columns |= 1 << p
            gaps.add(q - p)
    if len(gaps) > 1:
        raise InternalInconsistency(f"two-entry columns of different shifts: gaps {sorted(gaps)}")
    gap = gaps.pop() if gaps else 0
    shifted = _graph_rank(ground, matched, gap)
    return dim, shifted, _graph_rank(ground | ground_columns, matched | matched_columns, gap)


def module_colength(pres: Presentation2, fit0: MonomialIdeal | None = None) -> int:
    """Length of R^2 / M: dim F/BF - rank(M), with B from Fitt_0, read from
    `fit0` when the caller has it."""
    ideal = finite_fitting0(pres) if fit0 is None else fit0
    dim, _, full = _box_ranks(pres, ideal.a0, ideal.br)
    return dim - full


def module_min_gens(pres: Presentation2, fit0: MonomialIdeal | None = None) -> int:
    """Minimal number of generators: dim M/mM = rank(M) - rank(mM) in F/BF,
    B as in `module_colength`."""
    ideal = finite_fitting0(pres) if fit0 is None else fit0
    _, shifted, full = _box_ranks(pres, ideal.a0, ideal.br)
    return full - shifted


def _poly_rows(polys: Sequence[Poly], n: int) -> Iterator[dict[int, Fraction]]:
    """The monomial multiples of the generators in R / m^n, where x^c y^d of
    degree t = c + d < n sits at t(t + 1)/2 + c."""
    for poly in polys:
        if not poly:
            continue
        low = min(a + b for _, a, b in poly)
        for deg in range(n - low):
            for c in range(deg + 1):
                row: dict[int, Fraction] = {}
                for coef, a, b in poly:
                    t = a + b + deg
                    if t < n:
                        idx = t * (t + 1) // 2 + a + c
                        row[idx] = row.get(idx, Fraction(0)) + coef
                row = {i: v for i, v in row.items() if v}
                if row:
                    yield row


_POLY_TRUNCATION_CAP = 64


def poly_ideal_colength(gens: Sequence[Poly]) -> int:
    """Length of R / (gens) for sparse polynomial generators, e.g. with x+y.

    The truncation degree grows until two truncations in a row agree (then
    m^n lies in the ideal by Nakayama), up to degree 64: cut below degree n,
    the rows at n + 1 are those at n, and a pivot row starts at its pivot, so
    one elimination at n + 1 gives both.  The search starts at n0 = max(s_x,
    s_y), s_x and s_y the least degrees of a nonzero term of some g(x, 0) and
    g(0, y): setting x = 0, m^n in I + m^(n+1) puts y^n in (y^s_y) + (y^(n+1)),
    so no test passes below n0.  It grows 1.5-fold up to the largest degree
    + 2, then 1.5-fold by at least 2.  With x^a and y^b among single-term
    generators, m^(a+b-1) lies in the ideal, so the truncation at a + b - 1 is
    exact: the search runs past 64 and stops there.  A truncation R / m^n has
    n(n+1)/2 monomials and (n - low)(n - low + 1)/2 rows for a generator of
    least degree low; both counts, at n and n + 1, are refused above
    `MAX_OUTPUT_SIZE` before any elimination.
    """
    if not gens or all(not g for g in gens):
        raise NotFiniteColength("no generators")
    monomials = [(a, b) for g in gens if len(g) == 1 for coef, a, b in g if coef]
    x_power = min((a for a, b in monomials if b == 0), default=None)
    y_power = min((b for a, b in monomials if a == 0), default=None)
    exact = None if x_power is None or y_power is None else max(1, x_power + y_power - 1)
    lows = [min(a + b for _, a, b in g) for g in gens if g]
    axes: list[dict[tuple[int, int], int]] = [{}, {}]  # g(x, 0) and g(0, y) by (g, degree)
    for i, g in enumerate(gens):
        for coef, a, b in g:
            for axis, off_axis in zip(axes, (b, a)):
                if not off_axis:
                    axis[i, a + b] = axis.get((i, a + b), 0) + coef
    orders = [min((t for (_, t), coef in axis.items() if coef), default=None) for axis in axes]

    def dim(n: int) -> int:
        positions = n * (n + 1) // 2
        within_budget("truncation", positions, "index entries", MAX_OUTPUT_SIZE)
        rows = sum((n - low) * (n - low + 1) // 2 for low in lows if low < n)
        within_budget("truncation", rows, "rows", MAX_OUTPUT_SIZE)
        return positions

    first = max(a + b for g in gens for _, a, b in g) + 2
    # a restriction that vanishes puts I in (x) or (y): past the cap at once
    n = _POLY_TRUNCATION_CAP + 1 if None in orders else max(1, *orders)
    while n < exact if exact is not None else n <= _POLY_TRUNCATION_CAP:
        dim_n, dim_next = dim(n), dim(n + 1)
        of_degree_n = [p >= dim_n for p in _pivots(_poly_rows(gens, n + 1))]
        if sum(of_degree_n) == dim_next - dim_n:  # m^n lies in I + m^(n+1)
            return dim_next - len(of_degree_n)
        n = min(first, max(n + 1, 2 * n - n // 2)) if n < first else max(n + 2, 2 * n - n // 2)
    if exact is None:
        raise NotFiniteColength(
            f"colength did not stabilize below truncation degree {_POLY_TRUNCATION_CAP}"
        )
    return dim(exact) - _rank(_poly_rows(gens, exact))


def ideal_as_polys(ideal: MonomialIdeal) -> list[Poly]:
    return [[(1, a, b)] for a, b in ideal.gens]


def closure_power_oracle(m: Monomial, ideal: MonomialIdeal, n_max: int) -> bool:
    """Whether m^n lies in I^n for some n <= n_max (power membership test).

    `_powers` keeps the powers of the last (I, n_max) asked about, so a sweep
    over the points of one ideal forms n_max - 1 products in all."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    u, v = m
    return any(power.member((n * u, n * v)) for n, power in enumerate(_powers(ideal, n_max), 1))


@functools.lru_cache(maxsize=1)
def _powers(ideal: MonomialIdeal, n_max: int) -> tuple[MonomialIdeal, ...]:
    """I, I^2, ..., I^n_max, each the one before times I."""
    powers = [ideal]
    for _ in range(n_max - 1):
        powers.append(powers[-1].product(ideal))
    return tuple(powers)


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
