"""Rank-2 module presentations attached to a staircase ideal.

A presentation is a 2 x m matrix whose entries are single monomials with
coefficient 1 (or empty).  The distinguished family M_k consists of the
columns (x^{a_i-1} y^{b_i}, 0) for i < r followed by (y^k, x) and
(0, y^{b_r-k}); its Fitting ideals stay monomial, which is what the minor
rule below enforces.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import KOutOfRange, NonMonomialMinor, NotFiniteColength, NotMPrimary
from .staircase import Monomial, MonomialIdeal, normalize

Entry = Monomial | None
Column = tuple[Entry, Entry]


@dataclass(frozen=True)
class Presentation2:
    """Columns of a 2 x m matrix of optional monomials spanning M inside R^2."""

    cols: tuple[Column, ...]

    def __post_init__(self):
        if not self.cols:
            raise ValueError("a presentation needs at least one column")
        if any(top is None and bot is None for top, bot in self.cols):
            raise ValueError("all-empty column")


def _checked_br(ideal: MonomialIdeal, k: int) -> int:
    """b_r, after checking that the module parameter k lies in 1 <= k < b_r."""
    br = ideal.br
    if not 1 <= k < br:
        raise KOutOfRange(f"k={k} outside 1 <= k < b_r={br}")
    return br


def build_Mk(ideal: MonomialIdeal, k: int) -> Presentation2:
    """The 2 x (r+2) presentation of M_k(I); requires 1 <= k < b_r and r >= 1."""
    if ideal.is_unit or ideal.r < 1:
        raise NotMPrimary("M_k needs a proper m-primary ideal with r >= 1")
    br = _checked_br(ideal, k)
    cols: list[Column] = []
    for a, b in ideal.gens[:-1]:
        cols.append(((a - 1, b), None))
    cols.append(((0, k), (1, 0)))
    cols.append((None, (0, br - k)))
    return Presentation2(tuple(cols))


def _mul(m1: Monomial, m2: Monomial) -> Monomial:
    return (m1[0] + m2[0], m1[1] + m2[1])


def fitting0(pres: Presentation2) -> MonomialIdeal:
    """Ideal of all 2x2 minors, which must each be zero or a single monomial."""
    gens: list[Monomial] = []
    cols = pres.cols
    for i in range(len(cols)):
        ti, bi = cols[i]
        for j in range(i + 1, len(cols)):
            tj, bj = cols[j]
            m1 = _mul(ti, bj) if ti is not None and bj is not None else None
            m2 = _mul(tj, bi) if tj is not None and bi is not None else None
            if m1 is not None and m2 is not None:
                if m1 != m2:
                    raise NonMonomialMinor(
                        f"minor of columns {i},{j} is a binomial: "
                        f"x^{m1[0]}y^{m1[1]} - x^{m2[0]}y^{m2[1]}"
                    )
                continue  # the two terms cancel
            m = m1 if m1 is not None else m2
            if m is not None:
                gens.append(m)
    if not gens:
        raise NotMPrimary("all 2x2 minors vanish; Fitt_0 is the zero ideal")
    return normalize(gens)


def finite_fitting0(pres: Presentation2) -> MonomialIdeal:
    """Fitt_0 of a module of finite colength: a zero Fitt_0 is NotFiniteColength."""
    try:
        return fitting0(pres)
    except NotMPrimary as exc:
        raise NotFiniteColength(str(exc)) from exc


def fitting1(pres: Presentation2) -> MonomialIdeal:
    """Ideal generated by all nonzero matrix entries."""
    gens = [e for col in pres.cols for e in col if e is not None]
    return normalize(gens)


def ell_value(ideal: MonomialIdeal, k: int) -> int:
    """min{b_{r-1}, k, b_r - k}, the y-exponent of Fitt_1(M_k)."""
    br = _checked_br(ideal, k)
    return min(ideal.bvec[-2], k, br - k)


def _graded_columns(
    pres: Presentation2,
) -> tuple[MonomialIdeal, Monomial, list[tuple[Monomial, int]]]:
    """Fitt_0, the shift s and each column's (degree, support) in the grading.

    The grading is deg e_0 = (0, 0), deg e_1 = s, with s = top - bottom of a
    two-entry column ((0, 0) if there is none), so every column is
    homogeneous.  It is consistent: two two-entry columns (t1, b1), (t2, b2)
    with shifts s1 != s2 have the minor t1*b2 - t2*b1, whose two terms have
    the distinct exponents b1+b2+s1 and b1+b2+s2: a binomial, on which
    `fitting0` raises `NonMonomialMinor`.  That call comes first, so there
    is no fallback for presentations without a consistent grading.
    Support is a bitmask: 1 = top row only, 2 = bottom only, 3 = both.
    """
    ideal = finite_fitting0(pres)
    s = next(
        ((t[0] - b[0], t[1] - b[1]) for t, b in pres.cols if t is not None and b is not None),
        (0, 0),
    )
    cols: list[tuple[Monomial, int]] = []
    for top, bot in pres.cols:
        if bot is None:
            cols.append((top, 1))
        else:
            cols.append(((bot[0] + s[0], bot[1] + s[1]), 2 if top is None else 3))
    return ideal, s, cols


def _graded_rank(cols: list[tuple[Monomial, int]], deg: Monomial, below: bool = False) -> int:
    """rank M_deg (or, with below, of its part from columns of degree < deg).

    R^2 has dimension <= 2 in each degree, and a monomial multiple of a
    column keeps the column's support, so the column multiples landing in
    degree deg span min(2, number of distinct supports among them).
    """
    u, v = deg
    kinds = {
        kind for (a, b), kind in cols if a <= u and b <= v and not (below and (a, b) == deg)
    }
    return min(2, len(kinds))


def graded_colength(pres: Presentation2) -> int:
    """Length of R^2 / M as a sum of exact graded ranks, no truncation.

    x^a_0 and y^b_r lie in Fitt_0, which annihilates R^2 / M, so the quotient
    vanishes outside the box [0, a_0) x [0, b_r) and its translate by s.  A
    sweep by ascending u over the strips between 0, a_0, their shifts by s_0
    and the column degrees keeps each support kind's least b among the
    columns with a <= u; the rank at row v is min(2, how many are <= v).
    Those b and the rows 0, b_r and their shifts by s_1 cut each strip into
    cells on which the box, dim R^2 and the rank are constant, and each cell
    adds its area times dim - rank: O(r log r) work, whatever a_0 and b_r.
    """
    ideal, s, cols = _graded_columns(pres)
    boxes = ((0, 0), s)
    us = sorted({d + c for d in (0, s[0]) for c in (0, ideal.a0)} | {a for (a, _), _ in cols})
    rows = {d + c for d in (0, s[1]) for c in (0, ideal.br)}
    by_a = sorted(cols)
    least_b: dict[int, int] = {}
    nxt = 0
    total = 0
    for u, u_end in zip(us, us[1:]):
        while nxt < len(by_a) and by_a[nxt][0][0] <= u:
            (_, b), kind = by_a[nxt]
            least_b[kind] = min(b, least_b.get(kind, b))
            nxt += 1
        vs = sorted(rows | set(least_b.values()))
        for v, v_end in zip(vs, vs[1:]):
            if any(du <= u < du + ideal.a0 and dv <= v < dv + ideal.br for du, dv in boxes):
                dim = (u >= 0 and v >= 0) + (u >= s[0] and v >= s[1])
                rank = min(2, sum(b <= v for b in least_b.values()))
                total += (u_end - u) * (v_end - v) * (dim - rank)
    return total


def graded_min_gens(pres: Presentation2) -> int:
    """mu(M) = sum over column degrees D of dim (M / mM)_D.

    (mM)_D is spanned by the multiples of the columns of degree < D, so
    dim (M / mM)_D = rank M_D - rank(columns of degree < D).
    """
    _, _, cols = _graded_columns(pres)
    return sum(
        _graded_rank(cols, deg) - _graded_rank(cols, deg, below=True)
        for deg in {deg for deg, _ in cols}
    )
