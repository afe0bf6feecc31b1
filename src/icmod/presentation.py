"""Rank-2 module presentations attached to a staircase ideal.

A presentation is a 2 x m matrix whose entries are single monomials with
coefficient 1 (or empty).  The distinguished family M_k consists of the
columns (x^{a_i-1} y^{b_i}, 0) for i < r followed by (y^k, x) and
(0, y^{b_r-k}); its Fitting ideals stay monomial, which is what the minor
rule below enforces.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import KOutOfRange, NonMonomialMinor, NotFiniteColength, NotMPrimary
from .staircase import Monomial, MonomialIdeal, checked_exponents, unchecked_normalize

Entry = Monomial | None
Column = tuple[Entry, Entry]


class Presentation2(NamedTuple("Presentation2", [("cols", tuple[Column, ...])])):
    """Columns of a 2 x m matrix of optional monomials spanning M inside R^2."""

    __slots__ = ()

    def __new__(cls, cols: tuple[Column, ...]) -> "Presentation2":
        if not cols:
            raise ValueError("a presentation needs at least one column")
        if any(top is None and bot is None for top, bot in cols):
            raise ValueError("all-empty column")
        # checked once, here, by the rule of `normalize`: the Fitting ideals
        # and graded counts trust them
        for _ in checked_exponents(e for col in cols for e in col if e is not None):
            pass
        return tuple.__new__(cls, (cols,))

    @classmethod
    def _make(cls, iterable) -> "Presentation2":  # `_replace` too: checked as in __new__
        return cls(*iterable)


def _checked_br(ideal: MonomialIdeal, k: int) -> int:
    """b_r, after checking that the module parameter k is an int (no bool) in
    1 <= k < b_r."""
    br = ideal.br
    if type(k) is not int:
        raise KOutOfRange(f"k must be an int, got {k!r}")
    if not 1 <= k < br:
        raise KOutOfRange(f"k={k} outside 1 <= k < b_r={br}")
    return br


def build_Mk(ideal: MonomialIdeal, k: int) -> Presentation2:
    """The 2 x (r+2) presentation of M_k(I); requires 1 <= k < b_r and r >= 1.
    Its entries come from the checked staircase, so they are not checked again."""
    if ideal.is_unit or ideal.r < 1:
        raise NotMPrimary("M_k needs a proper m-primary ideal with r >= 1")
    br = _checked_br(ideal, k)
    cols: list[Column] = [((a - 1, b), None) for a, b in ideal.gens[:-1]]
    cols.append(((0, k), (1, 0)))
    cols.append((None, (0, br - k)))
    return tuple.__new__(Presentation2, (tuple(cols),))


def _split(pres: Presentation2) -> tuple[Monomial, list[Monomial], list[Monomial], list[Column]]:
    """The shift s, the entries of the top-only and of the bottom-only columns,
    and the two-entry columns (t, b), which must all have the shift s = t - b.

    Two two-entry columns cancel in their minor iff they share a shift, so each
    is tested against the first, and the first pair (i, j) that differs raises
    `NonMonomialMinor`.  s is (0, 0) if there is no two-entry column.  In the
    grading deg e_0 = (0, 0), deg e_1 = s every column is then homogeneous.
    """
    tops: list[Monomial] = []
    bots: list[Monomial] = []
    both: list[Column] = []
    s, i = (0, 0), 0
    for j, (t, b) in enumerate(pres.cols):
        if b is None:
            tops.append(t)
        elif t is None:
            bots.append(b)
        else:
            shift = (t[0] - b[0], t[1] - b[1])
            if not both:
                s, i = shift, j
            elif shift != s:
                (u, v), (c, d) = both[0]
                raise NonMonomialMinor(
                    f"minor of columns {i},{j} is a binomial: "
                    f"x^{u + b[0]}y^{v + b[1]} - x^{t[0] + c}y^{t[1] + d}"
                )
            both.append((t, b))
    return s, tops, bots, both


def fitting0(pres: Presentation2) -> MonomialIdeal:
    """Ideal of all 2x2 minors, which must each be zero or a single monomial.

    The minor t_i b_j - t_j b_i of columns i < j has a term only where one
    column has a top entry and the other a bottom entry, so only those
    products are formed: for M_k, 2r + 1 of them, not (r+2)(r+1)/2 pair tests.
    Two two-entry columns cancel, as `_split` checks.
    """
    _, tops, bots, both = _split(pres)
    gens = [(a + c, b + d) for a, b in tops for c, d in bots]
    for (u, v), (c, d) in both:
        gens += [(a + c, b + d) for a, b in tops]
        gens += [(a + u, b + v) for a, b in bots]
    if not gens:
        raise NotMPrimary("all 2x2 minors vanish; Fitt_0 is the zero ideal")
    return unchecked_normalize(gens)


def finite_fitting0(pres: Presentation2) -> MonomialIdeal:
    """Fitt_0 of a module of finite colength: a zero Fitt_0 is NotFiniteColength."""
    try:
        return fitting0(pres)
    except NotMPrimary as exc:
        raise NotFiniteColength(str(exc)) from exc


def fitting1(pres: Presentation2) -> MonomialIdeal:
    """Ideal generated by all nonzero matrix entries."""
    gens = [e for col in pres.cols for e in col if e is not None]
    return unchecked_normalize(gens)


def ell_value(ideal: MonomialIdeal, k: int) -> int:
    """min{b_{r-1}, k, b_r - k}, the y-exponent of Fitt_1(M_k)."""
    br = _checked_br(ideal, k)
    return min(ideal.gens[-2][1], k, br - k)


def graded_colength(pres: Presentation2, fit0: MonomialIdeal | None = None) -> int:
    """Length of R^2 / M from the exact sequence of the projection p_0 onto
    e_0, with K the kernel of p_0 on M, the part of M in R e_1,

        0 -> R e_1 / K -> R^2 / M -> R / p_0(M) -> 0,

    so it is the sum of two staircase colengths, with no truncation.  p_0(M)
    is the ideal of the top entries.  K is monomial: in each degree D of the
    grading of `_split` the column multiples are e_0 (top only), e_1 (bottom
    only) or e_0 + e_1 (both), so e_1 lies in M_D when a bottom-only column,
    or a top-only and a two-entry column, reach D.  K is generated by the
    bottom-only entries and lcm(t - s, b') for each top-only t and two-entry
    (t', b').  Fitt_0 lies in both ideals, so both staircases are m-primary;
    `finite_fitting0` shows it unless the caller has Fitt_0 as `fit0`.
    """
    if fit0 is None:
        finite_fitting0(pres)
    (du, dv), tops, bots, both = _split(pres)
    kernel = bots + [(max(a - du, c), max(b - dv, d)) for a, b in tops for _, (c, d) in both]
    image = unchecked_normalize(tops + [t for t, _ in both])
    return image.colength() + unchecked_normalize(kernel).colength()


def graded_min_gens(pres: Presentation2, fit0: MonomialIdeal | None = None) -> int:
    """mu(M) = sum over column degrees D of dim (M / mM)_D, in the grading of
    `_split`, once Fitt_0 (`fit0`, else `finite_fitting0`) shows R^2 / M of
    finite length.

    The column multiples in degree D keep their columns' supports and span
    min(2, distinct supports), as R^2 has dimension <= 2 there.  (mM)_D is
    spanned by those of the columns of degree < D, so one scan per D collects
    both sets of supports, as bit masks: 1 = top only, 2 = bottom only, 3 = both.
    """
    if fit0 is None:
        finite_fitting0(pres)
    (du, dv), tops, bots, both = _split(pres)
    cols = [(t, 1) for t in tops]
    cols += [((a + du, b + dv), 2) for a, b in bots]
    cols += [(t, 3) for t, _ in both]
    mu = 0
    for deg in {deg for deg, _ in cols}:
        u, v = deg
        upto = below = 0  # bit `kind` set for each support seen
        for (a, b), kind in cols:
            if a <= u and b <= v:
                upto |= 1 << kind
                if (a, b) != deg:
                    below |= 1 << kind
        mu += min(2, upto.bit_count()) - min(2, below.bit_count())
    return mu
