"""Exact arithmetic on m-primary monomial ideals in two variables.

An ideal is stored as its staircase: the antichain of minimal generator
exponent pairs (a, b) for x^a y^b, sorted by strictly decreasing a (hence
strictly increasing b).  All values are immutable and every operation is a
pure function, so they can be shared freely across threads.
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple

from .errors import NotMPrimary, SizeBudgetExceeded

Monomial = tuple[int, int]

# Size budgets, checked before the work they bound starts; the costs at each
# cap are from Python 3.11 on a 2 vCPU VM.  A product walks one corner sum per
# generator pair, len(gens) * len(other.gens) of them, and keeps the least b
# per distinct a: m^999 * m^999 (1,999 distinct sums) takes 0.05 s and adds
# under 1 MB, and two staircases whose million sums are all distinct take
# 0.12 s and 110 MB.  A closure emits 1 + sum of min(dp, dq) over its hull
# edges corners (that of (x^999999, y^999999) takes 0.14 s and 140 MB), a
# figure draws a_0 + b_r + 2 axis ticks (an 85 MB figure in 0.2 s and 130 MB),
# the module oracles count the 2(a_0 + 1)(b_r + 1) positions of their box
# (at k = 1, (x^140000, x*y, y^2) has 840,006: under 0.01 s and 15 MB) and the
# bits of their masks, one box-wide mask per distinct column, which the count
# walks: M_k has at most min(a_0, b_r) + 2 columns, so at most 708 in a box
# within the positions cap (m^700 at k = 1, 702 columns in 982,802 positions,
# takes 0.06 s and 16 MB), while at the mask cap 1,000 distinct columns near
# the origin of 999,698 positions take 0.08 s with one entry each and 0.28 s
# with two, at 16 MB; the polynomial oracle counts the n(n + 1)/2 monomials
# of each truncation degree n and its rows, one per monomial multiple of a
# generator (x, y^1413, searched from its axis orders straight at the exact
# degree 1413, has 997,578 rows there: 5 s and 345 MB), and an enumeration
# keeps every generator of the ideals it builds.
MAX_PRODUCT_CANDIDATES = 1_000_000
MAX_OUTPUT_SIZE = 1_000_000
MAX_MASK_BITS = 1_000_000_000


def within_budget(what: str, count: int, unit: str, budget: int) -> None:
    """Refuse, before doing it, work that would handle more than `budget` units."""
    if count > budget:
        raise SizeBudgetExceeded(
            f"{what} could form {count} {unit}, more than the budget of {budget}"
        )


def _corners(best: dict[int, int]) -> tuple[Monomial, ...]:
    """The staircase of the points (a, best[a]): one pass over ascending a keeps
    the strict prefix minima of b, returned by a descending."""
    out: list[Monomial] = []
    min_b: int | None = None
    for a in sorted(best):
        b = best[a]
        if min_b is None or b < min_b:
            out.append((a, b))
            min_b = b
    out.reverse()
    return tuple(out)


def checked_exponents(points: Iterable[Monomial]) -> Iterator[Monomial]:
    """Each point, once it is shown to be a pair of nonnegative ints; a bool,
    a float or any other type is a ValueError, not converted."""
    for a, b in points:
        if type(a) is not int or type(b) is not int or a < 0 or b < 0:
            raise ValueError(f"exponents must be nonnegative integers, got {(a, b)}")
        yield a, b


class MonomialIdeal(NamedTuple):
    """Canonical antichain of staircase corners of an m-primary monomial ideal.

    The unit ideal is representable as gens == ((0, 0),) for internal use in
    factor reconstruction; operations that need a proper ideal reject it.
    """

    gens: tuple[Monomial, ...]

    @property
    def r(self) -> int:
        return len(self.gens) - 1

    @property
    def a0(self) -> int:
        return self.gens[0][0]

    @property
    def br(self) -> int:
        return self.gens[-1][1]

    @property
    def is_unit(self) -> bool:
        return self.gens == ((0, 0),)

    def member(self, m: Monomial) -> bool:
        u, v = m
        return any(a <= u and b <= v for a, b in self.gens)

    def contains(self, other: "MonomialIdeal") -> bool:
        return all(self.member(g) for g in other.gens)

    def product(self, other: "MonomialIdeal") -> "MonomialIdeal":
        """Staircase of the n*m corner sums, keeping the least b per a.  Both
        operands are canonical, so every sum is a valid exponent pair and the
        two pure powers are among the sums: nothing is validated again.
        Refused before the walk when n*m exceeds `MAX_PRODUCT_CANDIDATES`."""
        pairs = len(self.gens) * len(other.gens)
        within_budget("product", pairs, "generator pairs", MAX_PRODUCT_CANDIDATES)
        best: dict[int, int] = {}
        get = best.get
        for a, b in self.gens:
            for c, d in other.gens:
                s, t = a + c, b + d
                cur = get(s)
                if cur is None or t < cur:
                    best[s] = t
        return MonomialIdeal(_corners(best))

    __mul__ = product

    def power(self, n: int) -> "MonomialIdeal":
        if type(n) is not int:
            raise ValueError(f"power exponent must be an int, got {n!r}")
        if n < 1:
            raise ValueError(f"power exponent must be >= 1, got {n}")
        result: MonomialIdeal | None = None
        base = self
        while True:
            if n & 1:
                result = base if result is None else result.product(base)
            n >>= 1
            if not n:
                return result  # type: ignore[return-value]
            base = base.product(base)

    __pow__ = power

    def transpose(self) -> "MonomialIdeal":
        return MonomialIdeal(tuple((b, a) for a, b in reversed(self.gens)))

    def order(self) -> int:
        return min(a + b for a, b in self.gens)

    def num_min_gens(self) -> int:
        return len(self.gens)

    def colength(self) -> int:
        """Number of lattice points strictly under the staircase."""
        total = 0
        for (a_i, _), (a_next, b_next) in zip(self.gens, self.gens[1:]):
            total += (a_i - a_next) * b_next
        return total

    def __str__(self) -> str:
        from .expr import format_ideal

        return format_ideal(self)


def normalize(raw: Iterable[Monomial]) -> MonomialIdeal:
    """Canonicalize a generating set; reject sets that are not m-primary."""
    return unchecked_normalize(checked_exponents(raw))


def unchecked_normalize(points: Iterable[Monomial]) -> MonomialIdeal:
    """`normalize` without its per-point check, for points that the library
    derived from exponents already checked: the least b per a, then the
    staircase, which must be m-primary."""
    best: dict[int, int] = {}
    for a, b in points:
        cur = best.get(a)
        if cur is None or b < cur:
            best[a] = b
    gens = _corners(best)
    if not gens:
        raise NotMPrimary("empty generating set")
    if gens[0][1] != 0:
        raise NotMPrimary("no pure x-power among the generators")
    if gens[-1][0] != 0:
        raise NotMPrimary("no pure y-power among the generators")
    return MonomialIdeal(gens)
