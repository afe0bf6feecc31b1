"""Decision procedure: classify a complete monomial ideal, pick the module
parameter k, verify every side condition and emit a machine-checkable
certificate of indecomposability.

The dispatch mirrors the case analysis of the underlying theory:

* no simple factor of order one  -> any k in 1..r-1 works (default 1);
* some (x, y^l) missing from the factorization (Case I) -> k is the least
  such l, unless the extra condition fails, which for an oriented ideal
  happens exactly for the factorizations (x,y)^{r-2}(x^alpha,y)(x,y^beta),
  beta >= alpha, with k = r-2: every one at r = 3 (N1), and at r = 4 the two
  with (alpha, beta) = (1, 2) (N2) and (2, 2) (N3);
* all (x, y^l), l < r, divide the ideal (Case II) -> the residual order-one
  factor decides between k = 1 or 2 (r = 3), 3 (r = 4), r or r+1;
* order 2 with xy not in I -> k = 1; order 2 with xy in I is open; order <= 1
  is out of scope.

The theory's fourth exception, (x,y)(x,y^2)cl(x^3,y^2), has a_0 = b_r, and
`orient`'s tie rule turns it into a Case I ideal with the same k = 2, so no
oriented ideal needs a branch of its own for it.  `classify` picks the branch
and the k the theory designates for it.

A certificate records the branch, k, the presentation matrix and a list of
named boolean checks, made in one chain: Fitt_0(M_k) = I, Fitt_1(M_k) =
(x, y^l), mu(M_k) = r + 2, the branch's factorization shape, then the
clauses that refute a splitting, which stop at the first clause that settles
the split.  The verdict is IndecomposableByPaper, k is certified, when every
check passes and k <= r-1 or k is the designated k, forced or not.
"""

from __future__ import annotations

import enum
from collections import Counter
from collections.abc import Callable, Iterator
from typing import NamedTuple

from .errors import InternalInconsistency, NotComplete
from .newton import Factorization, SimpleFactor, newton_vertices, reconstruct, zariski_factor
from .oracle import module_colength, module_min_gens
from .presentation import (
    Presentation2,
    build_Mk,
    ell_value,
    fitting0,
    fitting1,
    graded_colength,
    graded_min_gens,
)
from .staircase import MonomialIdeal, unchecked_normalize


class Branch(enum.Enum):
    NO_ORDER1_FACTOR = "NoOrder1Factor"
    CASE_I = "CaseI"
    N1 = "N1"
    N2 = "N2"
    N3 = "N3"
    CASE_II_1 = "CaseII1"
    CASE_II_2 = "CaseII2"
    R2_SIMPLE = "R2Simple"
    R2_SPLIT = "R2Split"
    R2_OPEN = "R2Open"
    NOT_COVERED = "NotCovered"


class Verdict(enum.Enum):
    INDECOMPOSABLE = "IndecomposableByPaper"
    OPEN = "OpenPerPaper"
    NOT_COVERED = "NotCovered"
    # k not certified: k is certified when every check passes and k <= r-1 or k == cls.k
    UNKNOWN = "Unknown"


class Classification(NamedTuple):
    branch: Branch
    k: int | None = None  # the designated k; None for R2Open and NotCovered
    alpha: int | None = None
    beta: int | None = None


class Certificate(NamedTuple):
    input: MonomialIdeal
    closed_input: MonomialIdeal | None
    transposed: bool
    ideal: MonomialIdeal  # oriented working ideal
    order: int
    factorization: Factorization | None
    branch: Branch
    k: int | None
    matrix: Presentation2 | None
    checks: tuple[tuple[str, bool], ...]
    verdict: Verdict


def orient(ideal: MonomialIdeal) -> tuple[MonomialIdeal, bool]:
    """Flip to a_0 <= b_r; on ties pick the lexicographically smaller staircase.

    The tie rule keeps the whole procedure invariant under swapping x and y.
    """
    if ideal.a0 < ideal.br:
        return ideal, False
    flipped = ideal.transpose()
    if ideal.a0 > ideal.br or flipped.gens < ideal.gens:
        return flipped, True
    return ideal, False


# the (alpha, beta) of the two exceptions at r = 4; at r = 3 every one is N1
_N_AT_4 = {(1, 2): Branch.N2, (2, 2): Branch.N3}


def _match_n(counts: dict[SimpleFactor, int], r: int) -> tuple[Branch, int, int] | None:
    """Match the factor counts of (x,y)^{r-2}(x^alpha,y)(x,y^beta), beta >= alpha,
    at order r: the branch N1 at r = 3, N2 or N3 at r = 4, else None."""
    rest = Counter(counts)
    rest[SimpleFactor(1, 1)] -= r - 2
    pair = sorted(rest.elements(), key=lambda f: f.q)  # (x^alpha, y) first, if any
    if rest[SimpleFactor(1, 1)] < 0 or len(pair) != 2:
        return None
    (alpha, one), (p, beta) = pair
    if one != 1 or p != 1 or beta < alpha:
        return None
    branch = Branch.N1 if r == 3 else _N_AT_4.get((alpha, beta)) if r == 4 else None
    return None if branch is None else (branch, alpha, beta)


def classify(ideal: MonomialIdeal) -> Classification:
    """Branch dispatch for a complete, normalized, oriented ideal, with the
    k the theory designates for the branch."""
    counts = None if ideal.is_unit else zariski_factor(ideal).as_dict()
    return _classify(ideal, ideal.order(), counts)


def _classify(
    ideal: MonomialIdeal, r: int, counts: dict[SimpleFactor, int] | None
) -> Classification:
    """`classify`, given the order r and the factor counts of the factorization."""
    if r <= 1:
        return Classification(Branch.NOT_COVERED)
    if ideal.r != r:
        raise InternalInconsistency(
            f"complete ideal with mu != ord + 1: {ideal}"
        )
    if r == 2:
        if ideal.member((1, 1)):
            return Classification(Branch.R2_OPEN)
        b1, b2 = ideal.gens[1][1], ideal.gens[2][1]
        branch = Branch.R2_SIMPLE if b2 < 2 * b1 else Branch.R2_SPLIT
        return Classification(branch, k=1)
    if ideal.gens[-2][0] != 1:
        raise InternalInconsistency(
            f"oriented complete ideal of order >= 3 with a_(r-1) != 1: {ideal}"
        )
    assert counts is not None
    if all(f.order > 1 for f in counts):
        return Classification(Branch.NO_ORDER1_FACTOR, k=1)
    present = {f.q for f in counts if f.p == 1}  # the l of each factor (x, y^l)
    missing = [ell for ell in range(1, r) if ell not in present]
    if missing:
        if _condition_fk(ideal, missing[0]):
            return Classification(Branch.CASE_I, k=missing[0])
        match = _match_n(counts, r)
        if match is None:
            raise InternalInconsistency(
                f"Case I extra condition fails but no exceptional pattern matches: {ideal}"
            )
        branch, alpha, beta = match
        return Classification(branch, k=r - 2, alpha=alpha, beta=beta)
    # Case II: strip one copy of each (x, y^l), l = 1..r-1; one order-1 factor is left
    residual = Counter(counts)
    residual.subtract(SimpleFactor(1, ell) for ell in range(1, r))
    rest = list(residual.elements())
    if len(rest) != 1 or rest[0].order != 1:
        raise InternalInconsistency(
            f"Case II residual is not a single order-one factor: {ideal}"
        )
    piece = rest[0]
    if piece.q == 1:
        k = 1 if r == 3 else 3 if r == 4 else r
        return Classification(Branch.CASE_II_1, k=k, alpha=piece.p)
    k = 2 if r == 3 else r + 1 if piece.q == r else r
    return Classification(Branch.CASE_II_2, k=k, beta=piece.q)


def _condition_fk(ideal: MonomialIdeal, k: int) -> bool:
    """Fitt_1(M_k) = (x, y^k) and x y^k not in I."""
    return ell_value(ideal, k) == k and not ideal.member((1, k))


def valid_k_set(cls: Classification, r: int) -> list[int]:
    """The k the theory designates, 1..r-1 for NoOrder1Factor, else `cls.k`; not
    every certified k (all checks pass, and k <= r-1 or k == cls.k)."""
    if cls.branch == Branch.NO_ORDER1_FACTOR:
        return list(range(1, r))
    return [] if cls.k is None else [cls.k]


def _split_length(counts: dict[SimpleFactor, int], ell: int) -> int:
    """Module length of the only decomposition shape allowed when x y^l is outside I.

    A splitting would force M_k = (x, y^l) + J with (x, y^l) * J = I, so the
    module length would equal the sum of the two ideal colengths; a true
    length that differs refutes it.
    """
    partner = reconstruct(Factorization.from_counts(counts).remove(SimpleFactor(1, ell)))
    return ell + partner.colength()  # (x, y^l) has colength l


def _pattern_check(
    cls: Classification, ideal: MonomialIdeal, r: int
) -> tuple[str, bool] | None:
    """Branch-specific shape of the factorization: the product of its simple factors."""
    if cls.branch in (Branch.N1, Branch.N2, Branch.N3):
        name = f"matches_(x,y)^{r - 2}(x^{cls.alpha},y)(x,y^{cls.beta})"
        factors = [(1, 1)] * (r - 2) + [(cls.alpha, 1), (1, cls.beta)]
    elif cls.branch == Branch.CASE_II_1:
        name = f"matches_(x,y)..(x,y^{r - 1})(x^{cls.alpha},y)"
        factors = [(1, ell) for ell in range(1, r)] + [(cls.alpha, 1)]
    elif cls.branch == Branch.CASE_II_2:
        name = f"matches_(x,y)..(x,y^{r - 1})(x,y^{cls.beta})"
        factors = [(1, ell) for ell in range(1, r)] + [(1, cls.beta)]
    else:
        return None
    expected = Factorization.from_counts(Counter(SimpleFactor(*f) for f in factors))
    return (name, reconstruct(expected) == ideal)


def _checks(
    cls: Classification,
    ideal: MonomialIdeal,
    r: int,
    counts: dict[SimpleFactor, int],
    matrix: Presentation2,
    k: int,
    min_gens: Callable[[Presentation2, MonomialIdeal], int],
    colength: Callable[[Presentation2, MonomialIdeal], int],
) -> Iterator[tuple[str, bool]]:
    """The certificate's named checks on M_k = `matrix`, in order: the Fitting
    ideals and mu, the branch's shape at its designated k, then the clause
    chain of the splitting obstruction, which stops at the first clause that
    settles the split."""
    fit0 = fitting0(matrix)
    yield ("fitting0_equals_ideal", fit0 == ideal)
    ell = ell_value(ideal, k)
    fit1 = unchecked_normalize([(1, 0), (0, ell)])
    yield (f"fitting1_equals_(x,y^{ell})", fitting1(matrix) == fit1)
    yield ("min_gens_equals_r_plus_2", min_gens(matrix, fit0) == r + 2)
    pattern = _pattern_check(cls, ideal, r) if k == cls.k else None
    if pattern is not None:
        yield pattern
    if all(f.order > 1 for f in counts):
        yield ("no_order_one_factor", True)
        return
    if ell < 1:
        yield ("fitting1_has_positive_y_exponent", False)
        return
    xy_out = not ideal.member((1, ell))
    yield (f"xy^{ell}_not_in_ideal", xy_out)
    if not xy_out:
        return
    if counts.get(SimpleFactor(1, ell), 0) < 1:
        yield (f"(x,y^{ell})_not_a_factor", True)
        return
    yield ("length_refutes_splitting", colength(matrix, fit0) != _split_length(counts, ell))


def choose_k(
    ideal: MonomialIdeal,
    forced_k: int | None = None,
    close_first: bool = False,
) -> Certificate:
    """Run the full decision procedure and emit a certificate.

    The input's Newton polygon is built once, and is the one polygon the
    decision reads: its closure checks (or closes) the input, and its edges,
    transposed with the ideal when `orient` flips it, give the factorization.
    """
    return _decide(ideal, forced_k, close_first, graded_min_gens, graded_colength)


def _decide(
    ideal: MonomialIdeal,
    forced_k: int | None,
    close_first: bool,
    min_gens: Callable[[Presentation2, MonomialIdeal], int],
    colength: Callable[[Presentation2, MonomialIdeal], int],
) -> Certificate:
    """`choose_k` with mu and the module length taken from `min_gens` and
    `colength`, each called with M_k and its Fitt_0.  One polygon is read
    throughout, as the closure keeps it; the unit ideal has none, so it has
    no factorization."""
    polygon = None if ideal.is_unit else newton_vertices(ideal)
    closed = None if polygon is None else polygon.closure()
    if closed == ideal:
        closed = None
    elif closed is not None and not close_first:
        raise NotComplete(f"{ideal} is not integrally closed")
    oriented, transposed = orient(ideal if closed is None else closed)
    r = oriented.order()
    if polygon is not None and transposed:
        polygon = polygon.transpose()
    factorization = None if polygon is None else polygon.factorization()
    counts = None if factorization is None else factorization.as_dict()
    cls = _classify(oriented, r, counts)

    k = cls.k if forced_k is None else forced_k
    if k is None:  # R2Open and NotCovered designate no k
        matrix, checks = None, ()
        verdict = Verdict.OPEN if cls.branch == Branch.R2_OPEN else Verdict.NOT_COVERED
    else:
        matrix = build_Mk(oriented, k)  # KOutOfRange for a bad forced k
        assert counts is not None
        checks = tuple(_checks(cls, oriented, r, counts, matrix, k, min_gens, colength))
        # integral closedness of M_k is settled for k <= r-1 once Fitt_0(M_k) = I,
        # and for the designated k once the shape matches; only the Case II branches
        # designate a k > r-1 (15 ideals of (10,12)), every other branch a k <= r-1
        known = k <= r - 1 or k == cls.k
        ok = known and all(passed for _, passed in checks)
        verdict = Verdict.INDECOMPOSABLE if ok else Verdict.UNKNOWN
    return Certificate(
        input=ideal,
        closed_input=closed,
        transposed=transposed,
        ideal=oriented,
        order=r,
        factorization=factorization,
        branch=cls.branch,
        k=k,
        matrix=matrix,
        checks=checks,
        verdict=verdict,
    )


def certificate_diff(cert: Certificate) -> list[str]:
    """Re-run the decision with mu and the module length from the module
    oracle; name every recorded field it does not reproduce (empty means valid).

    The decision takes both from the graded count, so a fault in either shows
    up as a disagreement.
    """
    try:
        fresh = _decide(
            cert.input, cert.k, cert.closed_input is not None, module_min_gens, module_colength
        )
    except Exception as exc:  # noqa: BLE001 - report, never raise
        return [f"re-running the decision failed: {exc}"]
    diffs = []
    for name, recorded, derived in zip(Certificate._fields, cert, fresh):
        # tuples compare equal across their subclasses: the types must match too
        if type(recorded) is type(derived) and recorded == derived:
            continue
        if name == "checks":
            unmatched = [n for n, ok in cert.checks if (n, ok) not in fresh.checks]
            if unmatched:
                diffs.append(f"checks mismatch: {', '.join(unmatched)}")
                continue
        diffs.append(f"{name} mismatch")
    return diffs


def verify_certificate(cert: Certificate) -> bool:
    return not certificate_diff(cert)
