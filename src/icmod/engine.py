"""Decision procedure: classify a complete monomial ideal, pick the module
parameter k, verify every side condition and emit a machine-checkable
certificate of indecomposability.

The dispatch mirrors the case analysis of the underlying theory:

* no simple factor of order one  -> any k in 1..r-1 works (default 1);
* some (x, y^l) missing from the factorization (Case I) -> k is the least
  such l, unless the extra condition fails, which for an oriented ideal
  happens for exactly three exceptional factorization patterns (N1..N3),
  with k = r-2;
* all (x, y^l), l < r, divide the ideal (Case II) -> the residual order-one
  factor decides between k = 1 or 2 (r = 3), 3 (r = 4), r or r+1;
* order 2 with xy not in I -> k = 1; order 2 with xy in I is open; order <= 1
  is out of scope.

The theory's fourth exception, (x,y)(x,y^2)cl(x^3,y^2), has a_0 = b_r, and
`orient`'s tie rule turns it into a Case I ideal with the same k = 2, so no
oriented ideal needs a branch of its own for it.  `classify` picks the branch
and the k the theory designates for it.

A certificate records the branch, k, the presentation matrix and a list of
named boolean checks; the verdict is IndecomposableByPaper only when every
check re-derives to true.
"""

from __future__ import annotations

import enum
from collections import Counter
from collections.abc import Callable
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
    # for user-forced k outside the ranges the theory settles
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
    forced_k: bool = False


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


# the factor counts of each exceptional factorization with its (alpha, beta):
# N2 and N3 have the form (x,y)^{r-2}(x^alpha,y)(x,y^beta) of N1
_N_PATTERNS = {
    branch: ({SimpleFactor(*f): m for f, m in counts}, alpha, beta)
    for branch, counts, alpha, beta in (
        (Branch.N2, (((1, 1), 3), ((1, 2), 1)), 1, 2),
        (Branch.N3, (((1, 1), 2), ((1, 2), 1), ((2, 1), 1)), 2, 2),
    )
}


def _match_n1(counts: dict[SimpleFactor, int]) -> tuple[int, int] | None:
    """Match the factor counts of (x,y)(x^alpha,y)(x,y^beta), beta >= alpha > 0."""
    counts = dict(counts)
    if sum(counts.values()) != 3:
        return None
    if counts.get(SimpleFactor(1, 1), 0) < 1:
        return None
    counts[SimpleFactor(1, 1)] -= 1
    rest = [f for f, m in counts.items() for _ in range(m)]
    assert len(rest) == 2
    for first, second in (rest, rest[::-1]):
        if first.q == 1 and second.p == 1 and second.q >= first.p:
            return first.p, second.q
    return None


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
        match = _match_n1(counts)
        if match is not None:
            return Classification(Branch.N1, k=r - 2, alpha=match[0], beta=match[1])
        for branch, (pattern, alpha, beta) in _N_PATTERNS.items():
            if counts == pattern:
                return Classification(branch, k=r - 2, alpha=alpha, beta=beta)
        raise InternalInconsistency(
            f"Case I extra condition fails but no exceptional pattern matches: {ideal}"
        )
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
    """All k the theory certifies for this branch."""
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


def _indecomposability_checks(
    ideal: MonomialIdeal,
    matrix: Presentation2,
    counts: dict[SimpleFactor, int],
    ell: int,
    fit0: MonomialIdeal,
    colength: Callable[[Presentation2, MonomialIdeal], int],
) -> list[tuple[str, bool]]:
    """The clause chain of the splitting obstruction, as named checks, given
    the factor counts and the y-exponent ell of Fitt_1(M_k)."""
    checks: list[tuple[str, bool]] = []
    if all(f.order > 1 for f in counts):
        checks.append(("no_order_one_factor", True))
        return checks
    if ell < 1:
        checks.append(("fitting1_has_positive_y_exponent", False))
        return checks
    xy_out = not ideal.member((1, ell))
    checks.append((f"xy^{ell}_not_in_ideal", xy_out))
    if not xy_out:
        return checks
    if counts.get(SimpleFactor(1, ell), 0) < 1:
        checks.append((f"(x,y^{ell})_not_a_factor", True))
        return checks
    ok = colength(matrix, fit0) != _split_length(counts, ell)
    checks.append(("length_refutes_splitting", ok))
    return checks


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

    if cls.branch in (Branch.R2_OPEN, Branch.NOT_COVERED) and forced_k is None:
        k, matrix, checks = None, None, ()
        verdict = Verdict.OPEN if cls.branch == Branch.R2_OPEN else Verdict.NOT_COVERED
    else:
        k, matrix, checks, verdict = _certify(
            cls, oriented, r, counts, forced_k, min_gens, colength
        )
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
        forced_k=forced_k is not None,
    )


def _certify(
    cls: Classification,
    oriented: MonomialIdeal,
    r: int,
    counts: dict[SimpleFactor, int] | None,
    forced_k: int | None,
    min_gens: Callable[[Presentation2, MonomialIdeal], int],
    colength: Callable[[Presentation2, MonomialIdeal], int],
) -> tuple[int, Presentation2, tuple[tuple[str, bool], ...], Verdict]:
    """k, M_k, the named checks and the verdict for a branch the theory covers,
    given the order r and the factor counts of the factorization."""
    k = cls.k if forced_k is None else forced_k
    matrix = build_Mk(oriented, k)  # KOutOfRange for bad forced k

    checks: list[tuple[str, bool]] = []
    fit0 = fitting0(matrix)
    fit0_ok = fit0 == oriented
    checks.append(("fitting0_equals_ideal", fit0_ok))
    ell = ell_value(oriented, k)
    fit1_ok = fitting1(matrix) == unchecked_normalize([(1, 0), (0, ell)])
    checks.append((f"fitting1_equals_(x,y^{ell})", fit1_ok))
    mu_ok = min_gens(matrix, fit0) == r + 2
    checks.append(("min_gens_equals_r_plus_2", mu_ok))

    pattern = _pattern_check(cls, oriented, r) if forced_k is None else None
    if pattern is not None:
        checks.append(pattern)

    assert counts is not None
    checks.extend(_indecomposability_checks(oriented, matrix, counts, ell, fit0, colength))

    # integral closedness of M_k is settled for k <= r-1 whenever
    # Fitt_0(M_k) = I, and for the designated k of the Case II branches
    integrally_closed_known = (k <= r - 1 and fit0_ok) or (
        forced_k is None
        and cls.branch in (Branch.CASE_II_1, Branch.CASE_II_2)
        and (pattern is None or pattern[1])
    )

    all_ok = all(ok for _, ok in checks)
    verdict = Verdict.INDECOMPOSABLE if all_ok and integrally_closed_known else Verdict.UNKNOWN
    return k, matrix, tuple(checks), verdict


def certificate_diff(cert: Certificate) -> list[str]:
    """Re-run the decision with mu and the module length from the module
    oracle; name every recorded field it does not reproduce (empty means valid).

    The decision takes both from the graded count, so a fault in either shows
    up as a disagreement.  A forced k, or another certified k of NoOrder1Factor,
    is re-run as recorded.
    """
    other_k = cert.branch == Branch.NO_ORDER1_FACTOR and 0 < (cert.k or 0) < cert.order
    k = cert.k if cert.forced_k or other_k else None
    try:
        fresh = _decide(
            cert.input, k, cert.closed_input is not None, module_min_gens, module_colength
        )
    except Exception as exc:  # noqa: BLE001 - report, never raise
        return [f"re-running the decision failed: {exc}"]
    diffs = []
    for name, recorded, derived in zip(Certificate._fields, cert, fresh):
        # tuples compare equal across their subclasses: the types must match too
        if name == "forced_k" or type(recorded) is type(derived) and recorded == derived:
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
