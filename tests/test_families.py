"""Family sweeps: the paper's case table along its own parameters.

The enumerated boxes reach the rare branches only a few times, so each family
here is built from its factors, and the branch and k the paper designates for
it are written out below, not read from `engine`.  Every member is decided,
must reach that branch and k with the verdict IndecomposableByPaper (OpenPerPaper
for R2Open, which designates no k), and must verify.

The last test draws random multisets of simple factors and checks what holds
for every complete ideal.
"""

import operator
from collections import Counter
from functools import reduce
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icmod import (
    Branch,
    Factorization,
    SimpleFactor,
    Verdict,
    build_Mk,
    choose_k,
    graded_colength,
    graded_min_gens,
    module_colength,
    module_min_gens,
    normalize,
    orient,
    reconstruct,
    simple_ideal,
    verify_certificate,
    zariski_factor,
)

ALPHA_BETA_MAX = 20  # (x,y)(x^alpha,y)(x,y^beta): 210 members
STACK_R_MAX = 16  # prod_{l<r} (x,y^l) times one order-one factor
STACK_FACTOR_MAX = 16  # alpha or beta of that factor: 179 and 224 members
CASE_I_MAX = 30  # m^n (x,y^l) with n, l <= 30: 900 members
SPLIT_MAX = 30  # (x,y^c)(x,y^d) with 2 <= c, d <= 30: 841 members
SIMPLE_MAX = 40  # cl(x^p, y^q) with 2 <= p < q <= 40 coprime: 450 members


def x_power(alpha):
    """(x^alpha, y)."""
    return normalize([(alpha, 0), (0, 1)])


def y_power(beta):
    """(x, y^beta)."""
    return normalize([(1, 0), (0, beta)])


def stack(r):
    """(x,y)(x,y^2)...(x,y^(r-1))."""
    return reduce(operator.mul, (y_power(ell) for ell in range(1, r)))


def case_ii_1_k(r):
    return 1 if r == 3 else 3 if r == 4 else r


def n1_family():
    for beta in range(1, ALPHA_BETA_MAX + 1):
        for alpha in range(1, beta + 1):
            ideal = y_power(1) * x_power(alpha) * y_power(beta)
            # beta = 2 completes the stack (x,y)(x,y^2): Case II, residual (x^alpha,y)
            yield ideal, Branch.CASE_II_1 if beta == 2 else Branch.N1, 1


def case_ii_1_family():
    for r in range(3, STACK_R_MAX + 1):
        for alpha in range(1, STACK_FACTOR_MAX + 1):
            # a_0 = r - 1 + alpha against b_r = r(r-1)/2 + 1: where a_0 >= b_r,
            # orient flips the member into another branch, so it is left out
            if r - 1 + alpha >= r * (r - 1) // 2 + 1:
                continue
            yield stack(r) * x_power(alpha), Branch.CASE_II_1, case_ii_1_k(r)


def case_ii_2_family():
    for r in range(3, STACK_R_MAX + 1):
        for beta in range(1, STACK_FACTOR_MAX + 1):
            ideal = stack(r) * y_power(beta)
            if beta == 1:  # the residual (x, y) is also (x^1, y)
                yield ideal, Branch.CASE_II_1, case_ii_1_k(r)
            else:
                k = 2 if r == 3 else r + 1 if beta == r else r
                yield ideal, Branch.CASE_II_2, k


@pytest.mark.parametrize("family", [n1_family, case_ii_1_family, case_ii_2_family])
def test_family_reaches_its_branch_and_k(family):
    members = list(family())
    assert len(members) >= 100
    for ideal, branch, k in members:
        cert = choose_k(ideal)
        assert not cert.transposed, ideal
        assert (cert.branch, cert.k, cert.verdict) == (branch, k, Verdict.INDECOMPOSABLE), ideal
        assert verify_certificate(cert), ideal


def case_i_family():
    m = y_power(1)
    for n in range(1, CASE_I_MAX + 1):
        for ell in range(1, CASE_I_MAX + 1):
            ideal = m**n * y_power(ell)  # order r = n + 1, factors (x,y)^n (x,y^l)
            if n == 1:  # xy lies in m (x, y^l)
                yield ideal, Branch.R2_OPEN, None
            elif n == 2 and ell == 2:  # (x,y)^2 (x,y^2): the stack (x,y)(x,y^2) and (x,y)
                yield ideal, Branch.CASE_II_1, 1
            elif n == 2:  # (x,y)(x^1,y)(x,y^l) at r = 3
                yield ideal, Branch.N1, 1
            elif n == 3 and ell == 2:  # (x,y)^2 (x^1,y)(x,y^2) at r = 4
                yield ideal, Branch.N2, 2
            else:  # the least l missing from the factors (x,y^l), l < r
                yield ideal, Branch.CASE_I, 3 if ell == 2 else 2


def r2_split_family():
    for c in range(2, SPLIT_MAX + 1):
        for d in range(2, SPLIT_MAX + 1):
            yield y_power(c) * y_power(d), Branch.R2_SPLIT, 1


def simple_family():
    for p in range(2, SIMPLE_MAX + 1):
        for q in range(p + 1, SIMPLE_MAX + 1):
            if gcd(p, q) == 1:  # one simple factor of order p, and k = 1 either way
                branch = Branch.R2_SIMPLE if p == 2 else Branch.NO_ORDER1_FACTOR
                yield simple_ideal(SimpleFactor(p, q)), branch, 1


@pytest.mark.parametrize(
    "family, branches",
    [
        (case_i_family, {"CaseI": 839, "N1": 29, "N2": 1, "CaseII1": 1, "R2Open": 30}),
        (r2_split_family, {"R2Split": 841}),
        (simple_family, {"NoOrder1Factor": 431, "R2Simple": 19}),
    ],
)
def test_family_reaches_its_branch_k_and_verdict(family, branches):
    members = list(family())
    assert Counter(branch.value for _, branch, _ in members) == branches
    for ideal, branch, k in members:
        cert = choose_k(ideal)
        verdict = Verdict.OPEN if branch == Branch.R2_OPEN else Verdict.INDECOMPOSABLE
        assert not cert.transposed, ideal
        assert (cert.branch, cert.k, cert.verdict) == (branch, k, verdict), ideal
        assert verify_certificate(cert), ideal


PRIMITIVE_PAIRS = [SimpleFactor(p, q) for p in range(1, 9) for q in range(1, 9) if gcd(p, q) == 1]


@given(st.lists(st.sampled_from(PRIMITIVE_PAIRS), min_size=1, max_size=6))
@settings(derandomize=True, deadline=None, max_examples=100)
def test_random_factor_multiset_invariants(pairs):
    f = Factorization.from_counts(Counter(pairs))
    ideal = reconstruct(f)
    assert zariski_factor(ideal) == f
    assert f.colength() == ideal.colength()
    cert, flipped = choose_k(ideal), choose_k(ideal.transpose())
    fields = operator.attrgetter("ideal", "branch", "k", "verdict", "checks")
    assert fields(cert) == fields(flipped)
    assert verify_certificate(cert)
    oriented, _ = orient(ideal)
    for k in range(1, oriented.order()):
        matrix = build_Mk(oriented, k)
        assert graded_min_gens(matrix) == module_min_gens(matrix), k
        assert graded_colength(matrix) == module_colength(matrix), k
