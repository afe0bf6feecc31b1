import random
import time

import pytest

from icmod import (
    KOutOfRange,
    NonMonomialMinor,
    NotFiniteColength,
    NotMPrimary,
    Presentation2,
    build_Mk,
    ell_value,
    enumerate_complete,
    fitting0,
    fitting1,
    graded_colength,
    graded_min_gens,
    module_colength,
    module_min_gens,
    normalize,
)
from icmod.engine import orient
from icmod.staircase import MonomialIdeal, unchecked_normalize
from tests.test_oracle import SHAPES, random_presentation, shaped_presentation

STAIR_B = normalize([(7, 0), (5, 1), (3, 2), (2, 3), (1, 5), (0, 9)])


class TestBuild:
    def test_column_layout(self):
        ideal = normalize([(2, 0), (1, 1), (0, 3)])
        pres = build_Mk(ideal, 1)
        assert pres.cols == (
            ((1, 0), None),
            ((0, 1), None),
            ((0, 1), (1, 0)),
            (None, (0, 2)),
        )

    def test_width_is_r_plus_2(self):
        for k in range(1, STAIR_B.br):
            assert len(build_Mk(STAIR_B, k).cols) == STAIR_B.r + 2

    def test_k_range(self):
        ideal = normalize([(2, 0), (1, 1), (0, 3)])
        for k in (0, 3, -1):
            with pytest.raises(KOutOfRange):
                build_Mk(ideal, k)

    def test_unit_rejected(self):
        with pytest.raises(NotMPrimary):
            build_Mk(MonomialIdeal(((0, 0),)), 1)

    def test_principal_like_rejected(self):
        with pytest.raises(NotMPrimary):
            build_Mk(normalize([(0, 1)]), 1)

    def test_empty_presentation_rejected(self):
        with pytest.raises(ValueError):
            Presentation2(())
        with pytest.raises(ValueError):
            Presentation2(((None, None),))
        with pytest.raises(ValueError):  # a copy with new columns is checked too
            Presentation2(((None, (0, 1)),))._replace(cols=((None, None),))

    def test_build_mk_matches_a_checked_build(self):
        # build_Mk skips the entry check: running it on the same columns changes nothing
        for ideal in {orient(i)[0] for i in enumerate_complete(8, 10)}:
            for k in range(1, ideal.br):
                m = build_Mk(ideal, k)
                assert type(m) is Presentation2
                assert Presentation2(m.cols) == m

    @pytest.mark.parametrize("entry", [(-1, 0), (0, -2), (1.0, 0), (1, "y"), (1, 2, 3)])
    def test_entries_are_pairs_of_nonnegative_ints(self, entry):
        # what the Fitting ideals derive from the entries is not checked again
        with pytest.raises(ValueError):
            Presentation2((((1, 0), entry), ((0, 1), None)))


def fitting0_by_all_pairs(pres: Presentation2) -> MonomialIdeal:
    """Reference Fitt_0: the minor of every pair of columns, tested in turn."""
    gens = []
    cols = pres.cols
    for i in range(len(cols)):
        ti, bi = cols[i]
        for j in range(i + 1, len(cols)):
            tj, bj = cols[j]
            m1 = (ti[0] + bj[0], ti[1] + bj[1]) if ti is not None and bj is not None else None
            m2 = (tj[0] + bi[0], tj[1] + bi[1]) if tj is not None and bi is not None else None
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
    return unchecked_normalize(gens)


def assert_fitting0_matches_all_pairs(pres: Presentation2) -> None:
    """The same ideal, or the same exception type and message."""
    try:
        want = fitting0_by_all_pairs(pres)
    except (NonMonomialMinor, NotMPrimary) as exc:
        with pytest.raises(type(exc)) as info:
            fitting0(pres)
        assert type(info.value) is type(exc) and str(info.value) == str(exc), pres
    else:
        assert fitting0(pres) == want, pres


class TestFittingIdeals:
    def test_nonzero_minors_match_all_pairs(self, full_enumeration):
        for ideal in full_enumeration:
            for k in range(1, ideal.br):
                assert_fitting0_matches_all_pairs(build_Mk(ideal, k))
        rng = random.Random(5)
        for _ in range(500):
            assert_fitting0_matches_all_pairs(random_presentation(rng))
        for shape in SHAPES:
            for _ in range(200):
                assert_fitting0_matches_all_pairs(shaped_presentation(rng, shape)[0])
        for pres in random_graded_presentations(17, 200):  # m-primary, several two-entry columns
            assert_fitting0_matches_all_pairs(pres)
        # two-entry columns of two shifts: the first pair that does not cancel is named
        outcomes = set()
        for _ in range(500):
            pres = Presentation2(random_presentation(rng).cols + random_presentation(rng).cols)
            assert_fitting0_matches_all_pairs(pres)
            try:
                outcomes.add(type(fitting0_by_all_pairs(pres)))
            except (NonMonomialMinor, NotMPrimary) as exc:
                outcomes.add(type(exc))
        assert outcomes == {NonMonomialMinor, NotMPrimary}

    def test_minors_reproduce_ideal(self):
        ideal = normalize([(2, 0), (1, 1), (0, 3)])
        assert fitting0(build_Mk(ideal, 1)) == ideal

    def test_entries_ideal(self):
        ideal = normalize([(2, 0), (1, 1), (0, 3)])
        assert fitting1(build_Mk(ideal, 1)) == normalize([(1, 0), (0, 1)])

    def test_ell_value_formula(self):
        # min of b_{r-1}, k and b_r - k
        assert ell_value(STAIR_B, 1) == 1
        assert ell_value(STAIR_B, 3) == 3
        assert ell_value(STAIR_B, 7) == 2
        assert ell_value(STAIR_B, 8) == 1
        with pytest.raises(KOutOfRange):
            ell_value(STAIR_B, 9)

    def test_binomial_minor_rejected(self):
        pres = Presentation2((((1, 0), (0, 1)), ((0, 1), (1, 0))))
        with pytest.raises(NonMonomialMinor):
            fitting0(pres)

    def test_cancelling_minor_allowed(self):
        # duplicate columns give the zero minor, not a binomial
        col = ((1, 0), (0, 1))
        pres = Presentation2((col, col, ((0, 2), None), (None, (2, 0))))
        assert fitting0(pres) == normalize([(3, 0), (2, 2), (0, 3)])

    def test_zero_fitting_rejected(self):
        pres = Presentation2((((1, 0), None), ((2, 0), None)))
        with pytest.raises(NotMPrimary):
            fitting0(pres)

    def test_invariance_under_column_permutation(self):
        pres = build_Mk(STAIR_B, 3)
        permuted = Presentation2(pres.cols[::-1])
        assert fitting0(permuted) == fitting0(pres)
        assert fitting1(permuted) == fitting1(pres)


def lemma33(ideal, k):
    """Lemma 3.3's inequality b_i + b_r - k >= b_{i+1} for every i."""
    b = [b for _, b in ideal.gens]
    return all(b[i] + ideal.br - k >= b[i + 1] for i in range(len(b) - 1))


class TestSufficientConditions:
    """Lemma 3.3 and Remark 3.4: numeric conditions under which Fitt_0(M_k) = I."""

    def test_small_k_always_qualifies(self):
        # Remark 3.4, case 1: k <= r - 1
        for k in range(1, STAIR_B.r):
            assert lemma33(STAIR_B, k)
            assert fitting0(build_Mk(STAIR_B, k)) == STAIR_B

    def test_gap_bound_case(self):
        # Remark 3.4, case 2: r <= k <= b_{r-1}, and the top gap
        # b_r - b_{r-1} = 2 dominates all consecutive gaps
        ideal = normalize([(2, 0), (1, 2), (0, 4)])
        assert lemma33(ideal, 2)
        assert fitting0(build_Mk(ideal, 2)) == ideal

    def test_lemma_failure_detected(self):
        # jump of 4 at the top step; k = 8 leaves slack of only 1, and the
        # minors lose y^9 and x*y^5 to y^6 and x*y^4
        assert not lemma33(STAIR_B, 8)
        assert fitting0(build_Mk(STAIR_B, 8)) == normalize(
            [(7, 0), (5, 1), (3, 2), (2, 3), (1, 4), (0, 6)]
        )

    def test_lemma_implies_fitting0(self, small_complete):
        for ideal in small_complete:
            for k in range(1, ideal.br):
                if lemma33(ideal, k):
                    assert fitting0(build_Mk(ideal, k)) == ideal

    def test_contracted_numeric(self):
        # mu(M_k) = ord(Fitt_0) + rank
        for ideal, k in ((STAIR_B, 3), (normalize([(2, 0), (1, 1), (0, 3)]), 1)):
            pres = build_Mk(ideal, k)
            assert graded_min_gens(pres) == fitting0(pres).order() + 2


def graded_rank(cols, deg) -> int:
    """rank M_deg: the column multiples landing in degree deg keep their
    columns' supports, and R^2 has dimension <= 2 there."""
    u, v = deg
    return min(2, len({kind for (a, b), kind in cols if a <= u and b <= v}))


def graded_colength_by_points(pres: Presentation2) -> int:
    """Reference length of R^2 / M, one degree at a time over the box
    [0, a_0) x [0, b_r) and its translate by s.  O(a_0 * b_r * r), so only
    for tests."""
    ideal = fitting0(pres)
    s = next(((t[0] - b[0], t[1] - b[1]) for t, b in pres.cols if t and b), (0, 0))
    cols = [(t or (b[0] + s[0], b[1] + s[1]), bool(t) + 2 * bool(b)) for t, b in pres.cols]
    box = {
        (u + du, v + dv)
        for du, dv in ((0, 0), s)
        for u in range(ideal.a0)
        for v in range(ideal.br)
    }
    total = 0
    for u, v in box:
        dim = (u >= 0 and v >= 0) + (u >= s[0] and v >= s[1])
        total += dim - graded_rank(cols, (u, v))
    return total


def random_graded_presentations(seed: int, count: int) -> list[Presentation2]:
    """Presentations with one shift s, two to four two-entry columns (b + s, b),
    one to three top-only and up to two bottom-only columns, of finite
    colength.  Two thirds of the entries keep one exponent at its least value,
    so that many Fitt_0 are m-primary; the others are skipped."""
    rng = random.Random(seed)

    def entry(low: tuple[int, int] = (0, 0)) -> tuple[int, int]:
        u, v = low[0] + rng.randint(0, 4), low[1] + rng.randint(0, 4)
        kind = rng.randrange(3)
        return (u, low[1]) if kind == 0 else (low[0], v) if kind == 1 else (u, v)

    found: list[Presentation2] = []
    while len(found) < count:
        s = (rng.randint(-3, 3), rng.randint(-3, 3))
        cols = []
        for _ in range(rng.randint(2, 4)):
            b = entry((max(0, -s[0]), max(0, -s[1])))
            cols.append(((b[0] + s[0], b[1] + s[1]), b))
        cols += [(entry(), None) for _ in range(rng.randint(1, 3))]
        cols += [(None, entry()) for _ in range(rng.randint(0, 2))]
        rng.shuffle(cols)
        pres = Presentation2(tuple(cols))
        try:
            fitting0(pres)
        except NotMPrimary:
            continue
        found.append(pres)
    return found


class TestGradedInvariants:
    def test_colength_by_cells_matches_points(self, full_enumeration):
        for ideal in full_enumeration:
            for k in range(1, ideal.br):
                pres = build_Mk(ideal, k)
                assert graded_colength(pres) == graded_colength_by_points(pres), (ideal, k)
        wide = normalize([(102, 0), (2, 1), (1, 2), (0, 102)])
        for k in (1, 2, 51, 100, 101):
            pres = build_Mk(wide, k)
            assert graded_colength(pres) == graded_colength_by_points(pres), k
        col = ((1, 0), (0, 1))
        cancelling = Presentation2((col, col, ((0, 2), None), (None, (2, 0))))
        assert graded_colength(cancelling) == graded_colength_by_points(cancelling)

    def test_colength_of_powers_of_the_maximal_ideal(self):
        for n in range(2, 31):
            power = normalize([(n - i, i) for i in range(n + 1)])
            for k in range(1, n):
                pres = build_Mk(power, k)
                assert graded_colength(pres) == graded_colength_by_points(pres), (n, k)

    def test_colength_with_redundant_columns(self):
        # (2, 3) and (3, 2) are multiples of earlier columns of the same support,
        # so they are no minimal generators of the top ideal or of the e_1 part
        cols = [((2, 0), None), ((1, 1), None), ((0, 3), None), ((2, 3), None)]
        cols += [(None, (3, 0)), (None, (0, 2)), (None, (3, 2))]
        pres = Presentation2(tuple(cols))
        assert graded_colength(pres) == graded_colength_by_points(pres) == 4 + 6
        assert graded_colength(pres) == module_colength(pres)

    def test_lcm_term_on_random_presentations(self):
        # the e_1 part of M gets lcm(t - s, b') from each top-only t and two-entry
        # (t', b'); M_k has only one two-entry column, so random ones with several
        # reach the term in more ways
        for pres in random_graded_presentations(13, 150):
            length = graded_colength(pres)
            assert length == graded_colength_by_points(pres) == module_colength(pres), pres
            assert graded_min_gens(pres) == module_min_gens(pres), pres

    def test_colength_is_fast_at_large_r(self):
        # 402 columns: a cell sum over every column pair took 1.0 s (Python 3.11, 2 vCPU VM)
        pres = build_Mk(normalize([(400 - i, i) for i in range(401)]), 1)
        start = time.perf_counter()
        assert graded_colength(pres) == 400 * 401 // 2 - 1
        assert time.perf_counter() - start < 0.5

    def test_inconsistent_grading_is_a_binomial_minor(self):
        # shifts (1, -1) and (-1, 1): no Z^2-grading makes both columns homogeneous
        pres = Presentation2((((1, 0), (0, 1)), ((0, 1), (1, 0))))
        for invariant in (graded_colength, graded_min_gens):
            with pytest.raises(NonMonomialMinor):
                invariant(pres)

    def test_graded_counts_raise_the_fitting0_text(self):
        # the split that gives the shift checks it, with or without Fitt_0 handed in
        rng = random.Random(3)

        def entry():
            return rng.randint(0, 4), rng.randint(0, 4)

        for _ in range(200):
            cols = [(entry(), entry()) for _ in range(rng.randint(2, 4))]
            cols += [(entry(), None), (None, entry())][: rng.randint(0, 2)]
            rng.shuffle(cols)
            pres = Presentation2(tuple(cols))
            if len({(t[0] - b[0], t[1] - b[1]) for t, b in cols if t and b}) < 2:
                continue
            with pytest.raises(NonMonomialMinor) as want:
                fitting0(pres)
            for invariant in (graded_colength, graded_min_gens):
                for fit0 in (None, STAIR_B):
                    with pytest.raises(NonMonomialMinor) as caught:
                        invariant(pres, fit0)
                    assert str(caught.value) == str(want.value), pres

    def test_cancelling_minor_matches_oracle(self):
        col = ((1, 0), (0, 1))
        pres = Presentation2((col, col, ((0, 2), None), (None, (2, 0))))
        assert graded_colength(pres) == module_colength(pres)
        assert graded_min_gens(pres) == module_min_gens(pres) == 3

    def test_non_m_primary_fitting0_is_infinite_colength(self):
        zero = Presentation2((((1, 0), None), ((2, 0), None)))
        principal = Presentation2((((1, 0), None), (None, (1, 0))))  # Fitt_0 = (x^2)
        for pres in (zero, principal):
            for invariant in (graded_colength, graded_min_gens, module_colength, module_min_gens):
                with pytest.raises(NotFiniteColength):
                    invariant(pres)
