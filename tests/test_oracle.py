import gc
import math
import random
import time
from fractions import Fraction

import pytest

from icmod import (
    Factorization,
    MonomialIdeal,
    NotFiniteColength,
    Presentation2,
    SizeBudgetExceeded,
    build_Mk,
    closure,
    closure_power_oracle,
    enumerate_complete,
    graded_colength,
    graded_min_gens,
    is_complete,
    module_colength,
    module_min_gens,
    normalize,
    poly_ideal_colength,
    reconstruct,
    simple_ideal,
)
from icmod.errors import InternalInconsistency
from icmod.oracle import (
    _box_ranks,
    _box_row_count,
    _box_rows,
    _incidence_rank,
    _primitive_pairs,
    _rank,
    ideal_as_polys,
    truncation_margin,
)
from icmod.presentation import finite_fitting0
from tests.conftest import brute_ideals

STAIR_B = normalize([(7, 0), (5, 1), (3, 2), (2, 3), (1, 5), (0, 9)])


def diagonal_presentation(left, right):
    """Columns generating left*e1 + right*e2, a module that visibly splits."""
    cols = [((a, b), None) for a, b in left.gens]
    cols += [(None, (a, b)) for a, b in right.gens]
    return Presentation2(tuple(cols))


class TestModuleOracles:
    def test_split_module_colength_adds(self):
        left = normalize([(2, 0), (1, 1), (0, 3)])
        right = normalize([(3, 0), (0, 2)])
        pres = diagonal_presentation(left, right)
        assert module_colength(pres) == left.colength() + right.colength()
        assert graded_colength(pres) == left.colength() + right.colength()

    def test_split_module_min_gens_adds(self):
        left = normalize([(2, 0), (1, 1), (0, 3)])
        right = normalize([(3, 0), (2, 1), (0, 2)])
        pres = diagonal_presentation(left, right)
        assert module_min_gens(pres) == len(left.gens) + len(right.gens)
        assert graded_min_gens(pres) == len(left.gens) + len(right.gens)
        # a repeated column and a multiple of another one add no generator
        redundant = Presentation2(pres.cols + (pres.cols[0], ((3, 1), None)))
        assert module_min_gens(redundant) == len(left.gens) + len(right.gens)

    def test_min_gens_of_attached_module(self):
        assert module_min_gens(build_Mk(STAIR_B, 3)) == STAIR_B.r + 2

    def test_graded_invariants_match_oracle_for_every_k(self):
        for ideal in enumerate_complete(5, 6):
            for k in range(1, ideal.br):
                pres = build_Mk(ideal, k)
                assert graded_colength(pres) == module_colength(pres), (ideal, k)
                assert graded_min_gens(pres) == module_min_gens(pres), (ideal, k)

    def test_truncation_budget(self, monkeypatch):
        # both counts are taken before any row is built: (x^200000, x*y, y^2)
        # boxes 2 * 200001 * 3 positions, and m^300's 302 columns list
        # 4,726,902 rows in a box of 181,202 positions
        start = time.perf_counter()
        wide = build_Mk(normalize([(200000, 0), (1, 1), (0, 2)]), 1)
        dense = build_Mk(closure(normalize([(300, 0), (0, 300)])), 1)
        for oracle in (module_min_gens, module_colength):
            with pytest.raises(SizeBudgetExceeded, match="1200006 index entries"):
                oracle(wide)
            with pytest.raises(SizeBudgetExceeded, match="4726902 rows"):
                oracle(dense)
        assert time.perf_counter() - start < 0.5
        # the exact edges, with the cap lowered: (x^4, x*y, y^2) at k = 1 lists
        # 6 + 10 + 14 + 10 = 40 rows in a box of 2 * 5 * 3 = 30 positions, and
        # e_0, y^3 e_1, x^3 e_1 list 16 + 4 + 4 = 24 rows in 32 positions
        many_rows = build_Mk(normalize([(4, 0), (1, 1), (0, 2)]), 1)
        many_positions = Presentation2((((0, 0), None), (None, (0, 3)), (None, (3, 0))))
        for pres, count, unit in ((many_rows, 40, "rows"), (many_positions, 32, "index entries")):
            monkeypatch.setattr("icmod.oracle.MAX_OUTPUT_SIZE", count)
            assert module_min_gens(pres) == graded_min_gens(pres)
            assert module_colength(pres) == graded_colength(pres)
            monkeypatch.setattr("icmod.oracle.MAX_OUTPUT_SIZE", count - 1)
            for oracle in (module_min_gens, module_colength):
                with pytest.raises(SizeBudgetExceeded, match=f"{count} {unit}"):
                    oracle(pres)

    def test_min_gens_truncates_at_a0_plus_br(self, full_enumeration):
        # the box c <= a_0, d <= b_r, checked on the largest boxes of (6,8);
        # the margin the benchmark reads is 0
        assert truncation_margin() == 0
        for ideal in sorted(full_enumeration, key=lambda i: i.a0 + i.br)[-5:]:
            for k in range(1, ideal.br):
                pres = build_Mk(ideal, k)
                assert module_min_gens(pres) == graded_min_gens(pres), (ideal, k)


def as_fraction_rows(rows, dim):
    """The position pairs of `_box_rows` as `Fraction` rows, the ground left out."""
    return [{i: Fraction(1) for i in row if i < dim} for row in rows]


def box_rows_by_multiples(pres, a, b, shifted):
    """Every monomial multiple x^c y^d of every column, with the entries that
    fall outside the box c <= a, d <= b dropped, as sets of positions."""
    width, block = a + 1, (a + 1) * (b + 1)
    rows = []
    for col in pres.cols:
        for c in range(a + 1):
            for d in range(b + 1):
                if (c + d > 0) != shifted:
                    continue
                row = {
                    coord * block + (e[1] + d) * width + e[0] + c
                    for coord, e in enumerate(col)
                    if e is not None and e[0] + c <= a and e[1] + d <= b
                }
                if row:
                    rows.append(frozenset(row))
    return sorted(rows, key=sorted)


def assert_kernels_agree(pres, a, b):
    """The union-find rank equals the Fraction elimination's on the box rows
    of mM, of the columns carried on from mM, and of M, which those two span
    (also ranked columns first), and `_box_ranks` reads the same ranks."""
    dim = 2 * (a + 1) * (b + 1)
    shifted_rows = list(_box_rows(pres, a, b, True))
    unit_rows = list(_box_rows(pres, a, b, False))
    pivots = {}
    shifted = _rank(as_fraction_rows(shifted_rows, dim), pivots)
    added = _rank(as_fraction_rows(unit_rows, dim), pivots) - shifted
    want = (shifted + added, shifted, added)
    parent = list(range(dim + 1))
    got = (
        _incidence_rank(unit_rows + shifted_rows, list(range(dim + 1))),
        _incidence_rank(shifted_rows, parent),
        _incidence_rank(unit_rows, parent),
    )
    assert got == want, (pres, a, b)
    assert _box_ranks(pres, a, b) == (dim, shifted, shifted + added), (pres, a, b)


def assert_fitting_box_agrees(pres):
    ideal = finite_fitting0(pres)
    assert_kernels_agree(pres, ideal.a0, ideal.br)


def random_presentation(rng):
    """Up to six columns of random monomials or blanks, some repeated; the
    exponents reach past the boxes they are ranked in."""

    def entry():
        return (rng.randint(0, 6), rng.randint(0, 6)) if rng.random() < 0.8 else None

    cols = []
    for _ in range(rng.randint(1, 6)):
        col = (entry(), entry())
        if col == (None, None):
            col = ((0, rng.randint(0, 3)), None)
        cols += [col] * rng.choice((1, 1, 1, 2))
    return Presentation2(tuple(cols))


class TestIncidenceRank:
    def test_matches_fraction_rank_over_6_8(self, full_enumeration):
        for ideal in full_enumeration:
            for k in range(1, ideal.br):
                assert_fitting_box_agrees(build_Mk(ideal, k))

    def test_matches_fraction_rank_on_random_presentations(self):
        rng = random.Random(7)
        for _ in range(500):
            pres = random_presentation(rng)
            assert_kernels_agree(pres, rng.randint(0, 7), rng.randint(0, 7))

    def test_matches_fraction_rank_on_split_modules(self):
        right = normalize([(2, 0), (1, 1), (0, 3)])
        for left in brute_ideals(3, 3):
            assert_fitting_box_agrees(diagonal_presentation(left, right))

    def test_rows_are_the_multiples_left_in_the_box(self):
        rng = random.Random(8)
        for _ in range(300):
            pres = random_presentation(rng)
            a, b = rng.randint(0, 7), rng.randint(0, 7)
            dim = 2 * (a + 1) * (b + 1)
            count = 0
            for shifted in (True, False):
                rows = as_fraction_rows(_box_rows(pres, a, b, shifted), dim)
                got = sorted((frozenset(row) for row in rows), key=sorted)
                assert got == box_rows_by_multiples(pres, a, b, shifted), (pres, a, b)
                count += len(rows)
            assert _box_row_count(pres, a, b) == count, (pres, a, b)

    def test_a_fault_in_either_reading_is_caught(self, monkeypatch):
        pres = build_Mk(STAIR_B, 3)
        rank, incidence_rank = _rank, _incidence_rank

        def fraction_off_by_one(rows, pivots=None):
            # one more on the first elimination: the rank of mM, which both
            # the generator count and the rank of M carried on from it read
            first = not pivots
            return rank(rows, pivots) + first

        def incidence_off_by_one(*args, **kwargs):
            return incidence_rank(*args, **kwargs) + 1

        faults = {"_rank": fraction_off_by_one, "_incidence_rank": incidence_off_by_one}
        for name, fault in faults.items():
            monkeypatch.setattr(f"icmod.oracle.{name}", fault)
            for oracle in (module_min_gens, module_colength):
                with pytest.raises(InternalInconsistency, match="Fraction.*union-find.*disagree"):
                    oracle(pres)
            monkeypatch.undo()
        assert module_min_gens(pres) == STAIR_B.r + 2


class TestPolynomialColength:
    def test_monomial_generators_match_staircase(self):
        for ideal in brute_ideals(3, 3):
            assert poly_ideal_colength(ideal_as_polys(ideal)) == ideal.colength()

    def test_with_linear_form(self):
        # modulo x + y the ideal becomes a single power of one variable
        for n in range(1, 6):
            polys = [[(1, n, 0)], [(1, 0, n)], [(1, 1, 0), (1, 0, 1)]]
            assert poly_ideal_colength(polys) == n

    def test_binomial_relation(self):
        # x^2 - y^3 and x y generate a colength-5 ideal
        polys = [[(1, 2, 0), (-1, 0, 3)], [(1, 1, 1)]]
        assert poly_ideal_colength(polys) == 5

    def test_infinite_colength_rejected(self):
        with pytest.raises(NotFiniteColength):
            poly_ideal_colength([[(1, 2, 0)]])
        with pytest.raises(NotFiniteColength):
            poly_ideal_colength([])

    def test_pure_powers_bound_the_truncation(self):
        # x^a and y^b put m^(a+b-1) in the ideal, past the degree-64 search
        assert poly_ideal_colength([[(1, 30, 0)], [(1, 0, 30)]]) == 900
        assert poly_ideal_colength([[(1, 70, 0)], [(1, 0, 1)], [(1, 1, 0), (1, 0, 1)]]) == 1
        assert poly_ideal_colength([[(1, 0, 0)]]) == 0
        # a zero coefficient is no power of x
        with pytest.raises(NotFiniteColength):
            poly_ideal_colength([[(0, 3, 0)], [(1, 0, 3)], [(1, 1, 1)]])

    def test_pure_power_truncation_budget(self):
        start = time.perf_counter()
        with pytest.raises(SizeBudgetExceeded):
            poly_ideal_colength([[(1, 2000, 0)], [(1, 0, 2000)]])
        assert time.perf_counter() - start < 0.1


class TestClosureOracle:
    def test_agrees_with_polygon_on_random_ideals(self):
        rng = random.Random(11)
        for _ in range(20):
            pts = [(rng.randint(1, 6), 0), (0, rng.randint(1, 6))]
            pts += [(rng.randint(0, 6), rng.randint(1, 6)) for _ in range(3)]
            ideal = normalize(pts)
            cl = closure(ideal)
            n_max = ideal.a0 + ideal.br
            for u in range(7):
                for v in range(7):
                    assert closure_power_oracle((u, v), ideal, n_max) == cl.member(
                        (u, v)
                    )

    def test_n_max_validation(self):
        with pytest.raises(ValueError):
            closure_power_oracle((1, 1), STAIR_B, 0)


def enumerate_by_reconstruct(bound_a, bound_b):
    """The walk over multisets of primitive pairs, building each ideal from
    scratch as the product of its simple closures: a reference for the
    incremental walk of `enumerate_complete`."""
    pairs = _primitive_pairs(bound_a, bound_b)
    found = []

    def walk(start, counts, sum_p, sum_q):
        if counts:
            found.append(reconstruct(Factorization.from_counts(dict(counts))))
        for i in range(start, len(pairs)):
            f = pairs[i]
            if sum_p + f.p > bound_a or sum_q + f.q > bound_b:
                continue
            counts[f] = counts.get(f, 0) + 1
            walk(i, counts, sum_p + f.p, sum_q + f.q)
            counts[f] -= 1
            if not counts[f]:
                del counts[f]

    walk(0, {}, 0, 0)
    found.sort(key=lambda ideal: (ideal.a0, ideal.br, ideal.gens))
    return found


class TestEnumeration:
    def test_matches_reconstruct_walk(self):
        got = [i.gens for i in enumerate_complete(8, 10)]
        assert got == [i.gens for i in enumerate_by_reconstruct(8, 10)]
        assert len(got) == 1795

    def test_one_product_per_ideal(self, monkeypatch):
        products = 0
        product = MonomialIdeal.product

        def counted_product(self, other):
            nonlocal products
            products += 1
            return product(self, other)

        simples = []

        def counted_simple(f):
            simples.append(f)
            return simple_ideal(f)

        monkeypatch.setattr(MonomialIdeal, "product", counted_product)
        monkeypatch.setattr("icmod.oracle.simple_ideal", counted_simple)
        ideals = list(enumerate_complete(8, 10))
        assert products == len(ideals)
        pairs = [(p, q) for p in range(1, 9) for q in range(1, 11) if math.gcd(p, q) == 1]
        assert sorted((f.p, f.q) for f in simples) == pairs

    def test_matches_brute_force_filter(self):
        expected = sorted(
            (i.gens for i in brute_ideals(3, 3) if is_complete(i)),
        )
        got = sorted(i.gens for i in enumerate_complete(3, 3))
        assert got == expected

    def test_all_complete_and_within_bounds(self):
        for ideal in enumerate_complete(4, 4):
            assert is_complete(ideal)
            assert ideal.a0 <= 4 and ideal.br <= 4

    def test_leaves_no_reference_cycles(self):
        # with the collector off, the walk must free everything it built
        gc.collect()
        gc.disable()
        try:
            assert len(list(enumerate_complete(8, 10))) == 1795
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_bounds_validated(self):
        with pytest.raises(ValueError):
            list(enumerate_complete(0, 3))

    def test_size_budget(self, monkeypatch):
        # (4, 5) holds 48 ideals with 163 generators: exactly at the cap, then one past it
        monkeypatch.setattr("icmod.oracle.MAX_OUTPUT_SIZE", 163)
        assert sum(len(i.gens) for i in enumerate_complete(4, 5)) == 163
        monkeypatch.setattr("icmod.oracle.MAX_OUTPUT_SIZE", 162)
        with pytest.raises(SizeBudgetExceeded):
            list(enumerate_complete(4, 5))
        # each primitive pair is an ideal of the enumeration, so the pairs count
        # before the walk starts: these bounds never form their 10^12 pairs
        monkeypatch.setattr("icmod.oracle.MAX_OUTPUT_SIZE", 40)
        with pytest.raises(SizeBudgetExceeded):
            list(enumerate_complete(10**12, 1))
