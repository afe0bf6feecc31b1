import gc
import itertools
import math
import random
import time
from fractions import Fraction

import pytest

from icmod import (
    Factorization,
    InternalInconsistency,
    MonomialIdeal,
    NonMonomialMinor,
    NotFiniteColength,
    Presentation2,
    SimpleFactor,
    SizeBudgetExceeded,
    build_Mk,
    certificate_diff,
    choose_k,
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
    verify_certificate,
)
from icmod.oracle import (
    _powers,
    _box_ranks,
    _pivots,
    _poly_rows,
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
        # both caps are checked before any mask is built: (x^200000, x*y, y^2)
        # boxes 2 * 200001 * 3 positions, past the positions cap, while m^300's
        # 302 columns in a box of 181,202 positions make 54,723,004 mask bits,
        # and 1,001 distinct columns in a box of 999,698 positions make
        # 1,000,697,698, past the mask cap
        start = time.perf_counter()
        wide = build_Mk(normalize([(200000, 0), (1, 1), (0, 2)]), 1)
        dense = build_Mk(closure(normalize([(300, 0), (0, 300)])), 1)
        for oracle in (module_min_gens, module_colength):
            with pytest.raises(SizeBudgetExceeded, match="1200006 index entries"):
                oracle(wide)
        assert module_min_gens(dense) == graded_min_gens(dense) == 302
        assert module_colength(dense) == graded_colength(dense) == 45149
        many_columns = Presentation2(tuple((None, divmod(i, 32)) for i in range(1001)))

        def refuse_masks(*args):
            pytest.fail("a mask was built past the cap")

        with monkeypatch.context() as patched:
            patched.setattr("icmod.oracle._rectangle", refuse_masks)
            with pytest.raises(SizeBudgetExceeded, match="1000697698 mask bits"):
                _box_ranks(many_columns, 706, 706)
        assert time.perf_counter() - start < 0.5
        # the exact edges, with a cap lowered: (x^4, x*y, y^2) at k = 1 has 4
        # distinct columns in a box of 2 * 5 * 3 = 30 positions, 120 mask bits,
        # and e_0, y^3 e_1, x^3 e_1 box 32 positions
        many_bits = build_Mk(normalize([(4, 0), (1, 1), (0, 2)]), 1)
        many_positions = Presentation2((((0, 0), None), (None, (0, 3)), (None, (3, 0))))
        for pres, cap, count, unit in (
            (many_bits, "MAX_MASK_BITS", 120, "mask bits"),
            (many_positions, "MAX_OUTPUT_SIZE", 32, "index entries"),
        ):
            with monkeypatch.context() as patched:
                patched.setattr(f"icmod.oracle.{cap}", count)
                assert module_min_gens(pres) == graded_min_gens(pres)
                assert module_colength(pres) == graded_colength(pres)
                patched.setattr(f"icmod.oracle.{cap}", count - 1)
                patched.setattr("icmod.oracle._rectangle", refuse_masks)
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


def box_rows_by_multiples(pres, a, b):
    """Every monomial multiple x^c y^d of every column that keeps an entry in
    the box c <= a, d <= b, with the entries that fall outside it dropped, as
    sets of positions: the multiples by m (the rows of mM), and the columns.
    An entry x^u y^v stays in the box for the (c, d) of its rectangle
    c <= a - u, d <= b - v, so each entry visits only that rectangle."""
    width, block = a + 1, (a + 1) * (b + 1)
    shifted, columns = [], []
    for col in pres.cols:
        rows = {}
        for coord, e in enumerate(col):
            if e is not None:
                for c in range(a - e[0] + 1):
                    for d in range(b - e[1] + 1):
                        position = coord * block + (e[1] + d) * width + e[0] + c
                        rows.setdefault((c, d), set()).add(position)
        for (c, d), row in sorted(rows.items()):
            (shifted if c + d else columns).append(row)
    return shifted, columns


def assert_kernels_agree(pres, a, b):
    """`_box_ranks` counts the ranks of mM and of M that the rational
    elimination gives the brute-force box rows (integer rows, which
    `TestRank` checks against `Fraction` rows)."""
    dim = 2 * (a + 1) * (b + 1)
    shifted_rows, columns = box_rows_by_multiples(pres, a, b)
    rows = shifted_rows + columns
    shifted, full = (_rank(dict.fromkeys(row, 1) for row in part) for part in (shifted_rows, rows))
    assert _box_ranks(pres, a, b) == (dim, shifted, full), (pres, a, b)


def assert_fitting_box_agrees(pres):
    ideal = finite_fitting0(pres)
    assert_kernels_agree(pres, ideal.a0, ideal.br)


def two_entry_column(rng, shift, reach):
    """A random column (top, bottom) with top - bottom = `shift`.  Fitt_0 is
    monomial only when every two-entry column has the same shift (see
    `presentation._split`), so the presentations here share one."""
    u, v = rng.randint(0, reach), rng.randint(0, reach)
    s, t = shift
    return (u + max(s, 0), v + max(t, 0)), (u + max(-s, 0), v + max(-t, 0))


def random_shift(rng):
    return rng.randint(-3, 3), rng.randint(-3, 3)


def random_presentation(rng):
    """Up to six columns of random monomials or blanks, some repeated, the
    two-entry ones of one shift; the exponents reach past the boxes they are
    ranked in."""
    shift = random_shift(rng)

    def entry():
        return (rng.randint(0, 6), rng.randint(0, 6)) if rng.random() < 0.8 else None

    cols = []
    for _ in range(rng.randint(1, 6)):
        col = (entry(), entry())
        if col == (None, None):
            col = ((0, rng.randint(0, 3)), None)
        elif None not in col:
            col = two_entry_column(rng, shift, 6)
        cols += [col] * rng.choice((1, 1, 1, 2))
    return Presentation2(tuple(cols))


SHAPES = ("one_entry", "shifts", "outside", "thin", "repeated")


def shaped_presentation(rng, shape):
    """A presentation and a box (a, b) of one shape: only one-entry columns;
    at least two two-entry columns; exponents far past the box, so that many
    columns keep one entry or none; a = 0 or b = 0; every column repeated.
    The two-entry columns share one shift top - bottom."""
    a, b = rng.randint(0, 6), rng.randint(0, 6)
    reach = 12 if shape == "outside" else 6
    shift = random_shift(rng)
    if shape == "thin":
        a, b = rng.choice(((0, b), (a, 0), (0, 0)))

    def mono():
        return rng.randint(0, reach), rng.randint(0, reach)

    cols = []
    for _ in range(rng.randint(1, 6)):
        if shape == "one_entry" or rng.random() < 0.3:
            cols.append((mono(), None) if rng.random() < 0.5 else (None, mono()))
        else:
            cols.append(two_entry_column(rng, shift, reach))
    if shape == "shifts":
        cols += [two_entry_column(rng, shift, reach) for _ in range(2)]
    if shape == "repeated":
        cols = [col for col in cols for _ in range(rng.randint(2, 3))]
    rng.shuffle(cols)
    return Presentation2(tuple(cols)), a, b


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

    @pytest.mark.parametrize("shape", SHAPES)
    def test_matches_fraction_rank_on_shaped_presentations(self, shape):
        rng = random.Random(f"box {shape}")
        for _ in range(200):
            pres, a, b = shaped_presentation(rng, shape)
            assert_kernels_agree(pres, a, b)

    def test_mixed_shifts_are_refused(self):
        # two two-entry columns of shifts (1, 0) and (0, 1) in the box: the
        # count needs one gap, and Fitt_0 holds the binomial minor x - y
        pres = Presentation2((((1, 0), (0, 0)), ((0, 1), (0, 0)), ((2, 0), None)))
        with pytest.raises(InternalInconsistency, match="different shifts"):
            _box_ranks(pres, 2, 2)
        for oracle in (module_min_gens, module_colength):
            with pytest.raises(NonMonomialMinor):
                oracle(pres)

    def test_identical_columns_count_once(self, monkeypatch):
        # the far corner of a 700 x 700 box, 20,000 times: every copy adds
        # three rows and no rank, and the count is the one column's, with the
        # 980,000 mask bits of one column against the cap
        column = ((699, 698), (698, 699))
        small = Presentation2((((5, 4), (4, 5)),) * 200)
        assert_kernels_agree(small, 5, 5)
        copies = Presentation2((column,) * 20000)
        start = time.perf_counter()
        ranks = _box_ranks(copies, 699, 699)
        assert time.perf_counter() - start < 0.5
        assert ranks == _box_ranks(Presentation2((column,)), 699, 699) == (980000, 2, 3)
        monkeypatch.setattr("icmod.oracle.MAX_MASK_BITS", 980000)
        assert _box_ranks(copies, 699, 699) == ranks
        monkeypatch.setattr("icmod.oracle.MAX_MASK_BITS", 979999)
        with pytest.raises(SizeBudgetExceeded, match="980000 mask bits"):
            _box_ranks(copies, 699, 699)

    def test_long_box_near_the_cap(self):
        # 840,006 positions and 980,012 rows, counted with a few shifts of
        # box-wide masks
        start = time.perf_counter()
        pres = build_Mk(normalize([(140000, 0), (1, 1), (0, 2)]), 1)
        assert module_min_gens(pres) == 4
        assert module_colength(pres) == 140000
        assert time.perf_counter() - start < 0.5

    def test_a_box_count_fault_is_caught(self, monkeypatch, full_enumeration):
        # the oracle counts the ranks of its box; a count that misses one
        # rank of mM, so that mu comes out one more, is caught by the
        # verifier, which compares the oracle's mu with the graded count, and
        # by the rational reference of these tests
        certs = [
            choose_k(ideal)
            for ideal in full_enumeration
            if ideal.order() > 2 or (ideal.order() == 2 and not ideal.member((1, 1)))
        ]
        assert len(certs) == 327 and all(verify_certificate(c) for c in certs)

        count = _box_ranks

        def count_off_by_one(pres, a, b):
            dim, shifted, full = count(pres, a, b)
            return dim, shifted - 1, full

        # in the oracle, and in the reference comparison of this module
        monkeypatch.setattr("icmod.oracle._box_ranks", count_off_by_one)
        monkeypatch.setitem(globals(), "_box_ranks", count_off_by_one)
        for cert in certs:
            assert not verify_certificate(cert), cert.input
            assert "checks mismatch: min_gens_equals_r_plus_2" in certificate_diff(cert)
        with pytest.raises(AssertionError):
            assert_fitting_box_agrees(build_Mk(STAIR_B, 3))
        monkeypatch.undo()
        assert module_min_gens(build_Mk(STAIR_B, 3)) == STAIR_B.r + 2

    def test_each_verification_counts_one_box(self, monkeypatch, full_enumeration):
        # the re-run counts the box of the one M_k it builds for mu, and once
        # more for the length only where it checks `length_refutes_splitting`
        counted = []
        count = _box_ranks
        monkeypatch.setattr(
            "icmod.oracle._box_ranks", lambda pres, a, b: counted.append(pres) or count(pres, a, b)
        )
        lengths = 0
        for ideal in full_enumeration:
            if ideal.order() > 2 or (ideal.order() == 2 and not ideal.member((1, 1))):
                cert = choose_k(ideal)
                counted.clear()
                assert verify_certificate(cert)
                length = any(name == "length_refutes_splitting" for name, _ in cert.checks)
                assert len(counted) == 1 + length, ideal
                lengths += length
        assert lengths > 0


def rank_by_minors(matrix):
    """The order of the largest nonzero minor, each determinant expanded over
    the permutations: a reference that eliminates nothing."""
    height, width = len(matrix), len(matrix[0])
    for k in range(min(height, width), 0, -1):
        for rows in itertools.combinations(range(height), k):
            for cols in itertools.combinations(range(width), k):
                det = 0
                for perm in itertools.permutations(range(k)):
                    inversions = sum(p > q for p, q in itertools.combinations(perm, 2))
                    det += (-1) ** inversions * math.prod(
                        matrix[r][cols[p]] for r, p in zip(rows, perm)
                    )
                if det:
                    return k
    return 0


class TestRank:
    def test_integer_rows_match_fraction_rows_and_minors(self):
        # small random integer matrices whose leads, the entries at the last
        # nonzero column, include 2, -1 and 3, with negative entries and rows
        # repeated or combined from two others
        rng = random.Random(14)
        entries = (0, 0, 0, 1, 1, -1, 2, 3, -2)
        for _ in range(300):
            width = rng.randint(1, 5)
            matrix = [
                [rng.choice(entries) for _ in range(width)] for _ in range(rng.randint(1, 4))
            ]
            for _ in range(rng.randint(0, 2)):
                r, s = rng.choice(matrix), rng.choice(matrix)
                if rng.random() < 0.5:
                    matrix.append(list(r))
                else:
                    u, v = rng.choice((1, -1, 2, 3)), rng.choice((1, -2, 3))
                    matrix.append([u * x + v * y for x, y in zip(r, s)])
            rng.shuffle(matrix)
            ints = [{c: v for c, v in enumerate(row) if v} for row in matrix]
            fractions = [{c: Fraction(v) for c, v in row.items()} for row in ints]
            want = rank_by_minors(matrix)
            assert _rank(ints) == _rank(fractions) == want, matrix


def random_polys(rng):
    """A few short polynomials with small exponents; coefficients include 0,
    some terms cancel, a generator may repeat or be a constant, and x^a and
    y^b are sometimes given as monomials."""
    polys = []
    for _ in range(rng.randint(1, 3)):
        poly = [(rng.choice((1, -1, 2, 0, 3)), rng.randint(0, 3), rng.randint(0, 3))]
        poly += [(rng.choice((1, -2, 5)), rng.randint(0, 3), rng.randint(0, 3))]
        if rng.random() < 0.3:
            coef, a, b = poly[0]
            poly.append((-coef, a, b))  # cancels the first term
        polys.append(poly)
    if rng.random() < 0.5:
        polys += [[(1, rng.randint(1, 6), 0)], [(rng.choice((1, 0)), 0, rng.randint(1, 6))]]
    if rng.random() < 0.2:
        polys.append(list(rng.choice(polys)))
    if rng.random() < 0.1:
        polys.append([(rng.choice((1, -3)), 0, 0)])
    rng.shuffle(polys)
    return polys


def axis_order(polys, axis):
    """The least degree of a nonzero term of some g(x, 0) (axis 0) or g(0, y)
    (axis 1), like terms added; infinite when every restriction vanishes."""
    degrees = []
    for g in polys:
        restricted = {}
        for coef, *exponents in g:
            if exponents[1 - axis] == 0:
                restricted[exponents[axis]] = restricted.get(exponents[axis], 0) + coef
        degrees += [t for t, c in restricted.items() if c]
    return min(degrees, default=math.inf)


class TestPolynomialColength:
    def test_one_elimination_reads_both_truncations(self):
        # the rows at n + 1, projected below degree n, span the rows at n; a
        # pivot row's entries lie at or after its pivot, so the pivots below
        # n(n + 1)/2 count the rank at n
        rng = random.Random(23)  # 12 inputs cover every case of `random_polys`
        # x + y^2 is not homogeneous: a multiple cut at degree n + 1 keeps
        # terms below n that no combination free of degree n reaches, so the
        # pair needs each pivot at its row's least position (at the greatest,
        # x + y^2 alone reads a different pair)
        for polys in [[[(1, 1, 0), (1, 0, 2)]], [[(1, 1, 0), (1, 0, 2)], [(1, 0, 7)]]] + [
            random_polys(rng) for _ in range(12)
        ]:
            for n in range(1, 12):
                dim_n, dim_next = n * (n + 1) // 2, (n + 1) * (n + 2) // 2
                pivots = _pivots(_poly_rows(polys, n + 1))
                got = (dim_n - sum(1 for p in pivots if p < dim_n), dim_next - len(pivots))
                want = (
                    dim_n - _rank(_poly_rows(polys, n)),
                    dim_next - _rank(_poly_rows(polys, n + 1)),
                )
                assert got == want, (polys, n)

    def test_search_matches_the_exact_degree(self):
        # with x^a and y^b among the generators the truncation at a + b - 1 is
        # exact, so the search must give its length wherever it stops
        rng = random.Random(31)
        checked = 0
        while checked < 60:
            polys = random_polys(rng)
            powers = [(a, b) for g in polys if len(g) == 1 for coef, a, b in g if coef]
            x_power = min((a for a, b in powers if b == 0), default=None)
            y_power = min((b for a, b in powers if a == 0), default=None)
            if x_power is None or y_power is None:
                continue
            exact = max(1, x_power + y_power - 1)
            want = exact * (exact + 1) // 2 - _rank(_poly_rows(polys, exact))
            assert poly_ideal_colength(polys) == want, polys
            checked += 1

    def test_no_stop_test_passes_below_the_axis_orders(self):
        # m^n in I + m^(n+1) needs n >= the least degree of a nonzero term of
        # some g(x, 0) and of some g(0, y); with none, no degree passes
        rng = random.Random(37)
        for _ in range(80):
            polys = random_polys(rng)
            start = max(axis_order(polys, 0), axis_order(polys, 1))
            for n in range(min(start, 8)):
                dim_n, dim_next = n * (n + 1) // 2, (n + 1) * (n + 2) // 2
                pivots = _pivots(_poly_rows(polys, n + 1))
                assert sum(1 for p in pivots if p >= dim_n) < dim_next - dim_n, (polys, n)

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
        with pytest.raises(NotFiniteColength):  # not homogeneous: needs least-position pivots
            poly_ideal_colength([[(1, 1, 0), (1, 0, 2)]])
        with pytest.raises(NotFiniteColength):
            poly_ideal_colength([])

    def test_a_vanishing_restriction_is_refused_at_once(self, monkeypatch):
        # x^2 with x + y - y, and y^3 with 0*x^2 + x*y, lie in (x) and in (y):
        # once like terms are added no g(0, y), or no g(x, 0), is nonzero, so
        # no stop test can pass and none is run
        built = []
        monkeypatch.setattr("icmod.oracle._poly_rows", lambda g, n: built.append(n) or [])
        for polys in (
            [[(1, 2, 0)], [(1, 1, 0), (1, 0, 1), (-1, 0, 1)]],
            [[(1, 0, 3)], [(0, 2, 0), (1, 1, 1)]],
        ):
            with pytest.raises(NotFiniteColength, match="below truncation degree 64"):
                poly_ideal_colength(polys)
        assert built == []

    def test_pure_powers_bound_the_truncation(self):
        # x^a and y^b put m^(a+b-1) in the ideal, past the degree-64 search
        assert poly_ideal_colength([[(1, 30, 0)], [(1, 0, 30)]]) == 900
        assert poly_ideal_colength([[(1, 70, 0)], [(1, 0, 1)], [(1, 1, 0), (1, 0, 1)]]) == 1
        assert poly_ideal_colength([[(1, 0, 0)]]) == 0
        # an empty generator adds no row
        assert poly_ideal_colength([[(1, 2, 0)], [], [(1, 0, 3)]]) == 6
        # a zero coefficient is no power of x
        with pytest.raises(NotFiniteColength):
            poly_ideal_colength([[(0, 3, 0)], [(1, 0, 3)], [(1, 1, 1)]])

    def test_pure_power_truncation_budget(self):
        start = time.perf_counter()
        with pytest.raises(SizeBudgetExceeded):
            poly_ideal_colength([[(1, 2000, 0)], [(1, 0, 2000)]])
        assert time.perf_counter() - start < 0.1

    def test_truncation_rows_budget(self, monkeypatch):
        # m^n given as its n + 1 monomials is exact at degree 2n - 1, where it
        # lists 1,687,425 rows for m^150 and 13,499,850 for m^300, but the
        # search starts at the axis orders n, whose stop test already passes
        start = time.perf_counter()
        for n in (150, 300):
            polys = [[(1, n - i, i)] for i in range(n + 1)]
            assert poly_ideal_colength(polys) == n * (n + 1) // 2
        # x, x, y^1413 start at the exact degree 1413, whose 998,991 positions
        # fit and whose 2 * 997,578 rows do not
        with pytest.raises(SizeBudgetExceeded, match="1995156 rows"):
            poly_ideal_colength([[(1, 1, 0)], [(1, 1, 0)], [(1, 0, 1413)]])
        assert time.perf_counter() - start < 0.5
        # the exact edge, with the cap lowered: x, y^5, x*y + y^5 have axis
        # orders 1 and 5, so they start at their exact degree 5, where they
        # list 10 + 0 + 6 = 16 rows in 15 positions
        polys = [[(1, 1, 0)], [(1, 0, 5)], [(1, 1, 1), (1, 0, 5)]]
        monkeypatch.setattr("icmod.oracle.MAX_OUTPUT_SIZE", 16)
        assert poly_ideal_colength(polys) == 5
        monkeypatch.setattr("icmod.oracle.MAX_OUTPUT_SIZE", 15)
        with pytest.raises(SizeBudgetExceeded, match="16 rows"):
            poly_ideal_colength(polys)

    def test_both_degrees_of_a_stop_test_are_counted_first(self, monkeypatch):
        # x^4, y^4, x*y, x*y + x^2*y, x*y - x*y^2 search from their axis
        # orders 4, below the exact degree 7: 10 positions and 3 + 3 + 3 rows
        # there, 15 positions and 1 + 1 + 6 + 6 + 6 rows at degree 5; a cap
        # between the two counts refuses degree 5 before any row is built
        polys = [[(1, 4, 0)], [(1, 0, 4)], [(1, 1, 1)]]
        polys += [[(1, 1, 1), (1, 2, 1)], [(1, 1, 1), (-1, 1, 2)]]
        built = []
        rows = _poly_rows
        monkeypatch.setattr("icmod.oracle._poly_rows", lambda g, n: built.append(n) or rows(g, n))
        for cap, message in ((14, "15 index entries"), (19, "20 rows"), (9, "10 index entries")):
            monkeypatch.setattr("icmod.oracle.MAX_OUTPUT_SIZE", cap)
            with pytest.raises(SizeBudgetExceeded, match=f"could form {message}, more than"):
                poly_ideal_colength(polys)
        assert built == []
        monkeypatch.setattr("icmod.oracle.MAX_OUTPUT_SIZE", 20)
        assert poly_ideal_colength(polys) == 7 and built == [5]


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

    def test_matches_uncached_reference(self, small_complete):
        for ideal in small_complete:
            if ideal.is_unit:
                continue
            for n_max in (1, 2, ideal.a0 + ideal.br):
                for u in range(ideal.a0 + 2):
                    for v in range(ideal.br + 2):
                        want = closure_power_by_products((u, v), ideal, n_max)
                        assert closure_power_oracle((u, v), ideal, n_max) == want, (ideal, u, v)

    def test_a_box_sweep_forms_each_power_once(self, monkeypatch):
        products = 0
        product = MonomialIdeal.product

        def counted_product(self, other):
            nonlocal products
            products += 1
            return product(self, other)

        monkeypatch.setattr(MonomialIdeal, "product", counted_product)
        _powers.cache_clear()
        n_max = STAIR_B.a0 + STAIR_B.br
        for u in range(STAIR_B.a0 + 1):
            for v in range(STAIR_B.br + 1):
                closure_power_oracle((u, v), STAIR_B, n_max)
        assert products == n_max - 1

    def test_n_max_validation(self):
        with pytest.raises(ValueError):
            closure_power_oracle((1, 1), STAIR_B, 0)


def closure_power_by_products(m, ideal, n_max):
    """Reference: the powers formed afresh for each point, up to the first
    n with m^n in I^n."""
    u, v = m
    power = ideal
    for n in range(1, n_max + 1):
        if power.member((n * u, n * v)):
            return True
        power = power.product(ideal)
    return False


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

    def test_duplicate_ideal_is_refused(self, monkeypatch):
        # a pair listed twice builds (x, y) twice: the walk must not yield it twice
        monkeypatch.setattr("icmod.oracle._primitive_pairs", lambda a, b: [SimpleFactor(1, 1)] * 2)
        with pytest.raises(InternalInconsistency, match="duplicate ideal in enumeration"):
            list(enumerate_complete(2, 2))

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
