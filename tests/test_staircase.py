import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icmod import MonomialIdeal, NotMPrimary, normalize
from tests.conftest import brute_colength


def random_ideals():
    """Strategy for m-primary staircase ideals with exponents up to 9."""

    def build(na, nb, extra):
        return normalize([(na, 0), (0, nb)] + extra)

    point = st.tuples(st.integers(0, 9), st.integers(1, 9))
    return st.builds(
        build,
        st.integers(1, 9),
        st.integers(1, 9),
        st.lists(point, max_size=6),
    )


UNIT = MonomialIdeal(((0, 0),))


@st.composite
def boxed_ideals(draw, max_a: int, max_b: int, max_points: int) -> MonomialIdeal:
    """(x^a_0, y^b_r) plus random points of the box."""
    a0, br = draw(st.integers(1, max_a)), draw(st.integers(1, max_b))
    inner = st.tuples(st.integers(0, a0), st.integers(0, br))
    return normalize([(a0, 0), (0, br), *draw(st.lists(inner, max_size=max_points))])


SHAPES = st.one_of(
    random_ideals(),
    st.just(UNIT),
    boxed_ideals(60, 60, 40),  # dense: dozens of corners
    boxed_ideals(10**6, 12, 6),  # wide
    boxed_ideals(12, 10**6, 6),  # tall
)


def product_by_normalize(left: MonomialIdeal, right: MonomialIdeal) -> MonomialIdeal:
    """Reference product: every one of the n*m corner sums, through `normalize`."""
    return normalize([(a + c, b + d) for a, b in left.gens for c, d in right.gens])


class TestNormalize:
    def test_redundant_generators_dropped(self):
        ideal = normalize([(3, 0), (2, 1), (3, 1), (2, 2), (0, 2)])
        assert ideal.gens == ((3, 0), (2, 1), (0, 2))

    def test_worked_staircase(self):
        ideal = normalize([(5, 0), (4, 2), (3, 3), (2, 4), (1, 6), (0, 7)])
        a, b = zip(*ideal.gens)
        assert a == (5, 4, 3, 2, 1, 0)
        assert b == (0, 2, 3, 4, 6, 7)
        assert ideal.r == 5

    def test_requires_pure_x_power(self):
        with pytest.raises(NotMPrimary):
            normalize([(2, 1), (0, 3)])

    def test_requires_pure_y_power(self):
        with pytest.raises(NotMPrimary):
            normalize([(3, 0), (1, 2)])

    def test_empty_rejected(self):
        with pytest.raises(NotMPrimary):
            normalize([])

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            normalize([(2, 0), (0, -1)])
        with pytest.raises(ValueError):
            normalize([(2, 0), (0, 1.5)])

    @given(random_ideals())
    def test_idempotent(self, ideal):
        assert normalize(ideal.gens) == ideal

    @given(random_ideals())
    def test_antichain_shape(self, ideal):
        a, b = zip(*ideal.gens)
        assert all(a[i] > a[i + 1] for i in range(ideal.r))
        assert all(b[i] < b[i + 1] for i in range(ideal.r))
        assert b[0] == 0 and a[-1] == 0


class TestMembership:
    def test_corner_and_interior(self):
        ideal = normalize([(2, 0), (1, 1), (0, 3)])
        assert ideal.member((2, 0))
        assert ideal.member((5, 7))
        assert not ideal.member((1, 0))
        assert not ideal.member((0, 2))

    @given(random_ideals())
    def test_generators_are_members(self, ideal):
        assert all(ideal.member(g) for g in ideal.gens)

    @given(random_ideals())
    def test_contains_self(self, ideal):
        assert ideal.contains(ideal)


class TestInvariants:
    def test_order_is_min_total_degree(self):
        ideal = normalize([(5, 0), (1, 2), (0, 7)])
        assert ideal.order() == 3

    def test_colength_small(self):
        # staircase of m^2: three points below
        assert normalize([(2, 0), (1, 1), (0, 2)]).colength() == 3

    @given(random_ideals())
    @settings(max_examples=60)
    def test_colength_counts_lattice_points(self, ideal):
        assert ideal.colength() == brute_colength(ideal)

    @given(random_ideals())
    def test_transpose_involution(self, ideal):
        assert ideal.transpose().transpose() == ideal
        assert ideal.transpose().colength() == ideal.colength()
        assert ideal.transpose().order() == ideal.order()


class TestArithmetic:
    def test_product_of_staircases(self):
        m = normalize([(1, 0), (0, 1)])
        assert (m * m).gens == ((2, 0), (1, 1), (0, 2))

    @given(random_ideals(), random_ideals())
    @settings(max_examples=40)
    def test_product_membership(self, left, right):
        for g in left.gens:
            for h in right.gens:
                assert (left * right).member((g[0] + h[0], g[1] + h[1]))

    @given(random_ideals(), st.integers(1, 4))
    @settings(max_examples=40)
    def test_power_is_repeated_product(self, ideal, n):
        expected = ideal
        for _ in range(n - 1):
            expected = expected * ideal
        assert ideal ** n == expected

    @given(SHAPES, SHAPES)
    @settings(max_examples=200)
    def test_product_matches_normalized_sums(self, left, right):
        assert (left * right).gens == product_by_normalize(left, right).gens
        assert (left * left).gens == product_by_normalize(left, left).gens

    @given(SHAPES)
    def test_transpose_is_canonical(self, ideal):
        flipped = ideal.transpose()
        assert flipped.gens == normalize([(b, a) for a, b in ideal.gens]).gens

    def test_power_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            normalize([(1, 0), (0, 1)]).power(0)

    @given(random_ideals(), random_ideals())
    @settings(max_examples=40)
    def test_sum_is_union_of_staircases(self, left, right):
        total = normalize(left.gens + right.gens)
        for u in range(total.a0 + 2):
            for v in range(total.br + 2):
                assert total.member((u, v)) == (
                    left.member((u, v)) or right.member((u, v))
                )

    @given(random_ideals(), random_ideals())
    @settings(max_examples=40)
    def test_colength_subadditive_under_product(self, left, right):
        assert (left * right).colength() >= left.colength() + right.colength()


def test_str_uses_generator_notation():
    assert str(normalize([(2, 0), (1, 1), (0, 3)])) == "(x^2, x*y, y^3)"


def test_unit_ideal_flag():
    assert MonomialIdeal(((0, 0),)).is_unit
    assert not normalize([(1, 0), (0, 1)]).is_unit
