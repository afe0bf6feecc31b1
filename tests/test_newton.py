import math
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icmod import (
    Factorization,
    NotComplete,
    NotMPrimary,
    SimpleFactor,
    SizeBudgetExceeded,
    closure,
    closure_power_oracle,
    enumerate_complete,
    is_complete,
    newton_vertices,
    normalize,
    reconstruct,
    simple_ideal,
    zariski_factor,
)
from icmod.staircase import MonomialIdeal
from tests.conftest import brute_ideals
from tests.test_staircase import random_ideals

STAIR_A = normalize([(5, 0), (4, 2), (3, 3), (2, 4), (1, 6), (0, 7)])
STAIR_B = normalize([(7, 0), (5, 1), (3, 2), (2, 3), (1, 5), (0, 9)])


class TestVertices:
    def test_stair_a(self):
        assert newton_vertices(STAIR_A).vertices == ((5, 0), (2, 4), (0, 7))

    def test_stair_b(self):
        assert newton_vertices(STAIR_B).vertices == (
            (7, 0),
            (3, 2),
            (2, 3),
            (1, 5),
            (0, 9),
        )

    def test_collinear_point_removed(self):
        # (2, 1) sits on the segment from (4, 0) to (0, 2)
        ideal = normalize([(4, 0), (2, 1), (0, 2)])
        assert newton_vertices(ideal).vertices == ((4, 0), (0, 2))

    def test_unit_rejected(self):
        with pytest.raises(NotMPrimary):
            newton_vertices(MonomialIdeal(((0, 0),)))

    @given(random_ideals())
    def test_vertices_are_generators(self, ideal):
        assert set(newton_vertices(ideal).vertices) <= set(ideal.gens)


def closure_by_columns(ideal: MonomialIdeal) -> MonomialIdeal:
    """Reference closure, one column at a time: for each u in 0..a_0 the least
    v meeting every hull-edge half-plane.  O(a_0 * edges), so only for tests."""
    if ideal.is_unit:
        return ideal
    verts = newton_vertices(ideal).vertices
    edges = []
    for (p0, q0), (p1, q1) in zip(verts, verts[1:]):
        a, b = q1 - q0, p0 - p1
        edges.append((a, b, a * p0 + b * q0))
    gens = []
    for u in range(ideal.a0 + 1):
        v = 0
        for a, b, c in edges:
            need = c - a * u
            if need > 0:
                v = max(v, -((-need) // b))
        gens.append((u, v))
    return normalize(gens)


@st.composite
def boxed_staircases(draw, max_a: int, max_b: int) -> MonomialIdeal:
    """(x^a_0, y^b_r) plus up to eight random points of the box."""
    a0, br = draw(st.integers(1, max_a)), draw(st.integers(1, max_b))
    inner = draw(st.lists(st.tuples(st.integers(0, a0), st.integers(1, br)), max_size=8))
    return normalize([(a0, 0), (0, br), *inner])


@st.composite
def convex_staircases(draw) -> MonomialIdeal:
    """Hull vertices built from up to six random edge vectors, shallowest
    first, so steep, shallow and non-primitive edges mix on one polygon."""
    steps = draw(st.lists(st.tuples(st.integers(1, 160), st.integers(1, 160)), min_size=1, max_size=6))
    steps.sort(key=lambda s: Fraction(s[1], s[0]))
    u, v = sum(dp for dp, _ in steps), 0
    verts = [(u, v)]
    for dp, dq in steps:
        u, v = u - dp, v + dq
        verts.append((u, v))
    return normalize(verts)


STAIRCASES = st.one_of(
    boxed_staircases(30, 1000),  # steep edges
    boxed_staircases(1000, 30),  # shallow edges
    boxed_staircases(1000, 1000),
    convex_staircases(),
)


def assert_polygon_transposes(ideal: MonomialIdeal) -> None:
    """The polygon of the transposed ideal is the transposed polygon, and it
    factors the transposed closure."""
    transposed = newton_vertices(ideal).transpose()
    assert transposed == newton_vertices(ideal.transpose())
    assert transposed.factorization() == zariski_factor(closure(ideal).transpose())


class TestClosure:
    def test_fills_under_the_hull(self):
        assert closure(normalize([(3, 0), (0, 2)])).gens == (
            (3, 0),
            (2, 1),
            (0, 2),
        )

    def test_already_closed(self):
        assert closure(STAIR_A) == STAIR_A

    @given(random_ideals())
    def test_idempotent_and_extensive(self, ideal):
        cl = closure(ideal)
        assert closure(cl) == cl
        assert cl.contains(ideal)
        assert cl.order() == ideal.order()
        assert_polygon_transposes(ideal)

    @given(random_ideals())
    @settings(max_examples=50)
    def test_minimal_among_hull_points(self, ideal):
        # nothing strictly under the hull sneaks in
        cl = closure(ideal)
        verts = newton_vertices(ideal).vertices
        for (p0, q0), (p1, q1) in zip(verts, verts[1:]):
            a, b = q1 - q0, p0 - p1
            c = a * p0 + b * q0
            for u, v in cl.gens:
                assert a * u + b * v >= c

    @given(STAIRCASES)
    @settings(max_examples=300)
    def test_matches_column_reference(self, ideal):
        for case in (ideal, ideal.transpose()):
            cl = closure(case)
            assert cl == closure_by_columns(case)
            assert cl.gens == normalize(cl.gens).gens
            # the budget counts exactly the corners the walk emits
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr("icmod.newton.MAX_OUTPUT_SIZE", len(cl.gens))
                assert closure(case) == cl
                mp.setattr("icmod.newton.MAX_OUTPUT_SIZE", len(cl.gens) - 1)
                with pytest.raises(SizeBudgetExceeded):
                    closure(case)
        assert closure(ideal.transpose()) == closure(ideal).transpose()

    @given(boxed_staircases(8, 8))
    @settings(max_examples=60)
    def test_matches_power_oracle(self, ideal):
        cl = closure(ideal)
        assert cl == closure_by_columns(ideal)
        n_max = ideal.a0 + ideal.br
        for u in range(ideal.a0 + 1):
            for v in range(ideal.br + 1):
                assert closure_power_oracle((u, v), ideal, n_max) == cl.member((u, v))

    def test_cost_follows_the_output_not_a0(self):
        # the column loop would visit 10^9 + 1 columns; the edges give 7 corners
        ideal = normalize([(10**9, 0), (6, 1), (3, 3), (1, 6), (0, 11)])
        assert closure(ideal).gens == (
            (10**9, 0),
            (6, 1),
            (5, 2),
            (3, 3),
            (2, 5),
            (1, 6),
            (0, 11),
        )

    def test_output_budget(self, monkeypatch):
        # the budget counts the corners the closure really has, 1 + the sum of
        # min(dp, dq) over the hull edges: these pure powers around xy close to 3
        wide = normalize([(1_000_000, 0), (1, 1), (0, 1_000_000)])
        assert closure(wide) == wide
        # one past the cap, with 10^6 + 1 real corners, is refused before the
        # walk, which would hold about 100 MB of corners
        tracemalloc.start()
        try:
            with pytest.raises(SizeBudgetExceeded):
                closure(normalize([(1_000_000, 0), (0, 1_000_000)]))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        with pytest.raises(SizeBudgetExceeded):
            is_complete(normalize([(10**8, 0), (0, 10**8)]))
        # a closure at the real cap takes 0.7 s and 260 MB, so the cap is
        # lowered to check the edge
        monkeypatch.setattr("icmod.newton.MAX_OUTPUT_SIZE", 40)
        assert len(closure(normalize([(39, 0), (0, 39)])).gens) == 40
        with pytest.raises(SizeBudgetExceeded):
            closure(normalize([(40, 0), (0, 40)]))
        assert closure(normalize([(100, 0), (1, 1), (0, 100)])).r == 2

    def test_is_complete(self):
        assert not is_complete(normalize([(3, 0), (0, 2)]))
        assert is_complete(STAIR_A)
        assert is_complete(STAIR_B)
        ideals = brute_ideals(4, 4)
        complete = [ideal for ideal in ideals if is_complete(ideal)]
        assert 0 < len(complete) < len(ideals)
        for ideal in ideals:
            assert is_complete(ideal) == (closure(ideal) == ideal)
            assert_polygon_transposes(ideal)


class TestSimpleFactors:
    def test_primitive_pair_required(self):
        with pytest.raises(ValueError):
            SimpleFactor(2, 4)
        with pytest.raises(ValueError):
            SimpleFactor(0, 1)
        with pytest.raises(ValueError):
            SimpleFactor(2, 3)._replace(q=4)

    def test_order(self):
        assert SimpleFactor(3, 2).order == 2

    def test_ordered_and_hashed_by_the_pair(self):
        pairs = [(3, 2), (1, 4), (2, 3), (1, 1), (3, 1)]
        factors = [SimpleFactor(p, q) for p, q in pairs]
        assert sorted(factors) == [SimpleFactor(p, q) for p, q in sorted(pairs)]
        twin = SimpleFactor(3, 2)
        assert twin == factors[0] and twin is not factors[0]
        assert hash(twin) == hash(factors[0]) and len({*factors, twin}) == len(factors)
        assert (twin.p, twin.q, repr(twin)) == (3, 2, "SimpleFactor(p=3, q=2)")

    def test_from_counts_sorts_by_descending_p_then_q(self):
        shuffled = ((1, 2, 1), (3, 2, 2), (1, 1, 1), (3, 1, 0))
        counts = {SimpleFactor(p, q): m for p, q, m in shuffled}
        assert Factorization.from_counts(counts).factors == (
            (SimpleFactor(3, 2), 2),
            (SimpleFactor(1, 1), 1),
            (SimpleFactor(1, 2), 1),
        )

    def test_simple_ideal_is_simple(self):
        for f in (SimpleFactor(2, 3), SimpleFactor(1, 4)):
            assert zariski_factor(simple_ideal(f)).factors == ((f, 1),)
        for p in range(1, 13):
            for q in range(1, 13):
                if math.gcd(p, q) == 1:
                    f = SimpleFactor(p, q)
                    assert simple_ideal(f) == closure(normalize([(p, 0), (0, q)]))
        assert zariski_factor(normalize([(2, 0), (1, 1), (0, 2)])).factors == (
            (SimpleFactor(1, 1), 2),
        )


class TestFactorization:
    def test_stair_a(self):
        assert zariski_factor(STAIR_A).as_dict() == {
            SimpleFactor(2, 3): 1,
            SimpleFactor(3, 4): 1,
        }

    def test_stair_b(self):
        assert zariski_factor(STAIR_B).as_dict() == {
            SimpleFactor(1, 1): 1,
            SimpleFactor(1, 2): 1,
            SimpleFactor(1, 4): 1,
            SimpleFactor(2, 1): 2,
        }

    def test_rejects_non_complete(self):
        with pytest.raises(NotComplete):
            zariski_factor(normalize([(3, 0), (0, 2)]))

    def test_total_order_matches(self, small_complete):
        for ideal in small_complete:
            factors = zariski_factor(ideal).factors
            assert sum(m * f.order for f, m in factors) == ideal.order()

    def test_round_trip(self, small_complete):
        for ideal in small_complete:
            assert reconstruct(zariski_factor(ideal)) == ideal

    def test_colength_from_the_counts(self):
        for ideal in enumerate_complete(8, 10):
            f = zariski_factor(ideal)
            assert f.colength() == reconstruct(f).colength(), ideal

    def test_colength_hand_cases(self):
        def counts(*pairs):
            return Factorization.from_counts({SimpleFactor(p, q): n for p, q, n in pairs})

        # one simple factor: the points under its edge, 3x + 2y < 6 and 5x + 3y < 15
        assert counts((2, 3, 1)).colength() == 5
        assert counts((3, 5, 1)).colength() == 11
        # a power of one factor adds C(n, 2) p q: m^3 has colength 6
        assert counts((1, 1, 3)).colength() == 6
        square = counts((2, 3, 2))
        assert square.colength() == 2 * 5 + 6 == reconstruct(square).colength()
        # p q' = p' q only for one factor listed twice, whose mixed term is
        # then the power's p q; the min picks the smaller of p q' and p' q
        twice = Factorization(((SimpleFactor(2, 3), 1), (SimpleFactor(2, 3), 1)))
        assert twice.colength() == square.colength()
        assert counts((1, 2, 1), (2, 1, 1)).colength() == 2 + 2 + 1
        assert reconstruct(counts((1, 2, 1), (2, 1, 1))).colength() == 5
        assert Factorization(()).colength() == 0
        with pytest.raises(ValueError, match="empty factorization"):
            reconstruct(Factorization.from_counts({}))

    def test_multiset_operations(self):
        f = Factorization.from_counts({SimpleFactor(1, 1): 2, SimpleFactor(2, 3): 1})
        assert f.as_dict().get(SimpleFactor(1, 1), 0) == 2
        removed = f.remove(SimpleFactor(1, 1))
        assert removed.as_dict().get(SimpleFactor(1, 1), 0) == 1
        with pytest.raises(ValueError):
            f.remove(SimpleFactor(5, 1))

    def test_factor_of_product_is_union(self, small_complete):
        for left in small_complete[:12]:
            for right in small_complete[:12]:
                combined = zariski_factor(left * right).as_dict()
                expected: dict[SimpleFactor, int] = dict(zariski_factor(left).as_dict())
                for sf, m in zariski_factor(right).as_dict().items():
                    expected[sf] = expected.get(sf, 0) + m
                assert combined == expected
