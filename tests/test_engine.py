import sys

import pytest

from icmod import (
    Branch,
    InternalInconsistency,
    KOutOfRange,
    NotComplete,
    Presentation2,
    Verdict,
    certificate_diff,
    choose_k,
    classify,
    closure,
    normalize,
    build_Mk,
    orient,
    parse_ideal,
    reconstruct,
    simple_ideal,
    valid_k_set,
    verify_certificate,
    zariski_factor,
)
from icmod.engine import _match_n1
from icmod.newton import SimpleFactor

M = normalize([(1, 0), (0, 1)])
STAIR_A = normalize([(5, 0), (4, 2), (3, 3), (2, 4), (1, 6), (0, 7)])
STAIR_B = normalize([(7, 0), (5, 1), (3, 2), (2, 3), (1, 5), (0, 9)])


def xy_ideal(p, q):
    return closure(normalize([(p, 0), (0, q)]))


class TestOrient:
    def test_flips_wide_staircases(self):
        ideal = normalize([(7, 0), (1, 1), (0, 2)])
        oriented, transposed = orient(ideal)
        assert transposed and oriented == ideal.transpose()

    def test_keeps_tall_staircases(self):
        assert orient(STAIR_B) == (STAIR_B, False)

    def test_tie_break_is_canonical(self):
        ideal = M * xy_ideal(1, 2) * xy_ideal(3, 2)
        assert ideal.a0 == ideal.br
        oriented, _ = orient(ideal)
        again, flipped = orient(oriented)
        assert again == oriented and not flipped
        assert orient(ideal.transpose())[0] == oriented


class TestClassify:
    def test_no_order_one_factor(self):
        assert classify(STAIR_A).branch == Branch.NO_ORDER1_FACTOR

    def test_case_i(self):
        cls = classify(STAIR_B)
        assert cls.branch == Branch.CASE_I and cls.k == 3

    def test_n1_match_needs_the_factor_x_y(self):
        # three factors, none of them (x, y): no (x,y)(x^alpha,y)(x,y^beta)
        counts = {SimpleFactor(1, 2): 1, SimpleFactor(2, 1): 1, SimpleFactor(1, 3): 1}
        assert _match_n1(counts) is None
        counts = {SimpleFactor(1, 1): 1, SimpleFactor(2, 1): 1, SimpleFactor(1, 3): 1}
        assert _match_n1(counts) == (2, 3)

    def test_n1_from_cube_of_maximal_ideal(self):
        cls = classify(M ** 3)
        assert cls.branch == Branch.N1
        assert (cls.alpha, cls.beta) == (1, 1)

    def test_n1_general(self):
        cls = classify(M * xy_ideal(2, 1) * xy_ideal(1, 3))
        assert cls.branch == Branch.N1
        assert (cls.alpha, cls.beta) == (2, 3)

    def test_n2(self):
        cls = classify(M ** 3 * xy_ideal(1, 2))
        assert cls.branch == Branch.N2
        assert (cls.alpha, cls.beta) == (1, 2)

    def test_n3(self):
        cls = classify(M ** 2 * xy_ideal(1, 2) * xy_ideal(2, 1))
        assert cls.branch == Branch.N3
        assert (cls.alpha, cls.beta) == (2, 2)

    def test_n4_in_raw_orientation(self):
        # the theory's fourth exception has a_0 = b_r: in its raw orientation
        # it is outside classify's contract, and the tie rule of orient turns
        # it into a plain Case I instance with the k that exception designates
        ideal = M * xy_ideal(1, 2) * xy_ideal(3, 2)
        with pytest.raises(InternalInconsistency, match="no exceptional pattern"):
            classify(ideal)
        cls = classify(orient(ideal)[0])
        assert cls.branch == Branch.CASE_I and cls.k == 2

    def test_case_ii(self):
        stack = M * xy_ideal(1, 2) * xy_ideal(1, 3) * xy_ideal(1, 4)
        one = classify(stack * xy_ideal(2, 1))
        assert one.branch == Branch.CASE_II_1 and one.alpha == 2
        two = classify(stack * xy_ideal(1, 3))
        assert two.branch == Branch.CASE_II_2 and two.beta == 3

    def test_order_two(self):
        assert classify(xy_ideal(2, 3)).branch == Branch.R2_SIMPLE
        assert classify(xy_ideal(1, 2) ** 2).branch == Branch.R2_SPLIT
        assert classify(M ** 2).branch == Branch.R2_OPEN

    def test_not_covered(self):
        assert classify(M).branch == Branch.NOT_COVERED
        assert classify(xy_ideal(1, 5)).branch == Branch.NOT_COVERED

    def test_requires_complete(self):
        with pytest.raises(NotComplete):
            classify(normalize([(3, 0), (0, 2)]))


class TestChooseK:
    def test_no_order_one_factor_takes_k_one(self):
        cert = choose_k(STAIR_A)
        assert cert.branch == Branch.NO_ORDER1_FACTOR
        assert cert.k == 1 and cert.verdict == Verdict.INDECOMPOSABLE

    def test_case_i_least_missing_exponent(self):
        cert = choose_k(STAIR_B)
        assert (cert.branch, cert.k) == (Branch.CASE_I, 3)
        assert cert.verdict == Verdict.INDECOMPOSABLE

    def test_forced_k_skips_the_pattern_check(self, monkeypatch):
        monkeypatch.setattr("icmod.engine._pattern_check", None)
        cert = choose_k(M ** 3 * xy_ideal(1, 2), forced_k=1)
        assert cert.branch == Branch.N2
        assert not any(name.startswith("matches_") for name, _ in cert.checks)

    def test_exceptional_patterns_shift_k(self):
        cube = choose_k(M ** 3)
        assert (cube.branch, cube.k) == (Branch.N1, 1)
        n2 = choose_k(M ** 3 * xy_ideal(1, 2))
        assert (n2.branch, n2.k) == (Branch.N2, 2)
        n3 = choose_k(M ** 2 * xy_ideal(1, 2) * xy_ideal(2, 1))
        assert (n3.branch, n3.k) == (Branch.N3, 2)
        for cert in (cube, n2, n3):
            assert cert.verdict == Verdict.INDECOMPOSABLE

    def test_case_ii_k_values(self):
        stack = M * xy_ideal(1, 2) * xy_ideal(1, 3) * xy_ideal(1, 4)
        assert choose_k(stack * xy_ideal(2, 1)).k == 5
        assert choose_k(stack * xy_ideal(1, 3)).k == 5
        assert choose_k(stack * xy_ideal(1, 5)).k == 6
        small = M * xy_ideal(1, 2)
        assert choose_k(small * xy_ideal(3, 1)).k == 1
        assert choose_k(small * xy_ideal(1, 2)).k == 2

    def test_order_two_branches(self):
        simple = choose_k(xy_ideal(2, 3))
        assert (simple.branch, simple.k) == (Branch.R2_SIMPLE, 1)
        assert simple.verdict == Verdict.INDECOMPOSABLE
        split = choose_k(xy_ideal(1, 2) ** 2)
        assert (split.branch, split.k) == (Branch.R2_SPLIT, 1)
        open_cert = choose_k(M ** 2)
        assert open_cert.branch == Branch.R2_OPEN
        assert open_cert.verdict == Verdict.OPEN and open_cert.k is None

    def test_out_of_scope(self):
        cert = choose_k(M)
        assert cert.branch == Branch.NOT_COVERED
        assert cert.verdict == Verdict.NOT_COVERED and cert.k is None

    def test_one_hull_per_decision(self, monkeypatch, small_complete):
        # a decision reads the input's Newton polygon and no other, with or
        # without closing it first; the products of simple closures read none
        from icmod import newton

        hulled = []
        newton_vertices = newton.newton_vertices

        def counted(ideal):
            hulled.append(ideal)
            return newton_vertices(ideal)

        for name, module in list(sys.modules.items()):
            if name.startswith("icmod") and vars(module).get("newton_vertices") is newton_vertices:
                monkeypatch.setattr(module, "newton_vertices", counted)
        not_complete = [normalize([(3, 0), (0, 2)]), normalize([(7, 0), (1, 1), (0, 4)])]
        cases = [(i, close) for i in small_complete for close in (False, True)]
        certs = []
        for ideal, close_first in cases + [(i, True) for i in not_complete]:
            hulled.clear()
            cert = choose_k(ideal, close_first=close_first)
            assert hulled == [ideal]
            hulled.clear()
            assert verify_certificate(cert)
            assert hulled == [ideal]
            certs.append(cert)
        assert any(c.transposed for c in certs) and any(c.closed_input for c in certs)
        hulled.clear()
        for cert in certs:
            if cert.factorization is not None:
                assert reconstruct(cert.factorization) == cert.ideal
                for f, _ in cert.factorization.factors:
                    simple_ideal(f)
        assert hulled == []

    def test_close_first(self):
        raw = normalize([(3, 0), (0, 2)])
        with pytest.raises(NotComplete):
            choose_k(raw)
        cert = choose_k(raw, close_first=True)
        assert cert.closed_input == closure(raw)
        assert verify_certificate(cert)

    def test_forced_k_in_certified_range(self):
        cert = choose_k(STAIR_A, forced_k=3)
        assert cert.k == 3 and cert.forced_k
        assert cert.verdict == Verdict.INDECOMPOSABLE

    def test_forced_k_outside_settled_range_is_unknown(self):
        cert = choose_k(STAIR_B, forced_k=7)
        assert cert.verdict == Verdict.UNKNOWN

    def test_forced_k_out_of_range_raises(self):
        with pytest.raises(KOutOfRange):
            choose_k(STAIR_B, forced_k=9)

    def test_orientation_invariance(self, small_complete):
        for ideal in small_complete:
            if ideal.order() < 2:
                continue
            cert = choose_k(ideal)
            flipped = choose_k(ideal.transpose())
            assert cert.ideal == flipped.ideal
            assert (cert.branch, cert.k, cert.verdict) == (
                flipped.branch,
                flipped.k,
                flipped.verdict,
            )


class TestValidKSet:
    def test_full_range_without_order_one_factors(self):
        cls = classify(STAIR_A)
        assert valid_k_set(cls, STAIR_A.order()) == [1, 2, 3, 4]

    def test_singleton_otherwise(self):
        cls = classify(STAIR_B)
        assert valid_k_set(cls, STAIR_B.order()) == [3]


class TestSufficientTest:
    """The direct clauses of the splitting obstruction, as the certificate records them."""

    def test_no_order_one_factor(self):
        cert = choose_k(STAIR_A, forced_k=2)
        assert cert.checks[-1] == ("no_order_one_factor", True)

    def test_missing_factor_clause(self):
        cert = choose_k(STAIR_B, forced_k=3)
        assert cert.checks[-2:] == (("xy^3_not_in_ideal", True), ("(x,y^3)_not_a_factor", True))

    def test_inconclusive(self):
        # (x, y) divides m^3, so the direct clauses do not settle it: the length does
        cert = choose_k(M ** 3, forced_k=1)
        assert [name for name, _ in cert.checks[-2:]] == [
            "xy^1_not_in_ideal",
            "length_refutes_splitting",
        ]

    def test_requires_complete(self):
        with pytest.raises(NotComplete):
            choose_k(normalize([(3, 0), (0, 2)]), forced_k=1)

    @pytest.mark.parametrize(
        "ideal, last",
        [
            (M ** 2, ("xy^1_not_in_ideal", False)),
            (normalize([(1, 0), (0, 2)]), ("fitting1_has_positive_y_exponent", False)),
        ],
    )
    def test_forced_k_stops_at_a_failed_clause(self, ideal, last):
        cert = choose_k(ideal, forced_k=1)
        assert cert.checks[-1] == last
        assert cert.verdict == Verdict.UNKNOWN


class TestCertificates:
    def test_verify_fresh_certificates(self, small_complete):
        for ideal in small_complete:
            cert = choose_k(ideal)
            assert verify_certificate(cert), certificate_diff(cert)

    def test_tampered_k_detected(self):
        cert = choose_k(STAIR_B)
        forged = cert._replace(k=2)
        assert not verify_certificate(forged)

    def test_tampered_verdict_detected(self):
        cert = choose_k(STAIR_B)
        forged = cert._replace(verdict=Verdict.OPEN)
        assert not verify_certificate(forged)

    def test_failed_rerun_is_reported(self):
        forged = choose_k(STAIR_B)._replace(input=normalize([(3, 0), (0, 2)]))
        assert certificate_diff(forged) == [
            "re-running the decision failed: (x^3, y^2) is not integrally closed"
        ]

    def test_tampered_factorization_detected(self):
        cert = choose_k(STAIR_B)
        forged = cert._replace(factorization=zariski_factor(STAIR_A))
        assert not verify_certificate(forged)

    def test_alternative_k_accepted_when_certified(self):
        cert = choose_k(STAIR_A)
        other = cert._replace(k=2)
        # k mismatch alone is tolerated in the full-range branch, but the
        # recorded matrix no longer matches that k
        assert "matrix mismatch" in certificate_diff(other)

    def test_forged_checks_at_alternative_k_rejected(self):
        ideal = parse_ideal(
            "closure((x^2,y^3))*closure((x^3,y^2))*closure((x^2,y^5))"
        )
        cert = choose_k(ideal)
        assert cert.branch == Branch.NO_ORDER1_FACTOR and cert.k == 1
        forged = cert._replace(
            k=2,
            matrix=build_Mk(cert.ideal, 2),
            checks=(("fitting0_equals_ideal", False),),
        )
        assert not verify_certificate(forged)
        # the same k with the checks re-derived there is certified
        honest = choose_k(ideal, forced_k=2)._replace(forced_k=False)
        assert certificate_diff(honest) == []

    def test_single_field_forgeries_rejected(self, full_enumeration):
        # every certificate with one field changed: k + 1, the next branch and
        # verdict, transposed, a closure never taken, one factor, the ideal as
        # a plain tuple, each check flag, the last matrix column and the matrix
        # as a plain tuple
        branches, verdicts = list(Branch), list(Verdict)
        forged = 0
        for ideal in full_enumeration:
            cert = choose_k(ideal)
            swaps = [
                {"k": 1 if cert.k is None else cert.k + 1},
                {"branch": branches[(branches.index(cert.branch) + 1) % len(branches)]},
                {"verdict": verdicts[(verdicts.index(cert.verdict) + 1) % len(verdicts)]},
                {"transposed": not cert.transposed},
                {"closed_input": cert.input},
                {"factorization": cert.factorization.remove(cert.factorization.factors[0][0])},
                {"ideal": (cert.ideal.gens,)},  # equal as a tuple, but not a staircase
            ]
            swaps += [
                {"checks": cert.checks[:i] + ((name, not ok),) + cert.checks[i + 1 :]}
                for i, (name, ok) in enumerate(cert.checks)
            ]
            if cert.matrix is not None:
                *cols, (top, (u, v)) = cert.matrix.cols
                swaps.append({"matrix": Presentation2((*cols, (top, (u, v + 1))))})
                swaps.append({"matrix": tuple(cert.matrix)})
            for swap in swaps:
                assert not verify_certificate(cert._replace(**swap)), (ideal, swap)
            forged += len(swaps)
        assert forged > 3000

    def test_verifier_catches_a_faulty_graded_count(self, monkeypatch):
        # the verifier re-runs the decision with the module oracle in place of
        # the graded count, so a fault in the count is a disagreement
        from icmod import engine

        ideal = M ** 3
        monkeypatch.setattr(engine, "graded_min_gens", lambda pres, fit0=None: 0)
        cert = choose_k(ideal)
        assert dict(cert.checks).get("min_gens_equals_r_plus_2") is False
        assert certificate_diff(cert) == [
            "checks mismatch: min_gens_equals_r_plus_2",
            "verdict mismatch",
        ]
        monkeypatch.undo()
        split = engine._split_length(zariski_factor(ideal).as_dict(), 1)
        monkeypatch.setattr(engine, "graded_colength", lambda pres, fit0=None: split)
        cert = choose_k(ideal)
        assert dict(cert.checks).get("length_refutes_splitting") is False
        assert certificate_diff(cert) == [
            "checks mismatch: length_refutes_splitting",
            "verdict mismatch",
        ]
