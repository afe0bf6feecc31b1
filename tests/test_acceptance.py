"""End-to-end acceptance checks, one test per criterion.

Each test prints a single [PASS] line on success; a failing assertion
surfaces as the usual pytest failure for that criterion.
"""

import random
import time
from collections import Counter

from icmod import (
    SimpleFactor,
    Verdict,
    build_Mk,
    certificate_diff,
    choose_k,
    closure_power_oracle,
    ell_value,
    fitting0,
    fitting1,
    graded_min_gens,
    is_complete,
    module_colength,
    module_min_gens,
    newton_vertices,
    normalize,
    parse_ideal,
    poly_ideal_colength,
    verify_certificate,
    zariski_factor,
)
from icmod.cli import main
from icmod.errors import InternalInconsistency
from icmod.oracle import ideal_as_polys

STAIR_A = normalize([(5, 0), (4, 2), (3, 3), (2, 4), (1, 6), (0, 7)])
STAIR_B = normalize([(7, 0), (5, 1), (3, 2), (2, 3), (1, 5), (0, 9)])


def report(n, text):
    print(f"[PASS] criterion {n}: {text}")


def test_criterion_01_first_worked_staircase(capsys):
    start = time.perf_counter()
    vertices = newton_vertices(STAIR_A).vertices
    factors = zariski_factor(STAIR_A).as_dict()
    elapsed = time.perf_counter() - start
    assert set(vertices) == {(5, 0), (2, 4), (0, 7)}
    assert factors == {SimpleFactor(2, 3): 1, SimpleFactor(3, 4): 1}
    assert elapsed < 0.010, f"took {elapsed * 1000:.2f} ms"
    with capsys.disabled():
        report(1, f"vertices and factorization exact, {elapsed * 1000:.2f} ms")


def test_criterion_02_second_worked_staircase(capsys):
    assert newton_vertices(STAIR_B).vertices == ((7, 0), (3, 2), (2, 3), (1, 5), (0, 9))
    assert zariski_factor(STAIR_B).as_dict() == {
        SimpleFactor(1, 1): 1,
        SimpleFactor(1, 2): 1,
        SimpleFactor(1, 4): 1,
        SimpleFactor(2, 1): 2,
    }
    cert = choose_k(STAIR_B)
    assert cert.branch.value == "CaseI" and cert.k == 3
    assert all(ok for _, ok in cert.checks)
    with capsys.disabled():
        report(2, "vertices, factorization and CaseI decision with k=3")


def test_criterion_03_tall_order_one_stacks(capsys):
    base = parse_ideal("(x,y) * (x,y^2) * (x,y^3) * (x,y^4)")
    cases = [
        ("(x^2,y)", 5),
        ("(x,y^3)", 5),
        ("(x,y^5)", 6),
    ]
    for tail, expected_k in cases:
        cert = choose_k(base * parse_ideal(tail))
        assert cert.k == expected_k, (tail, cert.k)
        assert cert.verdict == Verdict.INDECOMPOSABLE
    with capsys.disabled():
        report(3, "residual order-one factor selects k = 5, 5, 6")


def test_criterion_04_colength_identities(capsys):
    for r in range(3, 11):
        wide = normalize([(r, 0), (r - 1, r - 1), (0, r)])
        assert wide.colength() == r * r - 1
        narrow = normalize([(r, 0), (1, r - 1), (0, r)])
        assert narrow.colength() == r * r - r + 1
    with capsys.disabled():
        report(4, "both identities exact for r = 3..10")


def test_criterion_05_fitting_sweep(capsys, full_enumeration):
    start = time.perf_counter()
    pairs = 0
    for ideal in full_enumeration:
        r = ideal.order()
        for k in range(1, r):
            matrix = build_Mk(ideal, k)
            assert fitting0(matrix) == ideal, (ideal, k)
            ell = ell_value(ideal, k)
            assert fitting1(matrix) == normalize([(1, 0), (0, ell)]), (ideal, k)
            assert graded_min_gens(matrix) == module_min_gens(matrix) == r + 2, (ideal, k)
            pairs += 1
    elapsed = time.perf_counter() - start
    assert len(full_enumeration) >= 300
    assert elapsed < 300, f"sweep took {elapsed:.1f} s"
    with capsys.disabled():
        report(
            5,
            f"{pairs} (ideal, k) pairs over {len(full_enumeration)} ideals "
            f"in {elapsed:.1f} s",
        )


def test_criterion_06_decision_totality(capsys, enumeration_10_12):
    decided = 0
    branches: Counter[str] = Counter()
    for ideal in enumeration_10_12:
        r = ideal.order()
        if r < 2 or (r == 2 and ideal.member((1, 1))):
            continue
        try:
            cert = choose_k(ideal)
        except InternalInconsistency as exc:
            raise AssertionError(f"inconsistency on {ideal}: {exc}") from exc
        assert cert.k is not None and 1 <= cert.k <= r + 1, (ideal, cert.k)
        assert cert.verdict == Verdict.INDECOMPOSABLE, (ideal, cert.verdict)
        assert verify_certificate(cert), (ideal, certificate_diff(cert))
        decided += 1
        branches[cert.branch.value] += 1
    assert decided == 7770
    # every branch of the case analysis is reached, at a pinned count
    assert branches == {
        "CaseI": 7255, "NoOrder1Factor": 345, "N1": 77, "N2": 2, "N3": 1,
        "CaseII1": 17, "CaseII2": 23, "R2Simple": 9, "R2Split": 41,
    }
    with capsys.disabled():
        report(6, f"{decided} ideals of (10,12) decided, all certificates verify")


def test_criterion_07_products_stay_complete(capsys, full_enumeration):
    checked = 0
    sample = [i for i in full_enumeration if i.a0 <= 4 and i.br <= 5]
    for left in sample:
        for right in sample:
            if left.a0 + right.a0 > 12 or left.br + right.br > 16:
                continue
            assert is_complete(left * right), (left, right)
            checked += 1
    assert checked > 1000
    with capsys.disabled():
        report(7, f"{checked} pairwise products are integrally closed")


def test_criterion_08_oracle_agreement(capsys, full_enumeration):
    rng = random.Random(20260824)
    sampled = 0
    for _ in range(50):
        pts = [(rng.randint(1, 8), 0), (0, rng.randint(1, 8))]
        pts += [(rng.randint(0, 8), rng.randint(1, 8)) for _ in range(rng.randint(0, 5))]
        ideal = normalize(pts)
        from icmod import closure

        cl = closure(ideal)
        n_max = ideal.a0 + ideal.br
        for u in range(9):
            for v in range(9):
                assert closure_power_oracle((u, v), ideal, n_max) == cl.member((u, v))
        sampled += 1
    for ideal in full_enumeration:
        polys = ideal_as_polys(ideal) + [[(1, 1, 0), (1, 0, 1)]]
        assert poly_ideal_colength(polys) == ideal.order(), ideal
    with capsys.disabled():
        report(
            8,
            f"power oracle agrees on {sampled} sampled ideals; adjoining x+y "
            f"cuts the colength to the order on all {len(full_enumeration)}",
        )


def test_criterion_09_length_bound_example(capsys):
    ideal = normalize([(5, 0), (4, 1), (2, 2), (1, 3), (0, 5)])
    length = module_colength(build_Mk(ideal, 2))
    assert length >= 10 and length != 10
    assert length == 11  # frozen oracle value
    product = normalize([(4, 0), (3, 1), (0, 2)]) * normalize([(1, 0), (0, 3)])
    assert product != ideal
    with capsys.disabled():
        report(9, f"module length {length} breaks the 2+8 split; product differs")


def test_criterion_10_deterministic_outputs(capsys, tmp_path):
    src = "(x^7, x^5*y, x^3*y^2, x^2*y^3, x*y^5, y^9)"
    runs = []
    for _ in range(2):
        main(["decide", src, "--json"])
        runs.append(capsys.readouterr().out)
    assert runs[0] == runs[1]
    files = []
    for name in ("a.svg", "b.svg"):
        out = tmp_path / name
        main(["render", src, "--out", str(out)])
        capsys.readouterr()
        files.append(out.read_bytes())
    assert files[0] == files[1]
    with capsys.disabled():
        report(10, "decision JSON and rendered SVG are byte-identical across runs")
