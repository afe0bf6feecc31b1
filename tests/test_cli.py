import hashlib
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from icmod import format_ideal, parse_ideal, render_svg
from icmod.cli import main
from icmod.expr import format_monomial

STAIR_A_SRC = "(x^5, x^4*y^2, x^3*y^3, x^2*y^4, x*y^6, y^7)"
STAIR_B_SRC = "(x^7, x^5*y, x^3*y^2, x^2*y^3, x*y^5, y^9)"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestBasicCommands:
    def test_normalize(self, capsys):
        code, out, _ = run(capsys, "normalize", "(x^3, x^2*y, x^3*y, y^2)")
        assert code == 0 and out.strip() == "(x^3, x^2*y, y^2)"

    def test_order_mu_colength(self, capsys):
        assert run(capsys, "order", STAIR_A_SRC)[1].strip() == "5"
        assert run(capsys, "mu", STAIR_A_SRC)[1].strip() == "6"
        assert run(capsys, "colength", "m^2")[1].strip() == "3"

    def test_member(self, capsys):
        assert run(capsys, "member", "x*y", "(x^2, x*y, y^3)")[1].strip() == "true"
        assert run(capsys, "member", "y", "(x^2, x*y, y^3)")[1].strip() == "false"

    def test_product(self, capsys):
        code, out, _ = run(capsys, "product", "(x,y)", "(x,y)")
        assert out.strip() == "(x^2, x*y, y^2)"

    def test_closure_and_complete(self, capsys):
        assert run(capsys, "closure", "(x^3, y^2)")[1].strip() == "(x^3, x^2*y, y^2)"
        assert run(capsys, "complete", "(x^3, y^2)")[1].strip() == "false"
        assert run(capsys, "complete", STAIR_A_SRC)[1].strip() == "true"

    def test_vertices_and_factor(self, capsys):
        assert run(capsys, "vertices", STAIR_A_SRC)[1].strip() == "(5,0), (2,4), (0,7)"
        out = run(capsys, "factor", STAIR_A_SRC)[1].strip()
        assert out == "closure(x^3,y^4) * closure(x^2,y^3)"

    def test_json_flag(self, capsys):
        code, out, _ = run(capsys, "vertices", STAIR_A_SRC, "--json")
        assert json.loads(out)["vertices"] == [[5, 0], [2, 4], [0, 7]]


class TestModuleCommands:
    def test_construct(self, capsys):
        code, out, _ = run(capsys, "construct", "(x^2, x*y, y^3)", "--k", "1")
        assert code == 0
        assert out.splitlines() == ["[ x  y  y  0 ]", "[ 0  0  x  y^2 ]"]

    def test_fitting_ideals(self, capsys):
        assert (
            run(capsys, "fitting0", "(x^2, x*y, y^3)", "--k", "1")[1].strip()
            == "(x^2, x*y, y^3)"
        )
        assert (
            run(capsys, "fitting1", "(x^2, x*y, y^3)", "--k", "1")[1].strip()
            == "(x, y)"
        )

    def test_module_oracles(self, capsys):
        assert run(capsys, "module-mu", "(x^2, x*y, y^3)", "--k", "1")[1].strip() == "4"
        length = int(run(capsys, "module-length", "(x^2, x*y, y^3)", "--k", "1")[1])
        assert length > 0
        # a wide ideal costs a box of 2 * 2001 * 3 positions, not a triangle
        # of about 2000^2 monomials
        start = time.perf_counter()
        assert run(capsys, "module-mu", "(x^2000,x*y,y^2)", "--k", "1")[1:] == ("4\n", "")
        assert run(capsys, "module-length", "(x^2000,x*y,y^2)", "--k", "1")[1:] == ("2000\n", "")
        assert time.perf_counter() - start < 0.5

    def test_poly_colength(self, capsys):
        assert run(capsys, "poly-colength", "x^3, y^3, x+y")[1].strip() == "3"
        assert run(capsys, "poly-colength", "x^30, y^30")[1:] == ("900\n", "")
        assert run(capsys, "poly-colength", "x^70, y, x+y")[1:] == ("1\n", "")
        code, out, err = run(capsys, "poly-colength", "x^2000, y^2000")
        assert code == 1 and out == "" and "budget" in err
        assert run(capsys, "poly-colength", "x^2 - y^3, x*y")[1].strip() == "5"
        code, _, err = run(capsys, "poly-colength", "x^3, y^3, x+y+")
        assert code == 1 and "(line 1, column 15)" in err
        code, _, err = run(capsys, "poly-colength", "*x, y^3, x+y")
        assert code == 1 and "(line 1, column 1)" in err


class TestOneValueGolden:
    def test_golden_over_4_5(self, capsys, small_complete):
        # SHA-256 of the exit code, stdout and stderr of every one-value
        # subcommand, human and --json, over the 48 ideals of (4,5) and every
        # k in 1..b_r-1; a refactor of the front end must leave every byte
        digest = hashlib.sha256()
        for ideal in small_complete:
            src = format_ideal(ideal)
            calls = [
                (name, src)
                for name in ("normalize", "order", "mu", "colength")
                + ("closure", "complete", "vertices", "factor")
            ]
            calls += [
                (name, src, "--k", str(k))
                for name in ("construct", "fitting0", "fitting1", "module-length", "module-mu")
                for k in range(1, ideal.br)
            ]
            calls += [
                ("member", "x*y^2", src),
                ("product", src, "(x, y^2)"),
                ("poly-colength", ", ".join(map(format_monomial, ideal.gens)) + ", x+y"),
            ]
            for argv in calls:
                for extra in ((), ("--json",)):
                    code, out, err = run(capsys, *argv, *extra)
                    digest.update(f"{code}\0{out}\0{err}\0".encode())
        assert len(small_complete) == 48
        assert digest.hexdigest() == (
            "6b2e54269a094447a1f2278b8f1dcf3aee260e920056b0b3f64601a6cadc8683"
        )


class TestDecide:
    def test_human_output(self, capsys):
        code, out, _ = run(capsys, "decide", STAIR_B_SRC)
        assert code == 0
        assert "branch:        CaseI" in out
        assert "k:             3" in out
        assert "verdict:       IndecomposableByPaper" in out

    def test_json_schema(self, capsys):
        _, out, _ = run(capsys, "decide", STAIR_B_SRC, "--json")
        doc = json.loads(out)
        for key in (
            "input",
            "normalized_input",
            "transposed",
            "order",
            "factorization",
            "branch",
            "k",
            "matrix",
            "checks",
            "verdict",
            "tool_version",
        ):
            assert key in doc
        assert doc["branch"] == "CaseI" and doc["k"] == 3
        assert all(c["pass"] for c in doc["checks"])
        assert doc["matrix"]["cols"][-1] == [None, "y^6"]

    def test_incomplete_input_needs_flag(self, capsys):
        code, _, err = run(capsys, "decide", "(x^3, y^2)")
        assert code == 1 and "close-first" in err
        code, out, _ = run(capsys, "decide", "(x^3, y^2)", "--close-first")
        assert code == 0 and "closure taken" in out

    def test_unit_ideal_is_not_covered(self, capsys):
        code, out, _ = run(capsys, "decide", "(1)", "--json")
        doc = json.loads(out)
        assert code == 0 and doc["branch"] == doc["verdict"] == "NotCovered"
        assert doc["factorization"] is None and doc["k"] is None
        code, _, err = run(capsys, "decide", "(1)", "--k", "1")
        assert code == 1 and "M_k needs a proper m-primary ideal" in err

    def test_json_golden_over_6_8(self, capsys, full_enumeration):
        # SHA-256 of the 375 documents of the (6,8) enumeration, in order;
        # a refactor of the decision must leave every byte in place
        digest = hashlib.sha256()
        for ideal in full_enumeration:
            code, out, _ = run(capsys, "decide", format_ideal(ideal), "--json")
            assert code == 0
            digest.update(out.encode())
        assert len(full_enumeration) == 375
        assert digest.hexdigest() == (
            "bce78245c51d3af58411bb80f0da5321482a0dd2c62d36ebaef328985194d5c9"
        )

    def test_forced_k(self, capsys):
        _, out, _ = run(capsys, "decide", STAIR_B_SRC, "--k", "7", "--json")
        assert json.loads(out)["verdict"] == "Unknown"

    def test_show_valid_k(self, capsys):
        _, out, _ = run(capsys, "decide", STAIR_A_SRC, "--show-valid-k", "--json")
        assert json.loads(out)["valid_k"] == [1, 2, 3, 4]

    def test_deterministic_json(self, capsys):
        first = run(capsys, "decide", STAIR_B_SRC, "--json")[1]
        second = run(capsys, "decide", STAIR_B_SRC, "--json")[1]
        assert first == second


class TestOtherCommands:
    def test_enumerate(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--amax", "2", "--bmax", "2")
        assert out.splitlines() == [
            "(x, y)",
            "(x, y^2)",
            "(x^2, y)",
            "(x^2, x*y, y^2)",
        ]

    def test_render(self, capsys, tmp_path):
        out_file = tmp_path / "fig.svg"
        code, _, _ = run(capsys, "render", STAIR_A_SRC, "--out", str(out_file))
        assert code == 0
        first = out_file.read_bytes()
        run(capsys, "render", STAIR_A_SRC, "--out", str(out_file))
        assert out_file.read_bytes() == first
        assert first.startswith(b"<svg ")

    def test_render_streams_the_figure(self, capsys, tmp_path):
        # the file holds render_svg's string byte for byte, written a batch at
        # a time: the 2.45 MB figure of (x^30000, y) peaked at 6.9 MB when it
        # was built whole, and now at about 55 kB, as the tall (x, y^30000) on
        # the descending path and a ten times larger one do
        out_file = tmp_path / "fig.svg"
        for src in (STAIR_A_SRC, "(x^30000, y)", "(x, y^30000)"):
            tracemalloc.start()
            try:
                code, _, _ = run(capsys, "render", src, "--out", str(out_file))
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert code == 0
            assert out_file.read_bytes() == render_svg(parse_ideal(src)).encode()
            if src != STAIR_A_SRC:  # the first run also counts one-time set-up
                assert peak < out_file.stat().st_size // 10

    def test_render_unit_ideal_is_a_domain_error(self, capsys, tmp_path):
        out_file = tmp_path / "fig.svg"
        code, _, err = run(capsys, "render", "(1)", "--out", str(out_file))
        assert code == 1 and err.startswith("error: ")
        assert not out_file.exists()

    def test_selftest(self, capsys):
        code, out, _ = run(capsys, "selftest")
        assert code == 0 and "all checks passed" in out
        assert "[PASS] product of the two worked staircases" in out
        assert "[PASS] the (4,5) enumeration yields 48 ideals" in out
        code, doc, _ = run(capsys, "selftest", "--json")
        checks = json.loads(doc)["checks"]
        assert code == 0 and list(json.loads(doc)) == ["checks"]
        assert [f"[PASS] {c['name']}" for c in checks] == out.splitlines()[:-1]
        assert all(c["pass"] is True for c in checks)

    def test_selftest_failure(self, capsys, monkeypatch):
        monkeypatch.setattr(
            "icmod.cli._selftest_cases", lambda: iter([("one", True), ("two", False)])
        )
        code, out, err = run(capsys, "selftest")
        assert (code, out) == (1, "[PASS] one\n[FAIL] two\n")
        assert err == "error: selftest: 1 failure(s)\n"
        code, out, _ = run(capsys, "selftest", "--json")
        assert code == 1
        assert json.loads(out) == {
            "checks": [{"name": "one", "pass": True}, {"name": "two", "pass": False}]
        }


class TestExitCodes:
    def test_domain_error_is_one(self, capsys):
        assert run(capsys, "order", "(x^2)")[0] == 1
        assert run(capsys, "factor", "(x^3, y^2)")[0] == 1
        assert run(capsys, "construct", "(x^2, x*y, y^3)", "--k", "5")[0] == 1

    def test_parse_error_is_one(self, capsys):
        code, _, err = run(capsys, "order", "(x^2, y^^)")
        assert code == 1 and "error:" in err

    @pytest.mark.parametrize(
        "argv, position",
        [
            (("normalize", "(*x, y^2)"), "(line 1, column 2)"),
            (("member", "*y", "(x,y)"), "(line 1, column 1)"),
        ],
    )
    def test_leading_star_is_a_parse_error(self, capsys, argv, position):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == "" and position in err

    def test_non_ascii_digit_is_a_parse_error(self, capsys):
        code, out, err = run(capsys, "normalize", "(x^², y)")
        assert (code, out) == (1, "")
        assert err == "error: unexpected character '²' (line 1, column 4)\n"

    def test_oversize_input_fails_fast(self, capsys, tmp_path):
        start = time.perf_counter()
        code, _, err = run(capsys, "closure", "(x^2,y^2)^99999999999")
        assert code == 1 and "budget" in err
        code, _, err = run(capsys, "closure", "(x^100000000, y^100000000)")
        assert code == 1 and "budget" in err
        out_file = tmp_path / "f.svg"
        code, _, err = run(capsys, "render", "(x^30000000, y)", "--out", str(out_file))
        assert code == 1 and "budget" in err and not out_file.exists()
        code, out, _ = run(capsys, "closure", "(x^30000000, y)")
        assert code == 0 and out.strip() == "(x^30000000, y)"
        code, out, _ = run(capsys, "closure", "(x^1000000, x*y, y^1000000)")
        assert code == 0 and out.strip() == "(x^1000000, x*y, y^1000000)"
        code, out, err = run(capsys, "product", "m^999", "m^1000")
        assert code == 1 and out == "" and "budget" in err
        code, out, err = run(capsys, "module-mu", "m^300", "--k", "1")
        assert code == 1 and out == "" and "rows" in err and "budget" in err
        assert time.perf_counter() - start < 1.0

    def test_enumerate_size_budget(self, capsys, monkeypatch):
        # (4, 5) holds 163 generators; one under that, the walk stops with exit 1
        monkeypatch.setattr("icmod.oracle.MAX_OUTPUT_SIZE", 162)
        for extra in ((), ("--json",)):
            code, out, err = run(capsys, "enumerate", "--amax", "4", "--bmax", "5", *extra)
            assert code == 1 and out == "" and "budget" in err
        monkeypatch.setattr("icmod.oracle.MAX_OUTPUT_SIZE", 163)
        code, out, _ = run(capsys, "enumerate", "--amax", "4", "--bmax", "5")
        assert code == 0 and len(out.splitlines()) == 48

    def test_usage_error_is_two(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["no-such-command"])
        assert info.value.code == 2
        with pytest.raises(SystemExit) as info:
            main(["construct", "(x,y^2)"])  # missing --k
        assert info.value.code == 2

    def test_unwritable_render_path_is_a_usage_error(self, capsys, tmp_path):
        missing = tmp_path / "no-such-dir" / "f.svg"
        for out, reason in ((missing, "No such file or directory"), (tmp_path, "Is a directory")):
            with pytest.raises(SystemExit) as info:
                main(["render", "(x^2,y^3)", "--out", str(out)])
            assert info.value.code == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: cannot write {out}: {reason}\n"
        assert not missing.parent.exists() and list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv",
        [["decide", STAIR_B_SRC, "--json"], ["render", "(x^3000, y)", "--out", "/dev/stdout"]],
    )
    def test_closed_pipe_exits_one_quietly(self, argv):
        # the reader closes its end of the pipe before the command writes
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        read, write = os.pipe()
        os.close(read)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "icmod.cli", *argv],
                stdout=write,
                stderr=subprocess.PIPE,
                env=env,
                timeout=60,
            )
        finally:
            os.close(write)
        assert (proc.returncode, proc.stderr) == (1, b"")

    @pytest.mark.parametrize("bounds", [("0", "1"), ("1", "0"), ("-2", "3"), ("two", "3")])
    def test_enumerate_bounds_must_be_positive(self, bounds):
        with pytest.raises(SystemExit) as info:
            main(["enumerate", "--amax", bounds[0], "--bmax", bounds[1]])
        assert info.value.code == 2
