import pytest

from icmod import (
    DomainError,
    NotMPrimary,
    ParseError,
    SizeBudgetExceeded,
    closure,
    format_ideal,
    format_monomial,
    normalize,
    parse_ideal,
    parse_monomial,
    parse_polys,
)


class TestMonomials:
    def test_basic(self):
        assert parse_monomial("x^3*y^2") == (3, 2)
        assert parse_monomial("x") == (1, 0)
        assert parse_monomial("y^5") == (0, 5)
        assert parse_monomial("1") == (0, 0)

    def test_juxtaposition(self):
        assert parse_monomial("x y") == (1, 1)
        assert parse_monomial("x^2y^3") == (2, 3)

    def test_repeated_variables_multiply(self):
        assert parse_monomial("x*x*y^2*x") == (3, 2)

    def test_errors(self):
        with pytest.raises(ParseError):
            parse_monomial("z")
        with pytest.raises(ParseError):
            parse_monomial("x^")
        with pytest.raises(ParseError):
            parse_monomial("x,y")
        with pytest.raises(ParseError):
            parse_monomial("*y")

    def test_round_trip(self):
        for m in [(0, 0), (1, 0), (0, 1), (3, 2), (1, 7)]:
            assert parse_monomial(format_monomial(m)) == m


class TestIdealExpressions:
    def test_generator_list(self):
        assert parse_ideal("(x^2, x*y, y^3)") == normalize([(2, 0), (1, 1), (0, 3)])

    def test_m_shorthand(self):
        assert parse_ideal("m") == normalize([(1, 0), (0, 1)])
        assert parse_ideal("m^3") == normalize([(1, 0), (0, 1)]) ** 3

    def test_products_and_powers(self):
        got = parse_ideal("(x,y)^2 * (x, y^2)")
        want = (normalize([(1, 0), (0, 1)]) ** 2) * normalize([(1, 0), (0, 2)])
        assert got == want

    def test_closure_operator(self):
        assert parse_ideal("closure((x^3, y^2))") == closure(
            normalize([(3, 0), (0, 2)])
        )

    def test_whitespace_insensitive(self):
        assert parse_ideal(" ( x ^ 2 ,  y ) ") == parse_ideal("(x^2,y)")

    def test_parse_errors_carry_position(self):
        for src, col in (("(x^2, )", 7), ("(*x, y^2)", 2)):
            with pytest.raises(ParseError) as info:
                parse_ideal(src)
            assert info.value.line == 1 and info.value.col == col

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_ideal("(x, y) extra")

    def test_zero_power_rejected(self):
        with pytest.raises(ParseError):
            parse_ideal("(x,y)^0")

    def test_domain_errors_keep_their_type(self):
        with pytest.raises(NotMPrimary):
            parse_ideal("(x^2, x*y)")

    @pytest.mark.parametrize(
        "src, prefix, error",
        [
            ("(x*y)x", "(x*y)", NotMPrimary),
            ("(x*y) * (", "(x*y)", NotMPrimary),
            ("closure((x*y)) )", "closure((x*y))", NotMPrimary),
            ("(x^2,y^2)^99999999999 )", "(x^2,y^2)^99999999999", SizeBudgetExceeded),
        ],
    )
    def test_syntax_errors_come_before_domain_errors(self, src, prefix, error):
        with pytest.raises(ParseError):
            parse_ideal(src)
        with pytest.raises(error, match=r"\(while evaluating"):
            parse_ideal(prefix)


class TestSizeBudget:
    @pytest.mark.parametrize(
        "src",
        [
            "(x^2,y^2)^99999999999",
            "closure((x^1000,y^1000)) * closure((x^1000,y^1000))",
            "m^999 * m^1000",
        ],
    )
    def test_oversize_rejected_before_building(self, src):
        with pytest.raises(SizeBudgetExceeded) as info:
            parse_ideal(src)
        assert isinstance(info.value, DomainError)

    @pytest.mark.parametrize(
        "src, pairs",
        [
            ("m^999 * m^1000", 1000 * 1001),
            # the square-and-multiply step (x^2,y^2)^1023 * (x^2,y^2)^1024
            ("(x^2,y^2)^99999999999", 1024 * 1025),
        ],
    )
    def test_refusal_names_the_exact_pairs(self, src, pairs):
        message = f"^product could form {pairs} generator pairs"
        with pytest.raises(SizeBudgetExceeded, match=message):
            parse_ideal(src)

    @pytest.mark.parametrize("src", ["(x^1000, y^1000)^2", "m^999 * m^999"])
    def test_accepted_by_the_exact_count(self, src):
        # 2 x 2 generator pairs, however large a_0 and b_r; 1000 x 1000, at the budget
        gens = {
            "(x^1000, y^1000)^2": ((2000, 0), (1000, 1000), (0, 2000)),
            "m^999 * m^999": tuple((1998 - i, i) for i in range(1999)),
        }[src]
        assert parse_ideal(src).gens == gens

    def test_wide_inputs_within_budget(self):
        assert parse_ideal("(x^30000000, y)").gens == ((30000000, 0), (0, 1))
        power = parse_ideal("(x^30000000, y)^4")
        assert (power.a0, power.br, power.r) == (120000000, 4, 4)
        assert parse_ideal("(x^999, y^999)^2").gens == ((1998, 0), (999, 999), (0, 1998))


class TestPolynomials:
    @pytest.mark.parametrize(
        "src, terms",
        [
            ("x+y", [[(1, 1, 0), (1, 0, 1)]]),
            ("x^2 - y^3", [[(1, 2, 0), (-1, 0, 3)]]),
            ("x^3, y^3, x+y", [[(1, 3, 0)], [(1, 0, 3)], [(1, 1, 0), (1, 0, 1)]]),
            ("x+1*y", [[(1, 1, 0), (1, 0, 1)]]),
            ("x-3*y", [[(1, 1, 0), (-3, 0, 1)]]),
            ("-2 x*y + 5y^2 - 7", [[(-2, 1, 1), (5, 0, 2), (-7, 0, 0)]]),
        ],
    )
    def test_accepted_forms(self, src, terms):
        assert parse_polys(src) == terms

    @pytest.mark.parametrize(
        "src, col",
        [
            ("x^3, y^3, x+y+", 15),
            ("x^3,,y^3", 5),
            ("x^3, y^3,", 10),
            ("x + + y", 5),
            ("+x", 1),
            ("2*", 2),
            ("x^3, (y^3)", 6),
            ("*x, y^3, x+y", 1),
            ("x^3, 2**y", 7),
        ],
    )
    def test_rejected_forms_carry_position(self, src, col):
        with pytest.raises(ParseError) as info:
            parse_polys(src)
        assert info.value.line == 1 and info.value.col == col

    def test_signs_are_not_ideal_syntax(self):
        with pytest.raises(ParseError) as info:
            parse_ideal("(x-y)")
        assert "unexpected character '-'" in str(info.value)


class TestFormatting:
    def test_format_ideal(self):
        ideal = normalize([(2, 0), (1, 1), (0, 3)])
        assert format_ideal(ideal) == "(x^2, x*y, y^3)"

    def test_round_trip_over_enumeration(self, small_complete):
        for ideal in small_complete:
            assert parse_ideal(format_ideal(ideal)) == ideal

    def test_unit_monomial(self):
        assert format_monomial((0, 0)) == "1"
        assert format_ideal(normalize([(0, 0)])) == "(1)"


# malformed inputs, each with the message and the position it reports, kept
# word for word by the lexer and the parser
PINNED_PARSE_ERRORS = [
    (parse_ideal, "", "expected an ideal, found 'end' (line 1, column 1)"),
    (parse_ideal, "   ", "expected an ideal, found 'end' (line 1, column 4)"),
    (parse_ideal, "(x^2,\n y^3,\n z)", "unexpected character 'z' (line 3, column 2)"),
    (parse_ideal, "(x^2,\n\n  y)^", "expected 'int', found 'end' (line 3, column 6)"),
    (parse_ideal, "(x, y   ", "expected ')', found 'end' (line 1, column 9)"),
    (parse_ideal, "(x, y) \n extra\t", "unexpected character 'e' (line 2, column 2)"),
    (parse_ideal, "closur(x)", "unexpected character 'c' (line 1, column 1)"),
    (parse_ideal, "closure(x)", "expected an ideal, found 'x' (line 1, column 9)"),
    (parse_ideal, "(*x, y^2)", "expected a monomial, found '*' (line 1, column 2)"),
    (parse_ideal, "(x^3,, y)", "expected a monomial, found ',' (line 1, column 6)"),
    (parse_ideal, "(x^2, )", "expected a monomial, found ')' (line 1, column 7)"),
    (parse_ideal, "(x-y)", "unexpected character '-' (line 1, column 3)"),
    (parse_ideal, "-(x, y)", "unexpected character '-' (line 1, column 1)"),
    (parse_ideal, "(x, y)^0", "power exponent must be >= 1 (line 1, column 8)"),
    (parse_ideal, "(x, y)^x", "expected 'int', found 'x' (line 1, column 8)"),
    (parse_ideal, "(x, y) extra", "unexpected character 'e' (line 1, column 8)"),
    (parse_ideal, "m^", "expected 'int', found 'end' (line 1, column 3)"),
    (parse_ideal, "(x^, y)", "expected 'int', found ',' (line 1, column 4)"),
    (parse_ideal, "((x, y))", "expected a monomial, found '(' (line 1, column 2)"),
    (parse_ideal, "(x, y) * ", "expected an ideal, found 'end' (line 1, column 10)"),
    (parse_ideal, "(x\n,\ty^3)\n*\n(", "expected a monomial, found 'end' (line 4, column 2)"),
    (parse_ideal, "(x, y)^2^3", "trailing input starting at '^' (line 1, column 9)"),
    (parse_ideal, "m m", "trailing input starting at 'm' (line 1, column 3)"),
    (parse_polys, "", "expected a monomial, found 'end' (line 1, column 1)"),
    (parse_polys, "x^", "expected 'int', found 'end' (line 1, column 3)"),
    (parse_polys, "x^3, y^3, x+y+", "expected a monomial, found 'end' (line 1, column 15)"),
    (parse_polys, "x^3,,y^3", "expected a monomial, found ',' (line 1, column 5)"),
    (parse_polys, "x + + y", "expected a monomial, found '+' (line 1, column 5)"),
    (parse_polys, "+x", "expected a monomial, found '+' (line 1, column 1)"),
    (parse_polys, "-x + -y", "expected a monomial, found '-' (line 1, column 6)"),
    (parse_polys, "x - - y", "expected a monomial, found '-' (line 1, column 5)"),
    (parse_polys, "x^3 +", "expected a monomial, found 'end' (line 1, column 6)"),
    (parse_polys, "- 2 *", "trailing input starting at '*' (line 1, column 5)"),
    (parse_polys, "2**y", "trailing input starting at '*' (line 1, column 2)"),
    (parse_polys, "x^3,\n y^3,\n x+", "expected a monomial, found 'end' (line 3, column 4)"),
    (parse_polys, "x^3, y^3,  \n", "expected a monomial, found 'end' (line 2, column 1)"),
    (parse_polys, "(x+y)", "expected a monomial, found '(' (line 1, column 1)"),
    (parse_polys, "3x^", "expected 'int', found 'end' (line 1, column 4)"),
    (parse_polys, "x*-y", "trailing input starting at '*' (line 1, column 2)"),
    (parse_polys, "closure(x)", "expected a monomial, found 'closure' (line 1, column 1)"),
    (parse_polys, "x -\n\n  -y", "expected a monomial, found '-' (line 3, column 3)"),
    (parse_polys, "-", "expected a monomial, found 'end' (line 1, column 2)"),
    (parse_polys, "m", "expected a monomial, found 'm' (line 1, column 1)"),
    (parse_monomial, "", "expected a monomial, found 'end' (line 1, column 1)"),
    (parse_monomial, "x^", "expected 'int', found 'end' (line 1, column 3)"),
    (parse_monomial, "z", "unexpected character 'z' (line 1, column 1)"),
    (parse_monomial, "x,y", "trailing input after monomial: ',' (line 1, column 2)"),
    (parse_monomial, "*y", "expected a monomial, found '*' (line 1, column 1)"),
    (parse_monomial, "x**y", "trailing input after monomial: '*' (line 1, column 2)"),
    (parse_monomial, "x y\n  ^", "expected 'int', found 'end' (line 2, column 4)"),
    (parse_monomial, "2x", "expected a monomial, found 'int' (line 1, column 1)"),
    (parse_monomial, "1*x", "trailing input after monomial: '*' (line 1, column 2)"),
    (parse_monomial, "x^-1", "unexpected character '-' (line 1, column 3)"),
    (parse_monomial, "m", "expected a monomial, found 'm' (line 1, column 1)"),
    (parse_monomial, "closur(x)", "unexpected character 'c' (line 1, column 1)"),
]


@pytest.mark.parametrize("parse, src, message", PINNED_PARSE_ERRORS)
def test_parse_errors_are_pinned(parse, src, message):
    with pytest.raises(ParseError) as info:
        parse(src)
    assert str(info.value) == message
    assert f"(line {info.value.line}, column {info.value.col})" in message


@pytest.mark.parametrize(
    "parse, src, char, line, col",
    [
        (parse_ideal, "(x^², y)", "²", 1, 4),  # str.isdigit, but int() cannot read it
        (parse_polys, "x^², y", "²", 1, 3),
        (parse_monomial, "x^²", "²", 1, 3),
        (parse_ideal, "(x^2²,\n y)", "²", 1, 5),
        (parse_polys, "x,\n y^² + 1", "²", 2, 4),
        (parse_ideal, "(x^٣, y)", "٣", 1, 4),  # a decimal digit, but not ASCII
        (parse_monomial, "y^٣", "٣", 1, 3),
    ],
)
def test_exponents_are_ascii_digits(parse, src, char, line, col):
    with pytest.raises(ParseError) as info:
        parse(src)
    assert str(info.value) == f"unexpected character {char!r} (line {line}, column {col})"
    assert (info.value.line, info.value.col) == (line, col)
