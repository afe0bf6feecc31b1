"""Surface syntax for ideals, e.g. "(x,y)^3 * closure((x^3,y^2)) * m".

Grammar::

    expr   := term ('*' term)*
    term   := atom ('^' UINT)?
    atom   := '(' mono (',' mono)* ')' | 'closure' '(' expr ')' | 'm'
    mono   := factor ('*'? factor)*     -- juxtaposition means product
    factor := 'x' ('^' UINT)? | 'y' ('^' UINT)?

Polynomials with integer coefficients (`parse_polys`) start from::

    polys  := poly (',' poly)*
    poly   := '-'? pterm (('+' | '-') pterm)*
    pterm  := UINT | mono | UINT '*'? mono

Whitespace is insignificant.  'm' is sugar for (x, y).

Each ideal rule returns its staircase as it parses, so evaluation follows the
post-order of the expression.  The first domain error is held until the end
of the input has parsed: a syntax error anywhere is reported before it.  Every
product, and every square-and-multiply step of a power, is refused by
`MonomialIdeal.product` when its operands form more than
`staircase.MAX_PRODUCT_CANDIDATES` generator pairs, before it forms any; the
measured cost at that cap is in the budget comment of `staircase.py`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .errors import DomainError, ParseError
from .newton import closure as _closure
from .oracle import Poly, Term
from .staircase import Monomial, MonomialIdeal, normalize


# ---------------------------------------------------------------- lexer


@dataclass(frozen=True)
class _Token:
    kind: str  # one of ( ) , * ^ + - x y m closure int end
    value: int
    pos: int


def _line_col(src: str, pos: int) -> tuple[int, int]:
    line = src.count("\n", 0, pos) + 1
    col = pos - (src.rfind("\n", 0, pos) + 1) + 1
    return line, col


def _error(src: str, pos: int, message: str) -> ParseError:
    line, col = _line_col(src, pos)
    return ParseError(message, line, col)


def _tokenize(src: str, punctuation: str) -> list[_Token]:
    tokens = []
    i = 0
    n = len(src)
    while i < n:
        ch = src[i]
        if ch.isspace():
            i += 1
            continue
        if ch in punctuation:
            tokens.append(_Token(ch, 0, i))
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and src[j].isdigit():
                j += 1
            tokens.append(_Token("int", int(src[i:j]), i))
            i = j
            continue
        if src.startswith("closure", i):
            tokens.append(_Token("closure", 0, i))
            i += len("closure")
            continue
        if ch in "xym":
            tokens.append(_Token(ch, 0, i))
            i += 1
            continue
        raise _error(src, i, f"unexpected character {ch!r}")
    tokens.append(_Token("end", 0, n))
    return tokens


# ---------------------------------------------------------------- parser


class _Parser:
    def __init__(self, src: str, signs: bool = False):
        self.src = src
        self.tokens = _tokenize(src, "(),*^+-" if signs else "(),*^")
        self.pos = 0
        self.failure: DomainError | None = None

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.next()
        if tok.kind != kind:
            raise _error(self.src, tok.pos, f"expected {kind!r}, found {tok.kind!r}")
        return tok

    def parse(self, rule):
        node = rule()
        tok = self.peek()
        if tok.kind != "end":
            raise _error(self.src, tok.pos, f"trailing input starting at {tok.kind!r}")
        return node

    def apply(self, op: Callable[..., MonomialIdeal], *args) -> MonomialIdeal:
        """op(*args), or the unit ideal once an op has failed; the first failure is kept."""
        if self.failure is None:
            try:
                return op(*args)
            except DomainError as exc:
                self.failure = exc
        return MonomialIdeal(((0, 0),))

    def expr(self) -> MonomialIdeal:
        ideal = self.term()
        while self.peek().kind == "*":
            self.next()
            ideal = self.apply(ideal.product, self.term())
        return ideal

    def term(self) -> MonomialIdeal:
        ideal = self.atom()
        if self.peek().kind == "^":
            self.next()
            tok = self.expect("int")
            if tok.value < 1:
                raise _error(self.src, tok.pos, "power exponent must be >= 1")
            ideal = self.apply(ideal.power, tok.value)
        return ideal

    def atom(self) -> MonomialIdeal:
        tok = self.peek()
        if tok.kind == "m":
            self.next()
            return normalize([(1, 0), (0, 1)])
        if tok.kind == "closure":
            self.next()
            self.expect("(")
            inner = self.expr()
            self.expect(")")
            return self.apply(_closure, inner)
        if tok.kind == "(":
            self.next()
            terms = self.comma_list(self.mono)
            self.expect(")")
            return self.apply(normalize, terms)
        raise _error(self.src, tok.pos, f"expected an ideal, found {tok.kind!r}")

    def mono(self) -> Monomial:
        a = b = 0
        saw = False
        while True:
            tok = self.peek()
            if tok.kind == "*" and saw and self._factor_follows():
                self.next()
                continue
            if tok.kind == "int" and not saw and tok.value == 1:
                # the constant monomial "1"
                self.next()
                return (0, 0)
            if tok.kind not in ("x", "y"):
                if not saw:
                    raise _error(self.src, tok.pos, f"expected a monomial, found {tok.kind!r}")
                return (a, b)
            self.next()
            exponent = 1
            if self.peek().kind == "^":
                self.next()
                etok = self.expect("int")
                exponent = etok.value
            if tok.kind == "x":
                a += exponent
            else:
                b += exponent
            saw = True

    def comma_list(self, item):
        out = [item()]
        while self.peek().kind == ",":
            self.next()
            out.append(item())
        return out

    def poly(self) -> Poly:
        sign = 1
        if self.peek().kind == "-":
            self.next()
            sign = -1
        terms = [self.pterm(sign)]
        while self.peek().kind in ("+", "-"):
            sign = 1 if self.next().kind == "+" else -1
            terms.append(self.pterm(sign))
        return terms

    def pterm(self, sign: int) -> Term:
        tok = self.peek()
        if tok.kind != "int":
            return (sign, *self.mono())
        self.next()
        if self.peek().kind == "*" and self._factor_follows():
            self.next()
        if self.peek().kind in ("x", "y"):
            return (sign * tok.value, *self.mono())
        return (sign * tok.value, 0, 0)

    def _factor_follows(self) -> bool:
        """Whether the token after the current one starts a factor."""
        return self.tokens[self.pos + 1].kind in ("x", "y")


def parse_polys(src: str) -> list[Poly]:
    """Comma separated polynomials as (coefficient, a, b) terms, e.g. "x^3, y^3, x - 2*y"."""
    parser = _Parser(src, signs=True)
    return parser.parse(lambda: parser.comma_list(parser.poly))


def parse_ideal(src: str) -> MonomialIdeal:
    """Parse and evaluate in one pass; domain failures carry the source text."""
    parser = _Parser(src)
    ideal = parser.parse(parser.expr)
    exc = parser.failure
    if exc is not None:
        raise type(exc)(f"{exc} (while evaluating {src!r})") from exc
    return ideal


def parse_monomial(src: str) -> Monomial:
    parser = _Parser(src)
    mono = parser.mono()
    tok = parser.peek()
    if tok.kind != "end":
        raise _error(src, tok.pos, f"trailing input after monomial: {tok.kind!r}")
    return mono


# ---------------------------------------------------------------- printer


def format_monomial(m: Monomial) -> str:
    a, b = m
    parts = []
    if a:
        parts.append("x" if a == 1 else f"x^{a}")
    if b:
        parts.append("y" if b == 1 else f"y^{b}")
    return "*".join(parts) if parts else "1"


def format_ideal(ideal: MonomialIdeal) -> str:
    return "(" + ", ".join(format_monomial(g) for g in ideal.gens) + ")"
