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

Whitespace is insignificant.  'm' is sugar for (x, y).  UINT is a run of the
ASCII digits 0-9: any other character outside the grammar, a superscript or
non-ASCII digit included, is a ParseError at its line and column.

Each ideal rule returns its staircase as it parses, so evaluation follows the
post-order of the expression.  The first domain error is held until the end
of the input has parsed: a syntax error anywhere is reported before it.  Every
product, and every square-and-multiply step of a power, is refused by
`MonomialIdeal.product` when its operands form more than
`staircase.MAX_PRODUCT_CANDIDATES` generator pairs, before it forms any; the
measured cost at that cap is in the budget comment of `staircase.py`.
"""

from __future__ import annotations

import re
from itertools import islice
from typing import Callable

from .errors import DomainError, ParseError
from .newton import closure as _closure
from .oracle import Poly, Term
from .staircase import Monomial, MonomialIdeal, normalize


# ---------------------------------------------------------------- lexer


# (kind, value): kind is one of ( ) , * ^ + - x y m closure int end, and value
# is an int token's integer, 0 for every other kind.  Tokens keep no source
# position: an error finds its token's position again with `_position`.
_Token = tuple[str, int]

_IDEAL_KINDS = frozenset(("(", ")", ",", "*", "^", "x", "y", "m", "closure", "int"))
_POLY_KINDS = _IDEAL_KINDS | {"+", "-"}
# ASCII digits, else the keyword or any other single character that is not whitespace
_LEXEME = re.compile(r"([0-9]+)|(closure|\S)")


def _error(src: str, pos: int, message: str) -> ParseError:
    line = src.count("\n", 0, pos) + 1
    col = pos - (src.rfind("\n", 0, pos) + 1) + 1
    return ParseError(message, line, col)


def _position(src: str, index: int) -> int:
    """Where the token `index` of `src` starts: the end of `src` for "end"."""
    match = next(islice(_LEXEME.finditer(src), index, None), None)
    return len(src) if match is None else match.start()


def _tokenize(src: str, kinds: frozenset[str]) -> list[_Token]:
    tokens = [(text, 0) if text else ("int", int(digits)) for digits, text in _LEXEME.findall(src)]
    if not kinds.issuperset([kind for kind, _ in tokens]):
        index = next(i for i, (kind, _) in enumerate(tokens) if kind not in kinds)
        raise _error(src, _position(src, index), f"unexpected character {tokens[index][0]!r}")
    tokens.append(("end", 0))
    return tokens


# ---------------------------------------------------------------- parser


class _Parser:
    def __init__(self, src: str, signs: bool = False):
        self.src = src
        self.tokens = _tokenize(src, _POLY_KINDS if signs else _IDEAL_KINDS)
        self.pos = 0
        self.failure: DomainError | None = None

    def peek(self) -> str:
        """The kind of the next token."""
        return self.tokens[self.pos][0]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, message: str, index: int | None = None) -> ParseError:
        """`message` at the token `index`, by default the next one."""
        return _error(self.src, _position(self.src, self.pos if index is None else index), message)

    def expect(self, kind: str) -> _Token:
        found = self.peek()
        if found != kind:
            raise self.error(f"expected {kind!r}, found {found!r}")
        return self.next()

    def parse(self, rule):
        node = rule()
        kind = self.peek()
        if kind != "end":
            raise self.error(f"trailing input starting at {kind!r}")
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
        while self.peek() == "*":
            self.next()
            ideal = self.apply(ideal.product, self.term())
        return ideal

    def term(self) -> MonomialIdeal:
        ideal = self.atom()
        if self.peek() == "^":
            self.next()
            _, exponent = self.expect("int")
            if exponent < 1:
                raise self.error("power exponent must be >= 1", self.pos - 1)
            ideal = self.apply(ideal.power, exponent)
        return ideal

    def atom(self) -> MonomialIdeal:
        kind = self.peek()
        if kind == "m":
            self.next()
            return MonomialIdeal(((1, 0), (0, 1)))
        if kind == "closure":
            self.next()
            self.expect("(")
            inner = self.expr()
            self.expect(")")
            return self.apply(_closure, inner)
        if kind == "(":
            self.next()
            terms = self.comma_list(self.mono)
            self.expect(")")
            return self.apply(normalize, terms)
        raise self.error(f"expected an ideal, found {kind!r}")

    def mono(self) -> Monomial:
        tokens, i = self.tokens, self.pos
        a = b = 0
        saw = False
        while True:
            kind, value = tokens[i]
            if kind == "x" or kind == "y":
                exponent = 1
                if tokens[i + 1][0] == "^":
                    self.pos = i + 2
                    exponent = self.expect("int")[1]
                    i += 2
                if kind == "x":
                    a += exponent
                else:
                    b += exponent
                saw = True
            elif kind == "*" and saw and tokens[i + 1][0] in ("x", "y"):
                pass  # a '*' between two factors
            elif kind == "int" and not saw and value == 1:
                # the constant monomial "1"
                self.pos = i + 1
                return (0, 0)
            else:
                self.pos = i
                if not saw:
                    raise self.error(f"expected a monomial, found {kind!r}")
                return (a, b)
            i += 1

    def comma_list(self, item):
        out = [item()]
        while self.peek() == ",":
            self.next()
            out.append(item())
        return out

    def poly(self) -> Poly:
        sign = 1
        if self.peek() == "-":
            self.next()
            sign = -1
        terms = [self.pterm(sign)]
        while self.peek() in ("+", "-"):
            sign = 1 if self.next()[0] == "+" else -1
            terms.append(self.pterm(sign))
        return terms

    def pterm(self, sign: int) -> Term:
        kind, value = self.tokens[self.pos]
        if kind != "int":
            return (sign, *self.mono())
        self.next()
        if self.peek() == "*" and self._factor_follows():
            self.next()
        if self.peek() in ("x", "y"):
            return (sign * value, *self.mono())
        return (sign * value, 0, 0)

    def _factor_follows(self) -> bool:
        """Whether the token after the current one starts a factor."""
        return self.tokens[self.pos + 1][0] in ("x", "y")


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
    kind = parser.peek()
    if kind != "end":
        raise parser.error(f"trailing input after monomial: {kind!r}")
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
