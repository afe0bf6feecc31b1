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

`evaluate` refuses a product or power whose multiplication could form more
than `staircase.MAX_PRODUCT_CANDIDATES` generator pairs, before forming any of
them.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError, ParseError
from .newton import closure as _closure
from .oracle import Poly, Term
from .staircase import MAX_PRODUCT_CANDIDATES, Monomial, MonomialIdeal, normalize, within_budget


# ---------------------------------------------------------------- AST


@dataclass(frozen=True)
class Gens:
    terms: tuple[Monomial, ...]


@dataclass(frozen=True)
class Product:
    left: "IdealExpr"
    right: "IdealExpr"


@dataclass(frozen=True)
class Power:
    base: "IdealExpr"
    exponent: int


@dataclass(frozen=True)
class Closure:
    inner: "IdealExpr"


@dataclass(frozen=True)
class MIdeal:
    pass


IdealExpr = Gens | Product | Power | Closure | MIdeal


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

    def expr(self) -> IdealExpr:
        node = self.term()
        while self.peek().kind == "*":
            self.next()
            node = Product(node, self.term())
        return node

    def term(self) -> IdealExpr:
        node = self.atom()
        if self.peek().kind == "^":
            self.next()
            tok = self.expect("int")
            if tok.value < 1:
                raise _error(self.src, tok.pos, "power exponent must be >= 1")
            node = Power(node, tok.value)
        return node

    def atom(self) -> IdealExpr:
        tok = self.peek()
        if tok.kind == "m":
            self.next()
            return MIdeal()
        if tok.kind == "closure":
            self.next()
            self.expect("(")
            inner = self.expr()
            self.expect(")")
            return Closure(inner)
        if tok.kind == "(":
            self.next()
            terms = self.comma_list(self.mono)
            self.expect(")")
            return Gens(tuple(terms))
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


def parse(src: str) -> IdealExpr:
    parser = _Parser(src)
    return parser.parse(parser.expr)


def parse_polys(src: str) -> list[Poly]:
    """Comma separated polynomials as (coefficient, a, b) terms, e.g. "x^3, y^3, x - 2*y"."""
    parser = _Parser(src, signs=True)
    return parser.parse(lambda: parser.comma_list(parser.poly))


def _gen_bound(ideal: MonomialIdeal, n: int = 1) -> int:
    """At most this many minimal generators in I^n: a_0 and b_r scale by n,
    and a staircase has at most min(a_0, b_r) + 1 corners."""
    return n * min(ideal.a0, ideal.br) + 1


def evaluate(node: IdealExpr) -> MonomialIdeal:
    if isinstance(node, MIdeal):
        return normalize([(1, 0), (0, 1)])
    if isinstance(node, Gens):
        return normalize(node.terms)
    if isinstance(node, Product):
        left, right = evaluate(node.left), evaluate(node.right)
        pairs = _gen_bound(left) * _gen_bound(right)
        within_budget("product", pairs, "generator pairs", MAX_PRODUCT_CANDIDATES)
        return left * right
    if isinstance(node, Power):
        # square-and-multiply forms I^i * I^j with i + j <= n; the pair count
        # is largest at i, j = ceil(n/2), floor(n/2)
        base, n = evaluate(node.base), node.exponent
        if n > 1:
            pairs = _gen_bound(base, (n + 1) // 2) * _gen_bound(base, n // 2)
            within_budget("power", pairs, "generator pairs", MAX_PRODUCT_CANDIDATES)
        return base**n
    if isinstance(node, Closure):
        return _closure(evaluate(node.inner))
    raise TypeError(f"not an ideal expression: {node!r}")


def parse_ideal(src: str) -> MonomialIdeal:
    """Parse and evaluate in one go; domain failures carry the source text."""
    node = parse(src)
    try:
        return evaluate(node)
    except ParseError:
        raise
    except DomainError as exc:
        raise type(exc)(f"{exc} (while evaluating {src!r})") from exc


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
