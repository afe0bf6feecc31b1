"""The three benchmark workloads: input generation, the timed item, its check.

Each workload is an item stream drawn from a seed.  ``generate`` builds the
inputs (plain strings and integers; the library sees only these), ``run`` is
the timed work for one item, ``check`` compares the item's output against an
independently known answer outside the timed region, and ``digest`` gives the
bytes folded into the run's SHA-256 output digest.

Every library call goes through a module attribute (``expr.parse_ideal``,
``newton.closure``, ...) so that the traced run, which rebinds those
attributes, sees the calls made from here as well.
"""

from __future__ import annotations

import bisect
import importlib
import json
import random

from icmod import cli, engine, expr, newton, oracle

# the package re-exports a function named `render`, which hides the submodule
render = importlib.import_module("icmod.render")


def _gens_expr(gens) -> str:
    return "(" + ", ".join(expr.format_monomial(g) for g in gens) + ")"


def decidable(ideal) -> bool:
    """The decision procedure certifies every complete ideal except those of
    order <= 1 (out of scope) and those of order 2 with xy in I (open)."""
    r = ideal.order()
    return r >= 3 or (r == 2 and not ideal.member((1, 1)))


class DecideSweep:
    """parse -> choose_k -> verify_certificate -> `decide --json` document."""

    name = "decide_sweep"
    round_size = 1

    def generate(self, seed: int, tiny: bool) -> list[str]:
        """Every decidable ideal within the bounds, in a seeded order in which
        each prefix holds the same share of every size a0 + b_r (the size
        sets the oracle's truncation degree, so a run's cost does not hang
        on which ideals the seed puts first)."""
        rng = random.Random(seed)
        strata: dict[int, list[str]] = {}
        for ideal in oracle.enumerate_complete(*((4, 5) if tiny else (8, 10))):
            if decidable(ideal):
                strata.setdefault(ideal.a0 + ideal.br, []).append(expr.format_ideal(ideal))
        keyed = []
        for size in sorted(strata):
            group = strata[size]
            rng.shuffle(group)
            offset = rng.random()
            keyed += [((j + offset) / len(group), e) for j, e in enumerate(group)]
        keyed.sort()
        return [e for _, e in keyed]

    def run(self, item: str):
        ideal = expr.parse_ideal(item)
        cert = engine.choose_k(ideal)
        verified = engine.verify_certificate(cert)
        doc = json.dumps(cli.certificate_to_dict(cert, item), indent=2) + "\n"
        return cert, verified, doc

    def check(self, item: str, out) -> bool:
        cert, verified, doc = out
        return (
            cert.verdict is engine.Verdict.INDECOMPOSABLE
            and cert.k is not None
            and 1 <= cert.k <= cert.order + 1
            and verified is True
            and json.loads(doc)["verdict"] == cert.verdict.value
        )

    def digest(self, out) -> bytes:
        return out[2].encode()

    def cli_probe(self, items: list[str]) -> tuple[list[str], str]:
        """A `decide --json` launch and the bytes it must print."""
        return ["decide", items[0], "--json"], self.run(items[0])[2]


# ---------------------------------------------------------------- ideal_algebra

_OPS = ("normalize", "product", "power", "closure", "complete", "vertices", "factor", "render")
# staircase kinds per operation in one round of the stream: the dense items
# put the median inside their own broad spread, the four costly wide
# operations (closure, complete, factor, render) are 4/56 of the items
_ROUND_KINDS = ("small",) * 2 + ("dense",) * 4 + ("wide",)
_SMALL_MAX = 12  # a0, b_r bound under which the power oracle cross-checks closure


def _small_expr(rng: random.Random) -> str:
    form = rng.randrange(3)
    if form == 0:
        a0, br = rng.randint(2, _SMALL_MAX), rng.randint(2, _SMALL_MAX)
        inner = [
            (rng.randint(1, a0 - 1), rng.randint(1, br - 1)) for _ in range(rng.randint(0, 3))
        ]
        return _gens_expr([(a0, 0), *inner, (0, br)])
    if form == 1:
        p, q, s, t = (rng.randint(1, 6) for _ in range(4))
        return f"closure((x^{p},y^{q}))*closure((x^{s},y^{t}))"
    k = rng.randint(1, 4)
    return f"m^{k}*(x^{rng.randint(1, 8 - k)},y^{rng.randint(1, 8 - k)})"


def _dense_expr(rng: random.Random) -> str:
    """Products of closures and a power: a staircase with hundreds of corners."""
    closures = "*".join(
        f"closure((x^{rng.randint(10, 40)},y^{rng.randint(10, 40)}))" for _ in range(3)
    )
    a, c = rng.randint(5, 9), rng.randint(5, 9)
    u, v = rng.randint(1, a - 1), rng.randint(1, c - 1)
    return f"{closures}*(x^{a},x^{u}*y^{v},y^{c})^{rng.randint(8, 20)}"


# convex corner sets that put three vertices on the hull whenever b_r >= 8, so
# every wide staircase has four hull edges and the closure cost follows a0
_WIDE_CORNERS = (((6, 1), (3, 3), (1, 6)), ((5, 1), (2, 3), (1, 5)), ((7, 1), (4, 2), (1, 5)))


def _wide_expr(rng: random.Random, tiny: bool) -> str:
    """a0 near 10^5 with five corners."""
    a0 = rng.randint(800, 1000) if tiny else rng.randint(80_000, 100_000)
    return _gens_expr([(a0, 0), *rng.choice(_WIDE_CORNERS), (0, rng.randint(8, _SMALL_MAX))])


def _make_expr(rng: random.Random, kind: str, tiny: bool) -> str:
    if kind == "small":
        return _small_expr(rng)
    if kind == "dense":
        return _dense_expr(rng)
    return _wide_expr(rng, tiny)


def _raw_gens(e: str):
    """The generator list of a plain "(m1, m2, ...)" expression, else None."""
    if not e.startswith("(") or not e.endswith(")") or ")" in e[:-1]:
        return None
    return [expr.parse_monomial(t) for t in e[1:-1].split(", ")]


def _parse_gens(text: str) -> list[tuple[int, int]]:
    return [expr.parse_monomial(t) for t in text[1:-1].split(", ")]


def _is_staircase(gens) -> bool:
    return (
        gens[0][1] == 0
        and gens[-1][0] == 0
        and all(a > c and b < d for (a, b), (c, d) in zip(gens, gens[1:]))
    )


def _member_all(gens, points) -> bool:
    """Whether every point lies in the staircase ideal with corners gens."""
    neg_a = [-a for a, _ in gens]  # ascending
    for u, v in points:
        # the corners with a <= u form a suffix; its first corner has the least b
        i = bisect.bisect_left(neg_a, -u)
        if i == len(gens) or gens[i][1] > v:
            return False
    return True


def _cross(o, a, b) -> int:
    return (a[0] - o[0]) * (b[1] - o[1]) - (b[0] - o[0]) * (a[1] - o[1])


class IdealAlgebra:
    """The non-decision subcommands on small, dense and wide staircases.

    An item is (op, kind, expression, argument): the argument is the second
    factor of a product or the exponent of a power.  Factor items carry an
    expression wrapped in closure(...), so every item is a valid input.
    ``run`` returns the parsed ideal, the result and the text the subcommand
    prints.
    """

    name = "ideal_algebra"
    round_size = len(_OPS) * len(_ROUND_KINDS)

    def generate(self, seed: int, tiny: bool) -> list[tuple[str, str, str, object]]:
        rng = random.Random(seed)
        items = []
        for _ in range(2 if tiny else 40):
            round_ = []
            for op in _OPS:
                for kind in _ROUND_KINDS:
                    e = _make_expr(rng, kind, tiny)
                    arg: object = None
                    if op == "product":
                        arg = _make_expr(rng, kind, tiny)
                    elif op == "power":
                        arg = rng.randint(2, 3 if kind == "dense" else 4)
                    elif op == "factor":
                        e = f"closure({e})"
                    round_.append((op, kind, e, arg))
            rng.shuffle(round_)
            items.extend(round_)
        return items

    def run(self, item):
        op, _, e, arg = item
        ideal = expr.parse_ideal(e)
        if op == "normalize":
            return ideal, ideal, expr.format_ideal(ideal)
        if op == "product":
            other = expr.parse_ideal(arg)
            result = ideal * other
            return ideal, (other, result), expr.format_ideal(result)
        if op == "power":
            result = ideal**arg
            return ideal, result, expr.format_ideal(result)
        if op == "closure":
            result = newton.closure(ideal)
            return ideal, result, expr.format_ideal(result)
        if op == "complete":
            result = newton.is_complete(ideal)
            return ideal, result, str(result)
        if op == "vertices":
            result = newton.newton_vertices(ideal).vertices
            return ideal, result, repr(result)
        if op == "factor":
            factorization = newton.zariski_factor(ideal)
            back = newton.reconstruct(factorization)
            return ideal, (factorization, back), f"{factorization.factors} {expr.format_ideal(back)}"
        if op == "render":
            result = render.render_svg(ideal)
            return ideal, result, result
        raise ValueError(f"unknown op {op!r}")

    def check(self, item, out) -> bool:
        op, _, e, arg = item
        ideal, result, text = out
        if op in ("normalize", "power", "closure"):
            gens = _parse_gens(text)
            if not _is_staircase(gens) or tuple(gens) != result.gens:
                return False
        if op == "normalize":
            raw = _raw_gens(e)
            # the minimal generators of a plain list: a subset that generates every input
            return raw is None or (set(result.gens) <= set(raw) and _member_all(result.gens, raw))
        if op == "product":
            other, product = result
            gens = _parse_gens(text)
            sums = {(a + c, b + d) for a, b in ideal.gens for c, d in other.gens}
            return (
                _is_staircase(gens)
                and set(gens) <= sums
                and _member_all(gens, sums)
                and gens[0][0] == ideal.a0 + other.a0
                and gens[-1][1] == ideal.br + other.br
            )
        if op == "power":
            return (
                result.a0 == arg * ideal.a0
                and result.br == arg * ideal.br
                and result.order() == arg * ideal.order()
                and _member_all(result.gens, [(arg * a, arg * b) for a, b in ideal.gens])
            )
        if op == "closure":
            ok = newton.is_complete(result) and result.contains(ideal)
            if ok and ideal.a0 <= _SMALL_MAX and ideal.br <= _SMALL_MAX:
                n_max = ideal.a0 + ideal.br
                ok = all(
                    oracle.closure_power_oracle((u, v), ideal, n_max) == result.member((u, v))
                    for u in range(ideal.a0 + 1)
                    for v in range(ideal.br + 1)
                )
            return ok
        if op == "complete":
            return result == (newton.closure(ideal) == ideal)
        if op == "vertices":
            # the lower hull: corners of I, from (a0,0) to (0,b_r), strictly convex,
            # with every corner on or above every edge
            return (
                set(result) <= set(ideal.gens)
                and result[0] == (ideal.a0, 0)
                and result[-1] == (0, ideal.br)
                and all(_cross(*result[i : i + 3]) < 0 for i in range(len(result) - 2))
                and all(
                    _cross(p, q, g) <= 0 for p, q in zip(result, result[1:]) for g in ideal.gens
                )
            )
        if op == "factor":
            factorization, back = result
            return back == ideal and bool(factorization.factors)
        if op == "render":
            vertices = newton.newton_vertices(ideal).vertices
            return (
                result.startswith("<svg ")
                and result.endswith("</svg>\n")
                and result.count("<circle ") == len(ideal.gens) + len(vertices)
            )
        return False

    def digest(self, out) -> bytes:
        return (out[2] + "\n").encode()

    def cli_probe(self, items) -> tuple[list[str], str]:
        """A `closure --json` launch on the first small closure item."""
        e = next(e for op, kind, e, _ in items if op == "closure" and kind == "small")
        gens = expr.format_ideal(newton.closure(expr.parse_ideal(e)))
        return ["closure", e, "--json"], json.dumps({"gens": gens}, indent=2) + "\n"


# ---------------------------------------------------------------- poly_colength


class PolyColength:
    """Colength of (monomial ideal, x + c*y) by rational elimination.

    Setting x = -c*y sends x^a y^b to a unit times y^(a+b), so the colength is
    the order of the monomial ideal whatever the nonzero c.
    """

    name = "poly_colength"
    round_size = 1

    def generate(self, seed: int, tiny: bool) -> list[tuple[str, int]]:
        rng = random.Random(seed)
        bounds = (4, 5) if tiny else (8, 10)
        complete = [expr.format_ideal(i) for i in oracle.enumerate_complete(*bounds)]
        items = []
        for i in range(100 if tiny else 8000):
            if i % 2:
                e = rng.choice(complete)
            else:
                a0, br = rng.randint(2, 10), rng.randint(2, 12)
                inner = [
                    (rng.randint(1, a0 - 1), rng.randint(1, br - 1))
                    for _ in range(rng.randint(0, 4))
                ]
                e = _gens_expr([(a0, 0), *inner, (0, br)])
            c = rng.choice((1, -1)) * rng.randint(1, 9)
            items.append((e, c))
        return items

    def run(self, item):
        e, c = item
        ideal = expr.parse_ideal(e)
        polys = oracle.ideal_as_polys(ideal) + [[(1, 1, 0), (c, 0, 1)]]
        return ideal, oracle.poly_ideal_colength(polys)

    def check(self, item, out) -> bool:
        ideal, colength = out
        return colength == ideal.order()

    def digest(self, out) -> bytes:
        return f"{out[0].gens}|{out[1]}\n".encode()

    def cli_probe(self, items) -> tuple[list[str], str]:
        """A `poly-colength --json` launch on the first item."""
        e, c = items[0]
        ideal = expr.parse_ideal(e)
        polys = ", ".join(expr.format_monomial(g) for g in ideal.gens) + f", x{c:+d}*y"
        return ["poly-colength", polys, "--json"], json.dumps({"colength": ideal.order()}, indent=2) + "\n"


WORKLOADS = {w.name: w for w in (DecideSweep(), IdealAlgebra(), PolyColength())}
