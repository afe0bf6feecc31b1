"""Command line front end.

Exit codes: 0 on success, 1 on domain errors (bad ideals, failed
preconditions, syntax errors in expressions) and when the reader of the
output closes it early (a broken pipe; nothing is printed on stderr), 2 on
usage errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import operator
import os
import sys
from typing import Any

from . import __version__
from .engine import Branch, Certificate, Verdict, choose_k, classify, orient, valid_k_set
from .errors import DomainError, NotComplete
from .expr import format_ideal, format_monomial, parse_ideal, parse_monomial, parse_polys
from .newton import (
    Factorization,
    NewtonPolygon,
    is_complete,
    newton_vertices,
    reconstruct,
    zariski_factor,
)
from .newton import closure as ideal_closure
from .oracle import (
    enumerate_complete,
    module_colength,
    module_min_gens,
    poly_ideal_colength,
)
from .presentation import (
    Presentation2,
    build_Mk,
    fitting0,
    fitting1,
    graded_colength,
    graded_min_gens,
)
from .render import svg_batches
from .staircase import MonomialIdeal, normalize


def _emit(args, payload: dict[str, Any], human: str) -> None:
    if args.json:
        json.dump(payload, sys.stdout, indent=2)
        sys.stdout.write("\n")
    else:
        sys.stdout.write(human + "\n")


def _matrix_dict(matrix: Presentation2) -> dict[str, Any]:
    cols = [[None if e is None else format_monomial(e) for e in col] for col in matrix.cols]
    return {"cols": cols}


def _factorization_list(f: Factorization) -> list[dict[str, int]]:
    return [{"p": sf.p, "q": sf.q, "mult": m} for sf, m in f.factors]


def format_factorization(f: Factorization) -> str:
    parts = []
    for sf, m in f.factors:
        base = f"closure(x^{sf.p},y^{sf.q})" if max(sf.p, sf.q) > 1 else "(x,y)"
        base = base.replace("x^1,", "x,").replace(",y^1)", ",y)")
        parts.append(base if m == 1 else f"{base}^{m}")
    return " * ".join(parts)


def certificate_to_dict(cert: Certificate, source: str) -> dict[str, Any]:
    doc: dict[str, Any] = {
        "input": source,
        "normalized_input": format_ideal(cert.ideal),
        "transposed": cert.transposed,
        "order": cert.order,
        "factorization": (
            _factorization_list(cert.factorization)
            if cert.factorization is not None
            else None
        ),
        "branch": cert.branch.value,
        "k": cert.k,
        "matrix": _matrix_dict(cert.matrix) if cert.matrix is not None else None,
        "checks": [{"name": n, "pass": ok} for n, ok in cert.checks],
        "verdict": cert.verdict.value,
        "tool_version": __version__,
    }
    if cert.closed_input is not None:
        doc["closed_input"] = format_ideal(cert.closed_input)
    return doc


def certificate_text(cert: Certificate) -> str:
    lines = [
        f"ideal:         {format_ideal(cert.ideal)}"
        + (" (transposed)" if cert.transposed else ""),
        f"order:         {cert.order}",
    ]
    if cert.closed_input is not None:
        lines.insert(0, f"closure taken: {format_ideal(cert.closed_input)}")
    if cert.factorization is not None:
        lines.append(f"factorization: {format_factorization(cert.factorization)}")
    lines.append(f"branch:        {cert.branch.value}")
    if cert.k is not None:
        lines.append(f"k:             {cert.k}")
    for name, ok in cert.checks:
        lines.append(f"  check {name}: {'pass' if ok else 'FAIL'}")
    lines.append(f"verdict:       {cert.verdict.value}")
    return "\n".join(lines)


def _show(value) -> tuple[Any, str]:
    """The JSON value and the human text of one result."""
    if isinstance(value, MonomialIdeal):
        text = format_ideal(value)
        return text, text
    if isinstance(value, bool):
        return value, "true" if value else "false"
    if isinstance(value, int):
        return value, str(value)
    if isinstance(value, Presentation2):
        rows = (
            "  ".join("0" if e is None else format_monomial(e) for e in row)
            for row in zip(*value.cols)
        )
        return _matrix_dict(value), "\n".join(f"[ {row} ]" for row in rows)
    if isinstance(value, Factorization):
        return _factorization_list(value), format_factorization(value)
    assert isinstance(value, NewtonPolygon)
    return [list(v) for v in value.vertices], ", ".join(f"({p},{q})" for p, q in value.vertices)


# ---------------------------------------------------------------- handlers

# Each operand's parser and add_argument options; argparse reads the integer of --k.
_OPERANDS = {
    "expr": (parse_ideal, {"help": "ideal expression, e.g. \"(x^2, x*y, y^3)\""}),
    "monomial": (parse_monomial, {"help": "monomial, e.g. x*y^3"}),
    "left": (parse_ideal, {}),
    "right": (parse_ideal, {}),
    "polys": (parse_polys, {"help": "comma separated polynomials, e.g. \"x^3, y^3, x+y\""}),
    "--k": (None, {"type": int, "required": True, "help": "module parameter k"}),
}

# The subcommands, in --help order, that parse their operands in the order
# listed, call one function on them and print its one value: name, JSON key,
# function, help text and operands.  With --k the function gets M_k, not the ideal.
_ONE_VALUE = (
    ("normalize", "gens", lambda ideal: ideal, "canonical minimal generators", ("expr",)),
    ("order", "order", MonomialIdeal.order, "order of the ideal", ("expr",)),
    ("mu", "mu", MonomialIdeal.num_min_gens, "number of minimal generators", ("expr",)),
    ("colength", "colength", MonomialIdeal.colength, "length of R modulo the ideal", ("expr",)),
    ("member", "member", lambda mono, ideal: ideal.member(mono), "monomial membership test",
     ("monomial", "expr")),
    ("product", "gens", operator.mul, "product of two ideals", ("left", "right")),
    ("closure", "gens", ideal_closure, "integral closure", ("expr",)),
    ("complete", "complete", is_complete, "is the ideal integrally closed?", ("expr",)),
    ("vertices", "vertices", newton_vertices, "Newton polygon vertices", ("expr",)),
    ("factor", "factorization", zariski_factor, "Zariski factorization into simple closures",
     ("expr",)),
    ("construct", "matrix", lambda matrix: matrix, "presentation matrix of M_k", ("expr", "--k")),
    ("fitting0", "gens", fitting0, "ideal of 2x2 minors of M_k", ("expr", "--k")),
    ("fitting1", "gens", fitting1, "ideal of entries of M_k", ("expr", "--k")),
    ("module-length", "length", module_colength, "length of R^2 / M_k (oracle)", ("expr", "--k")),
    ("module-mu", "mu", module_min_gens, "minimal generators of M_k (oracle)", ("expr", "--k")),
    ("poly-colength", "colength", poly_ideal_colength, "colength of a polynomial ideal",
     ("polys",)),
)


def _one_value(key: str, function, operands):
    def handler(args):
        values = [_OPERANDS[op][0](getattr(args, op)) for op in operands if op != "--k"]
        if "--k" in operands:
            values[0] = build_Mk(values[0], args.k)
        payload, human = _show(function(*values))
        _emit(args, {key: payload}, human)

    return handler


def _cmd_decide(args):
    ideal = parse_ideal(args.expr)
    try:
        cert = choose_k(ideal, forced_k=args.k, close_first=args.close_first)
    except NotComplete as exc:
        raise NotComplete(f"{exc}; pass --close-first") from exc
    doc = certificate_to_dict(cert, args.expr)
    human = certificate_text(cert)
    if args.show_valid_k and cert.k is not None:
        ks = valid_k_set(classify(cert.ideal), cert.order)
        doc["valid_k"] = ks
        human += f"\nvalid k:       {ks}"
    _emit(args, doc, human)


def _cmd_enumerate(args):
    ideals = [format_ideal(i) for i in enumerate_complete(args.amax, args.bmax)]
    _emit(args, {"count": len(ideals), "ideals": ideals}, "\n".join(ideals))


def _cmd_render(args):
    batches = svg_batches(parse_ideal(args.expr))
    # the first batch comes after every check, so a refused figure leaves no file
    first = next(batches)
    try:
        fh = open(args.out, "w", encoding="utf-8")
    except OSError as exc:
        sys.stderr.write(f"error: cannot write {args.out}: {exc.strerror}\n")
        raise SystemExit(2) from None
    # each batch is joined and written whole: a text-file write per piece made
    # the figure at the tick cap slower to write than one write per line did
    with fh:
        fh.write("".join(first))
        for batch in batches:
            fh.write("".join(batch))
    _emit(args, {"out": args.out}, f"wrote {args.out}")


def _selftest_cases():
    ex52 = parse_ideal("(x^5, x^4*y^2, x^3*y^3, x^2*y^4, x*y^6, y^7)")
    ex53 = parse_ideal("(x^7, x^5*y, x^3*y^2, x^2*y^3, x*y^5, y^9)")
    yield (
        "Newton vertices of the two worked staircases",
        newton_vertices(ex52).vertices == ((5, 0), (2, 4), (0, 7))
        and newton_vertices(ex53).vertices == ((7, 0), (3, 2), (2, 3), (1, 5), (0, 9)),
    )
    yield (
        "factorization round trip",
        all(i == reconstruct(zariski_factor(i)) for i in (ex52, ex53)),
    )
    enumerated = list(enumerate_complete(4, 5))
    yield (
        "the (4,5) enumeration yields 48 ideals, each its factors' product",
        len(enumerated) == 48
        and all(i == reconstruct(zariski_factor(i)) for i in enumerated),
    )
    yield (
        "product of the two worked staircases equals their normalized corner sums",
        (ex52 * ex53).gens
        == normalize([(a + c, b + d) for a, b in ex52.gens for c, d in ex53.gens]).gens,
    )
    yield (
        "colength identities r=3..6",
        all(
            normalize([(r, 0), (r - 1, r - 1), (0, r)]).colength() == r * r - 1
            and normalize([(r, 0), (1, r - 1), (0, r)]).colength() == r * r - r + 1
            for r in range(3, 7)
        ),
    )
    cert = choose_k(ex53)
    yield (
        "decision on the Case I staircase",
        cert.branch == Branch.CASE_I
        and cert.k == 3
        and cert.verdict == Verdict.INDECOMPOSABLE,
    )
    sweep_ok = True
    for ideal in enumerate_complete(3, 4):
        oriented, _ = orient(ideal)
        r = oriented.order()
        for k in range(1, r):
            matrix = build_Mk(oriented, k)
            mu = module_min_gens(matrix)
            if fitting0(matrix) != oriented or not graded_min_gens(matrix) == mu == r + 2:
                sweep_ok = False
            if module_colength(matrix) != graded_colength(matrix):
                sweep_ok = False
    yield ("mini sweep over bounds (3,4)", sweep_ok)


def _cmd_selftest(args):
    checks = list(_selftest_cases())
    failures = sum(not ok for _, ok in checks)
    lines = [f"[{'PASS' if ok else 'FAIL'}] {name}" for name, ok in checks]
    if not failures:
        lines.append("selftest: all checks passed")
    _emit(args, {"checks": [{"name": n, "pass": ok} for n, ok in checks]}, "\n".join(lines))
    if failures:
        raise DomainError(f"selftest: {failures} failure(s)")


# ---------------------------------------------------------------- wiring


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:  # worded as for type=int, not with this function's name
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


@functools.cache  # built on first use, once per process
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="icmod",
        description="Staircase ideals, Newton-polygon closure, Zariski "
        "factorization and indecomposability certificates for the attached "
        "rank-2 modules.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_, operands):
        p = sub.add_parser(name, help=help_)
        for op in operands:
            p.add_argument(op, **_OPERANDS[op][1])
        p.add_argument("--json", action="store_true", help="machine readable output")
        p.set_defaults(handler=handler)
        return p

    for name, key, function, help_, operands in _ONE_VALUE:
        add(name, _one_value(key, function, operands), help_, operands)
    p = add("decide", _cmd_decide, "run the decision procedure", ("expr",))
    p.add_argument("--close-first", action="store_true", help="close the ideal first")
    p.add_argument("--k", type=int, default=None, help="force this k")
    p.add_argument("--show-valid-k", action="store_true", help="list the designated k values")
    p = add("enumerate", _cmd_enumerate, "all complete ideals within bounds", ())
    p.add_argument("--amax", type=_positive_int, required=True)
    p.add_argument("--bmax", type=_positive_int, required=True)
    p = add("render", _cmd_render, "write an SVG figure", ("expr",))
    p.add_argument("--out", required=True, help="output SVG path")
    add("selftest", _cmd_selftest, "run built-in consistency checks", ())
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.handler(args)
        sys.stdout.flush()
    except DomainError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except BrokenPipeError:  # the reader left; the flush at exit goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
