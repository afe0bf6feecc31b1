"""Monomial ideals in two variables, their Newton polygons, and the
indecomposable rank-2 modules attached to them.

The core objects are staircase ideals (`MonomialIdeal`), their integral
closures and Zariski factorizations (`newton`), the 2 x (r+2) presentation
matrices M_k (`presentation`), a decision procedure with machine-checkable
certificates (`engine`), and brute-force truncation oracles used to
cross-check everything (`oracle`).
"""

__version__ = "0.1.0"

from .engine import (
    Branch,
    Certificate,
    Classification,
    Verdict,
    certificate_diff,
    choose_k,
    classify,
    orient,
    sufficient_indecomposable,
    valid_k_set,
    verify_certificate,
)
from .errors import (
    DomainError,
    FittingMismatch,
    InternalInconsistency,
    KOutOfRange,
    NonMonomialMinor,
    NotComplete,
    NotFiniteColength,
    NotMPrimary,
    ParseError,
    SizeBudgetExceeded,
)
from .expr import format_ideal, format_monomial, parse_ideal, parse_monomial, parse_polys
from .newton import (
    Factorization,
    NewtonPolygon,
    SimpleFactor,
    closure,
    is_complete,
    is_simple,
    newton_vertices,
    reconstruct,
    simple_divides,
    simple_ideal,
    zariski_factor,
)
from .oracle import (
    closure_power_oracle,
    enumerate_complete,
    module_colength,
    module_min_gens,
    poly_ideal_colength,
)
from .presentation import (
    ContractionCase,
    Presentation2,
    build_Mk,
    contracted_numeric,
    ell_value,
    fitting0,
    fitting1,
    graded_colength,
    graded_min_gens,
    lemma33_holds,
    remark34_case,
)
from .render import render_svg
from .staircase import Monomial, MonomialIdeal, monomial_ideal, normalize

__all__ = [
    "__version__",
    "Branch",
    "Certificate",
    "Classification",
    "ContractionCase",
    "DomainError",
    "Factorization",
    "FittingMismatch",
    "InternalInconsistency",
    "KOutOfRange",
    "Monomial",
    "MonomialIdeal",
    "NewtonPolygon",
    "NonMonomialMinor",
    "NotComplete",
    "NotFiniteColength",
    "NotMPrimary",
    "ParseError",
    "Presentation2",
    "SimpleFactor",
    "SizeBudgetExceeded",
    "Verdict",
    "build_Mk",
    "certificate_diff",
    "choose_k",
    "classify",
    "closure",
    "closure_power_oracle",
    "contracted_numeric",
    "ell_value",
    "enumerate_complete",
    "fitting0",
    "fitting1",
    "format_ideal",
    "format_monomial",
    "graded_colength",
    "graded_min_gens",
    "is_complete",
    "is_simple",
    "lemma33_holds",
    "module_colength",
    "module_min_gens",
    "monomial_ideal",
    "newton_vertices",
    "normalize",
    "orient",
    "parse_ideal",
    "parse_monomial",
    "parse_polys",
    "poly_ideal_colength",
    "reconstruct",
    "remark34_case",
    "render_svg",
    "simple_divides",
    "simple_ideal",
    "sufficient_indecomposable",
    "valid_k_set",
    "verify_certificate",
    "zariski_factor",
]
