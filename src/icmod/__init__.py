"""Monomial ideals in two variables, their Newton polygons, and the
indecomposable rank-2 modules attached to them.

The core objects are staircase ideals (`MonomialIdeal`), their integral
closures and Zariski factorizations (`newton`), the 2 x (r+2) presentation
matrices M_k (`presentation`), a decision procedure with machine-checkable
certificates (`engine`), and brute-force oracles used to cross-check
everything (`oracle`).  `__all__` is the public surface; the
README's Library section lists it by module.
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
    valid_k_set,
    verify_certificate,
)
from .errors import (
    DomainError,
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
    newton_vertices,
    reconstruct,
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
    Presentation2,
    build_Mk,
    ell_value,
    fitting0,
    fitting1,
    graded_colength,
    graded_min_gens,
)
from .render import render_svg
from .staircase import Monomial, MonomialIdeal, normalize

__all__ = [
    "__version__",
    "Branch",
    "Certificate",
    "Classification",
    "DomainError",
    "Factorization",
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
    "ell_value",
    "enumerate_complete",
    "fitting0",
    "fitting1",
    "format_ideal",
    "format_monomial",
    "graded_colength",
    "graded_min_gens",
    "is_complete",
    "module_colength",
    "module_min_gens",
    "newton_vertices",
    "normalize",
    "orient",
    "parse_ideal",
    "parse_monomial",
    "parse_polys",
    "poly_ideal_colength",
    "reconstruct",
    "render_svg",
    "simple_ideal",
    "valid_k_set",
    "verify_certificate",
    "zariski_factor",
]
