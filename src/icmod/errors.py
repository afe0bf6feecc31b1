"""Exception hierarchy shared by the whole package."""


class DomainError(Exception):
    """Base class for all mathematical-domain failures (CLI exit code 1)."""


class NotMPrimary(DomainError):
    """A generating set does not cut out a finite-colength monomial ideal."""


class NotComplete(DomainError):
    """An operation requiring an integrally closed ideal got one that is not."""


class KOutOfRange(DomainError):
    """The module parameter k is outside the admissible range 1 <= k < b_r."""


class NonMonomialMinor(DomainError):
    """A 2x2 minor is a genuine binomial; the matrix is outside the supported family."""


class NotFiniteColength(DomainError):
    """An ideal or module of infinite colength: a Fitt_0 that is not m-primary,
    or polynomial generators whose truncations did not stabilize."""


class InternalInconsistency(DomainError):
    """A structural fact the theory guarantees failed to hold; indicates a bug."""


class SizeBudgetExceeded(DomainError):
    """Work would exceed a size budget of `staircase`; refused before it starts."""


class ParseError(DomainError):
    """Syntax error in the surface expression language."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col
