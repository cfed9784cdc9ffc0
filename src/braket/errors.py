"""Exception types shared across the library.

Every error raised on a documented failure path derives from BraketError,
so callers (and the CLI) can distinguish domain errors from bugs.
"""


class BraketError(Exception):
    """Base class for all library errors."""


class DimensionMismatch(BraketError):
    """Operands have incompatible shapes or dimensions."""


class Singular(BraketError):
    """Matrix has no inverse within the pivot threshold."""


class NotHermitian(BraketError):
    """Matrix fails the hermiticity check."""


class DegenerateMetric(BraketError):
    """Hermitian matrix has an eigenvalue below the zero threshold."""


class WrongVariance(BraketError):
    """Vector has the wrong ket/bra or up/down character for the operation."""


class VarianceMismatch(BraketError):
    """Pair of vectors cannot be contracted with the requested form."""


class KindMismatch(BraketError):
    """Operator kinds do not chain or sum."""


class WrongKind(BraketError):
    """Operator kind is outside the domain of the operation."""


class NotSemiHermitian(BraketError):
    """Operator is not self-adjoint with respect to the metric."""


class NotOrthonormalMetric(BraketError):
    """Metric matrix is not diagonal with entries plus/minus one."""


class IndexOutOfRange(BraketError):
    """Basis index outside 1..N."""


class InvalidWeights(BraketError):
    """Angular-momentum labels are out of range or not half-integers."""


class EqualWeights(BraketError):
    """Two-weight construction called with equal weights."""


class WrongRepShape(BraketError):
    """Representation bundle has the wrong shape or basis for the operation."""


class DslSyntaxError(BraketError):
    """Malformed expression source; carries the offending position."""

    def __init__(self, message, position=None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class UnknownToken(DslSyntaxError):
    """Character sequence that is not part of the expression grammar."""


class VarianceError(BraketError):
    """Expression juxtaposes objects whose variances do not combine."""


class UnboundName(BraketError):
    """Expression refers to a name missing from the environment."""


class NotIdempotent(BraketError):
    """Projector candidate fails the idempotency check P.P = P."""


class SchemaError(BraketError):
    """JSON payload does not match the expected schema."""


class InvalidArgument(BraketError, ValueError):
    """Argument outside its documented set of values; also a ValueError."""
