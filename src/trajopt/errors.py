"""Exception types raised across the package."""


class TrajoptError(Exception):
    """Base class for all package errors."""


class NegativeEigenvalue(TrajoptError):
    """An eigenvalue/population entry is negative beyond tolerance."""


class NotNormalized(TrajoptError):
    """Eigenvalues do not sum to 1 within tolerance."""


class DimensionMismatch(TrajoptError):
    """Vector fields of an instance have inconsistent lengths."""


class NonFiniteValue(TrajoptError):
    """An instance vector holds a NaN or infinite entry."""


class NonPositiveTolerance(TrajoptError):
    """A tolerance parameter is not a positive finite number."""


class DimensionTooLarge(TrajoptError):
    """Requested enumeration exceeds the dimension cap."""


class DimensionOverflow(TrajoptError):
    """Assembled instance exceeds the build dimension cap."""


class NotAVertex(TrajoptError):
    """A population vector is not a vertex of the polytope."""


class NotMajorized(TrajoptError):
    """Stated populations are not majorized by the eigenvalues."""


class AlphaOutOfRange(TrajoptError):
    """Target value lies outside the attainable range."""


class IndexOutOfRange(TrajoptError):
    """A two-level index pair is invalid for the given dimension."""


class TOutOfRange(TrajoptError):
    """T-transform mixing parameter outside [0, 1]."""


class NotHermitian(TrajoptError):
    """Input matrix is not Hermitian within tolerance."""


class NotUnitTrace(TrajoptError):
    """Input density matrix does not have unit trace."""


class WrongInstanceKind(TrajoptError):
    """Operation requires a different kind of cooling instance."""


class ParseError(TrajoptError):
    """An instance or trajectory file could not be parsed."""
