"""Exception types shared across the package."""


class JordanFormError(Exception):
    """Base class for all package-specific errors."""


class ParseError(JordanFormError, ValueError):
    """Malformed scalar, matrix, or structure text."""


class ZeroDenominator(ParseError):
    """A rational literal with denominator zero."""


class DimensionMismatch(JordanFormError, ValueError):
    """Operands with incompatible shapes."""


class SingularMatrix(JordanFormError, ArithmeticError):
    """Inversion was requested for a rank-deficient matrix."""


class DependentInput(JordanFormError, ValueError):
    """A vector family that must be linearly independent is not."""


class ZeroVector(JordanFormError, ValueError):
    """A nonzero vector was required."""


class SpectrumNotRepresentable(JordanFormError):
    """Some eigenvalue lies outside the Gaussian rationals.

    Carries the polynomial factor that resisted exact root extraction so
    callers can report precisely what could not be solved.
    """

    def __init__(self, factor):
        self.factor = factor
        super().__init__(f"no root in Q(i) for the remaining factor {factor}")


class InvalidProvidedEigenvalue(JordanFormError, ValueError):
    """A user-supplied eigenvalue failed validation against the matrix."""


class IncompleteSpectrum(JordanFormError, ValueError):
    """Eigenvalue multiplicities do not cover the full dimension."""


class NotAnEigenvalue(JordanFormError, ValueError):
    """A stage ladder was requested for a scalar with trivial eigenspace."""


class InternalInvariantViolation(JordanFormError, RuntimeError):
    """A structural identity that must hold by theorem failed; this is a bug."""


class InvalidStructure(JordanFormError, ValueError):
    """A block-structure description is malformed."""


class UsageError(JordanFormError, ValueError):
    """Bad command-line arguments."""
