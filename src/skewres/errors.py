"""Exception types shared across the package.

Everything raised on purpose derives from SkewresError and sits under
exactly one of three kinds:

- InvalidInput: the caller's input is malformed or outside the domain of the
  operation (a syntax error, a zero polynomial, a non-square matrix). It is
  also a ValueError, so `except ValueError` keeps working.
- HypothesisViolation: the input is well formed but breaks a mathematical
  hypothesis of the operation (a non-commuting evaluation point, a singular
  system where an invertible one is required).
- InternalRealityViolation: a self-check failed, so the package itself is at
  fault.

The CLI maps them to exit codes 1, 2 and 3; with --debug the third
propagates as a traceback.
"""


class SkewresError(Exception):
    """Base class for all deliberate failures."""


class InvalidInput(SkewresError, ValueError):
    """Malformed input, or input outside the operation's domain."""


class HypothesisViolation(SkewresError):
    """Well-formed input that breaks a hypothesis of the operation."""


class InternalRealityViolation(SkewresError):
    """A value that must hold by construction did not: an internal fault."""


class DivisionByZero(InvalidInput):
    """Multiplicative inverse of zero requested."""


class NotRationallyNormalizable(InvalidInput):
    """Imaginary part has no rational norm, so no rational unit exists."""


class RealArgument(InvalidInput):
    """A real quaternion has no associated imaginary unit or sphere axis."""


class ZeroPolynomial(InvalidInput):
    """Operation requires a nonzero polynomial."""


class DegreeTooLow(InvalidInput):
    """Polynomial degree too small for the requested operation."""


class NonSquare(InvalidInput):
    """Determinant of a non-square matrix requested."""


class DimensionMismatch(InvalidInput):
    """Matrix/vector shapes are incompatible."""


class IndexOutOfRange(InvalidInput):
    """Row or column index outside the matrix."""


class SingularSystem(HypothesisViolation):
    """Linear system has no unique solution."""


class NonCommutingPoint(HypothesisViolation):
    """Two-variable evaluation point (a, b) with ab != ba."""


class MixedVariableError(InvalidInput):
    """Expression mixes the one-variable and two-variable indeterminates."""


class ExprSyntaxError(InvalidInput):
    """Parse failure, carrying the byte offset and the expected token set."""

    def __init__(self, message: str, offset: int, expected: tuple[str, ...] = ()):
        super().__init__(message)
        self.offset = offset
        self.expected = expected

    def __str__(self) -> str:
        base = super().__str__()
        if self.expected:
            return f"{base} at offset {self.offset} (expected {', '.join(self.expected)})"
        return f"{base} at offset {self.offset}"


class OutputTooLong(InvalidInput):
    """A number to print has more digits than Python converts to text."""


class SchemaError(InvalidInput):
    """JSON document does not match the published schema."""
