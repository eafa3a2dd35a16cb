"""Exception hierarchy shared across the package.

Each class carries the CLI's process exit code as ``exit_code``, so
user-facing entry points should raise the most specific class that applies.
"""


class QContourError(Exception):
    """Base class for all package-specific errors."""
    exit_code = 1


class ModelFormatError(QContourError, ValueError):
    """A model or state file could not be read, parsed or written."""
    exit_code = 2


class ValidationError(QContourError, ValueError):
    """Numerical validation of an input failed."""
    exit_code = 3


class DimensionMismatchError(ValidationError):
    """Operands live in Hilbert spaces of different dimension."""


class ZeroNormalizationError(QContourError, ArithmeticError):
    """Every history consistent with the constraints carries zero weight,
    so relative measures are undefined."""
    exit_code = 4


class EnumerationGuardError(QContourError, RuntimeError):
    """A requested exhaustive enumeration exceeds the guard limit."""
    exit_code = 5
