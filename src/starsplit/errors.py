"""Exception hierarchy and the default tolerance shared across the package.

Imports nothing, so that every module, and a CLI call that needs no
numerics, can load it.
"""

# the default tolerance of every residual check and flag
DEFAULT_TOL = 1e-10


class StarsplitError(Exception):
    """Base class for all package errors."""


class InputError(StarsplitError, ValueError):
    """Invalid user-supplied data: bad dimensions, malformed files or
    expressions, non-positive metrics, unknown names, out-of-range values."""


class DimensionMismatchError(InputError):
    """Forms or matrices over coframes of different dimension were combined."""


class UnboundParameterError(InputError):
    """A structure-constant expression references a parameter with no value."""


class ExpressionError(InputError):
    """A coefficient expression could not be parsed."""


class AlgebraError(StarsplitError):
    """Internal consistency failure (e.g. a scalar that must be real comes
    out complex beyond tolerance).  Signals a bug, not bad input."""
