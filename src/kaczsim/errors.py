"""Exception types shared across the package.

A run that stops short of tolerance is not an error: engine.run returns
its result, and RunResult.stop_reason says why it stopped.
"""


class KaczsimError(Exception):
    """Base class for all package errors."""


class DimensionError(KaczsimError):
    """Operand shapes are incompatible."""


class InvalidParameter(KaczsimError):
    """A scalar parameter violates its domain (e.g. lambda <= 0)."""


class DegenerateInstance(KaczsimError):
    """Requested problem instance would have no nonzero entries."""


class TooManyAgents(KaczsimError):
    """More agents than matrix rows."""


class IoError(KaczsimError):
    """Instance directory is missing or holds corrupt files."""


class InfeasibleTopology(KaczsimError):
    """Degree cap too small to connect the requested node count."""


class CorruptMessage(KaczsimError):
    """A state vector has the wrong dimension, or an initial estimate is not finite."""


class DelayBoundViolation(KaczsimError):
    """An observed delay stage exceeds the declared depth of a delayed graph."""


class InvalidBasis(KaczsimError):
    """Supplied row-space basis is not orthonormal."""
