"""Exception types shared across the package."""


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


class NoConvergence(KaczsimError):
    """Simulation exhausted its budget before reaching tolerance.

    Carries the final error and the full run result so callers (sweeps,
    metrics collection) can still inspect the terminal state.
    """

    def __init__(self, final_error, result=None):
        super().__init__(f"no convergence, final error {final_error:.6g}")
        self.final_error = final_error
        self.result = result


class DelayBoundViolation(KaczsimError):
    """An observed delay stage exceeds the declared depth of a delayed graph."""


class InvalidBasis(KaczsimError):
    """Supplied row-space basis is not orthonormal."""
