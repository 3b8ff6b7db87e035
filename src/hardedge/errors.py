"""Exception types shared across the package."""


class HardedgeError(Exception):
    """Base class for all package errors."""


class CoincidentCoordinates(HardedgeError):
    """Two interacting coordinates are too close for the singular drift."""


class DomainError(HardedgeError):
    """Input violates a strict-ordering or positivity precondition."""


class StepFailure(HardedgeError):
    """Adaptive halving found no acceptable step: the proposal was still
    rejected after 40 halvings, at a sub-step of 2^-40 times its grid step."""

    def __init__(self, message, time=None):
        super().__init__(message)
        self.time = time


class EigensolveFailure(HardedgeError):
    """The dense eigensolver did not converge."""


class DegenerateKnots(HardedgeError):
    """All spline knots coincide; the spline is a point mass."""


class OrderTooHigh(HardedgeError):
    """Requested spline derivative order exceeds N-2."""


class NumericalInstability(HardedgeError):
    """A determinant evaluation is outside its stability envelope."""


class ParameterError(HardedgeError):
    """A parameter is outside its admissible range (e.g. eta <= -1)."""


class ConvergenceFailure(HardedgeError):
    """A special-function evaluation failed to converge."""


class EmptySample(HardedgeError):
    """A two-sample statistic received an empty sample."""


class ConfigError(HardedgeError):
    """A run configuration document is malformed or out of range."""
