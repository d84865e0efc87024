"""Exception types raised across the package."""


class ConingKitError(Exception):
    """Base class for all errors raised by this package."""


class NotSkewSymmetric(ConingKitError):
    """Matrix handed to ``vee`` is not skew-symmetric within tolerance."""


class NearPiRotation(ConingKitError):
    """Log map requested for a rotation whose angle is too close to pi."""


class NotNearOrthogonal(ConingKitError):
    """Matrix is too far from SO(3) to project, or the projection failed."""


class AngleOutOfDomain(ConingKitError):
    """Rotation angle outside the domain of the inverse right-Jacobian."""


class StageEvaluationError(ConingKitError):
    """ODE right-hand side raised inside a Runge-Kutta stage.

    The failing stage index (0-based) and evaluation time are recorded; the
    original exception is attached as ``__cause__``.  The time is stored and
    printed as a Python float, whatever numeric type it was computed in.
    """

    def __init__(self, stage: int, time: float, message: str = ""):
        self.stage = stage
        self.time = float(time)
        detail = message or "right-hand side evaluation failed"
        super().__init__(f"stage {stage} at t={self.time!r}: {detail}")


class NonFiniteIncrement(ConingKitError, ValueError):
    """An increment the array engine read, or a correction, is not finite."""


class DegenerateStep(ConingKitError):
    """Measurement window has a non-positive step interval."""


class SingularSystem(ConingKitError):
    """Rate-model design matrix is numerically singular."""


class EmptyWindow(ConingKitError):
    """Two-speed correction called with no increments."""


class NoConvergence(ConingKitError):
    """Step-doubling refinement failed to reach the requested tolerance."""


class ConfigError(ConingKitError):
    """Invalid sweep or CLI configuration."""


class InsufficientData(ConingKitError):
    """Not enough usable records to fit a convergence order."""
