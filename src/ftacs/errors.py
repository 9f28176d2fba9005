"""Exception types shared across the package."""


class FtacsError(Exception):
    """Base class for all package errors."""


class SingularInertia(FtacsError):
    """Inertia matrix is not invertible at the working tolerance."""


class NonFiniteState(FtacsError):
    """A state component became NaN or infinite during propagation."""


class RankDeficient(FtacsError):
    """D*Ehat^3*D^T lost rank; the fully-actuated assumption is violated."""


class EmptyTail(FtacsError):
    """Requested tail window contains no samples."""


class GainConditionViolated(FtacsError):
    """kappa <= 0 or epsilon <= rho_s; a stability gain condition fails."""


class NotContractive(FtacsError):
    """First fixed-point iterate q1 >= 1; the bound sequence cannot contract."""


class BoundViolated(FtacsError):
    """A simulated tail statistic exceeded its predicted bound."""
