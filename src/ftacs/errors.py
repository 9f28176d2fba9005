"""Exception types shared across the package.

Invalid input raises a ValueError. An FtacsError means that valid input
broke one of the paper's promises: the state stays finite, the gain
conditions hold, the bound sequence contracts, and the closed loop stays
inside the predicted envelope.
"""


class FtacsError(Exception):
    """Base class of the failed promises."""


class NonFiniteState(FtacsError):
    """A state component became NaN or infinite during propagation."""


class GainConditionViolated(FtacsError):
    """kappa <= 0 or epsilon <= rho_s; a stability gain condition fails."""


class NotContractive(FtacsError):
    """First fixed-point iterate q1 >= 1; the bound sequence cannot contract."""


class BoundViolated(FtacsError):
    """A simulated tail statistic exceeded its predicted bound."""
