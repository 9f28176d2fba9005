"""Gain, model-estimate, and uncertainty-budget containers, the observer
bounds of Assumption 1, and the checks of a 3x3 matrix input."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields

import numpy as np


ECHO_LIMIT = 200


def echo(value) -> str:
    """repr(value), cut to its first ECHO_LIMIT characters when longer: a
    message echoes a rejected value from a file whole only when it is short."""
    try:
        text = repr(value)
    except RecursionError:  # nested deeper than repr() reaches
        return f"a {type(value).__name__} nested too deeply to show"
    return text if len(text) <= ECHO_LIMIT else f"{text[:ECHO_LIMIT]}... ({len(text)} characters)"


def check_finite(obj, *names: str):
    """Raise a ValueError naming the first named field of obj that is not a
    finite number or an array of finite numbers."""
    for name in names:
        value = getattr(obj, name)
        if not (np.isfinite(value).all() if isinstance(value, np.ndarray) else math.isfinite(value)):
            raise ValueError(f"{name} must be finite, got {np.asarray(value).tolist()!r}")


def check_nonnegative(obj, *names: str):
    """Raise a ValueError naming the first named field of obj that is not a
    nonnegative finite number."""
    for name in names:
        if not 0.0 <= getattr(obj, name) < math.inf:
            raise ValueError(f"{name} must be nonnegative and finite, got {getattr(obj, name)!r}")


def to_float(name: str, value) -> float:
    """value as a Python float. A bool, a value that is not a real number or
    one beyond the float range raises a ValueError naming it."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an integer of hundreds of digits, not echoed back
        raise ValueError(f"{name} must be a real number within the float range, "
                         "got one too large for a float") from None


def freeze_floats(obj, *names: str):
    """Store each named field of a frozen dataclass as a Python float
    (to_float), so that the arithmetic on it runs on floats, not numpy scalars."""
    for name in names:
        object.__setattr__(obj, name, to_float(name, getattr(obj, name)))


def check_integer(name: str, value, minimum: int, bits: int | None = None) -> int:
    """value as an int. A bool, a value that is not an integer, one below
    minimum or, given bits, one not below 2**bits raises a ValueError naming
    it; a value of more than 20 digits is given by its digit count."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    value = shown = int(value)
    if abs(value) >= 10**20:
        sign = "a negative" if value < 0 else "an"
        # str() refuses more than 4300 digits; log10's count is off by at most one
        digits = int(math.log10(abs(value))) + 1
        digits += (abs(value) >= 10**digits) - (abs(value) < 10**(digits - 1))
        shown = f"{sign} integer of {digits} digits"
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {shown}")
    if bits is not None and value >= 2**bits:
        raise ValueError(f"{name} must be < 2**{bits}, got {shown}")
    return value


def freeze_arrays(obj, *names: str):
    """Store each named field of a frozen dataclass as a read-only float copy."""
    for name in names:
        object.__setattr__(obj, name, np.array(getattr(obj, name), dtype=float))
        getattr(obj, name).flags.writeable = False


def check_observer_bounds(rho_q: float, rho_w: float):
    """Raise a ValueError naming the Assumption 1 bound out of its range: rho_q
    on ||qtilde_v|| must be in [0, 1), rho_w on ||omega_tilde|| nonnegative."""
    if not 0.0 <= rho_q < 1.0:
        raise ValueError("rho_q must be in [0, 1)")
    if not 0.0 <= rho_w < math.inf:
        raise ValueError(f"rho_w must be nonnegative and finite, got {rho_w!r}")


@dataclass(frozen=True)
class ControllerGains:
    """Sliding-mode controller parameters.

    k: sliding-variable gain (1/s), K: 3x3 SPD feedback matrix,
    epsilon: boundary-layer width, gamma: robust-term margin.
    k, epsilon and gamma are stored as floats, and the eigenvalue extremes
    of K are computed once, at construction.
    """

    k: float
    K: np.ndarray
    epsilon: float
    gamma: float

    def __post_init__(self):
        freeze_arrays(self, "K")
        freeze_floats(self, "k", "epsilon", "gamma")
        eig = check_symmetric(self, "K")
        for name in ("k", "epsilon", "gamma"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {getattr(self, name)!r}")
        # any positive lambda_min(K) is valid here; a small one fails kappa > 0
        if eig[0] <= 0:
            raise ValueError("K must be positive definite")
        object.__setattr__(self, "_lambda_K", (float(eig[0]), float(eig[-1])))

    @property
    def lambda_min_K(self) -> float:
        return self._lambda_K[0]

    @property
    def lambda_max_K(self) -> float:
        return self._lambda_K[1]


def check_symmetric(obj, name: str) -> np.ndarray:
    """Raise a ValueError naming the field of obj that is not a finite,
    symmetric 3x3 matrix; return its eigenvalues, ascending."""
    a = getattr(obj, name)
    if a.shape != (3, 3):
        raise ValueError(f"{name} must be 3x3, got shape {a.shape}")
    check_finite(obj, name)
    if np.linalg.norm(a - a.T, 2) > 1e-12:
        raise ValueError(f"{name} must be symmetric")
    return np.linalg.eigvalsh(a)


def check_inertia(obj, name: str) -> np.ndarray:
    """check_symmetric, and a ValueError unless the field is positive
    definite; return its eigenvalues, ascending."""
    eig = check_symmetric(obj, name)
    if eig[0] <= 1e-12:
        raise ValueError(f"{name} must be positive definite")
    return eig


@dataclass(frozen=True)
class ModelEstimates:
    """Inertia and disturbance estimates used by the controller. Construction
    also sets J_hat_norm, not a field: ||J_hat|| = lambda_max(J_hat)."""

    J_hat: np.ndarray
    tau_d_hat: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        freeze_arrays(self, "J_hat", "tau_d_hat")
        eig = check_inertia(self, "J_hat")
        if self.tau_d_hat.shape != (3,):
            raise ValueError(f"tau_d_hat must be a 3-vector, got shape {self.tau_d_hat.shape}")
        check_finite(self, "tau_d_hat")
        object.__setattr__(self, "J_hat_norm", float(eig[-1]))


@dataclass(frozen=True)
class UncertaintyBudget:
    """Known bounds on all system uncertainties.

    rho_q / rho_w bound the estimation errors, rho_J / rho_d / rho_d_hat the
    model errors, lambda_l / lambda_r the true inertia eigenvalues,
    rho_v / rho_a the reference motion, and rho_E the actuator-fault
    mismatch operator.  J_hat_norm is the 2-norm of the inertia estimate.
    """

    rho_q: float
    rho_w: float
    rho_J: float
    rho_d: float
    rho_d_hat: float
    lambda_l: float
    lambda_r: float
    rho_v: float
    rho_a: float
    rho_E: float
    J_hat_norm: float

    def __post_init__(self):
        freeze_floats(self, *(f.name for f in fields(self)))
        check_observer_bounds(self.rho_q, self.rho_w)
        if not 0.0 <= self.rho_E < 1.0:
            raise ValueError("rho_E must be in [0, 1)")
        if not 0.0 < self.lambda_l <= self.lambda_r < math.inf:
            raise ValueError(f"need 0 < lambda_l <= lambda_r < inf, got lambda_l = "
                             f"{self.lambda_l!r} and lambda_r = {self.lambda_r!r}")
        check_nonnegative(self, "rho_J", "rho_d", "rho_d_hat", "rho_v", "rho_a", "J_hat_norm")


def zero_budget(J_hat_norm: float, lambda_l: float, lambda_r: float) -> UncertaintyBudget:
    """Budget with every uncertainty bound set to zero."""
    return UncertaintyBudget(
        rho_q=0.0,
        rho_w=0.0,
        rho_J=0.0,
        rho_d=0.0,
        rho_d_hat=0.0,
        lambda_l=lambda_l,
        lambda_r=lambda_r,
        rho_v=0.0,
        rho_a=0.0,
        rho_E=0.0,
        J_hat_norm=J_hat_norm,
    )
