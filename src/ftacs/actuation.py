"""Thruster-pair bank: health profiles, torque allocation, and the
fault-mismatch operator H."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import RankDeficient
from .so3 import spectral_norm

RANK_TOL = 1e-10


@dataclass
class ProfileSpec:
    """Closed-form scalar time profile, clamped to [0, 1].

    kinds: "const" -> offset; "sin"/"cos" -> offset + scale*trig(freq*t + phase);
    "abs_sin" -> offset + scale*|sin(freq*t + phase)|.
    """

    kind: str = "const"
    offset: float = 1.0
    scale: float = 0.0
    freq: float = 1.0
    phase: float = 0.0

    def __call__(self, t):
        """Value at a time (a float) or on an array of times (an array)."""
        t = np.asarray(t, dtype=float)
        if self.kind == "const":
            v = np.full(t.shape, self.offset, dtype=float)
        elif self.kind == "sin":
            v = self.offset + self.scale * np.sin(self.freq * t + self.phase)
        elif self.kind == "cos":
            v = self.offset + self.scale * np.cos(self.freq * t + self.phase)
        elif self.kind == "abs_sin":
            v = self.offset + self.scale * np.abs(np.sin(self.freq * t + self.phase))
        else:
            raise ValueError(f"unknown profile kind {self.kind!r}")
        v = np.clip(v, 0.0, 1.0)
        return float(v) if v.ndim == 0 else v


@dataclass
class HealthProfile:
    """Per-pair health indicators e_i(t) in [0, 1]."""

    profiles: list[ProfileSpec]

    def __call__(self, t) -> np.ndarray:
        """(m,) values at a time, or (n, m) on an array of n times."""
        return np.stack([np.asarray(p(t)) for p in self.profiles], axis=-1)

    @classmethod
    def healthy(cls, m: int) -> "HealthProfile":
        return cls([ProfileSpec() for _ in range(m)])


@dataclass
class ActuatorBank:
    """Distribution matrix D (unit columns) and per-pair torque limit."""

    D: np.ndarray
    tau_max: float = field(default=np.inf)

    def __post_init__(self):
        self.D = np.asarray(self.D, dtype=float)
        if self.D.shape[0] != 3 or self.D.shape[1] < 3:
            raise ValueError("D must be 3 x m with m >= 3")
        col_norms = np.linalg.norm(self.D, axis=0)
        if np.any(np.abs(col_norms - 1.0) > 1e-12):
            raise ValueError("columns of D must be unit vectors")
        if np.linalg.matrix_rank(self.D) != 3:
            raise ValueError("D must have rank 3")

    @property
    def m(self) -> int:
        return self.D.shape[1]


def effective_torque(bank: ActuatorBank, e_vals: np.ndarray, tau_u: np.ndarray) -> np.ndarray:
    """Realized body torque tau_c = D * E * tau_u."""
    return bank.D @ (e_vals * tau_u)


def _weighted_gram(bank: ActuatorBank, e_hat: np.ndarray) -> np.ndarray:
    """D * Ehat^3 * D^T of an (m,) estimate, or of each row of a (k, m) array."""
    return (bank.D * e_hat[..., None, :] ** 3) @ bank.D.T


def _singular(gram: np.ndarray) -> np.ndarray:
    sv = np.linalg.svd(gram, compute_uv=False)
    return (sv[..., -1] <= RANK_TOL * sv[..., 0]) | (sv[..., 0] == 0.0)


def rank_deficient(bank: ActuatorBank, e_hat: np.ndarray) -> np.ndarray:
    """Whether rank(D * Ehat) < 3, judged as allocation judges it: D * Ehat^3
    * D^T singular to RANK_TOL. For an (m,) estimate or each row of (k, m)."""
    return _singular(_weighted_gram(bank, e_hat))


def _weighted_gram_inverse(bank: ActuatorBank, e_hat: np.ndarray) -> np.ndarray:
    """Inverse of D * Ehat^3 * D^T with a singularity check."""
    gram = _weighted_gram(bank, e_hat)
    if _singular(gram):
        raise RankDeficient("D*Ehat^3*D^T is singular; fully-actuated assumption violated")
    return np.linalg.inv(gram)


def allocation_matrix(bank: ActuatorBank, e_hat: np.ndarray) -> np.ndarray:
    """m x 3 map u -> tau_u = Ehat^2 * D^T * (D*Ehat^3*D^T)^-1 * u."""
    return (e_hat**2)[:, None] * bank.D.T @ _weighted_gram_inverse(bank, e_hat)


def allocate(bank: ActuatorBank, e_hat: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Fault-weighted pseudo-inverse allocation of the virtual torque u.

    Minimizes tau_u^T * Ehat^-1 * tau_u subject to D*Ehat*tau_u = u, so dead
    pairs (e_hat_i = 0) receive zero command.
    """
    return allocation_matrix(bank, e_hat) @ u


def saturate(tau_u: np.ndarray, tau_max: float) -> np.ndarray:
    """Componentwise clamp to [-tau_max, tau_max]."""
    return np.clip(tau_u, -tau_max, tau_max)


def h_matrix(bank: ActuatorBank, e_vals: np.ndarray, e_hat: np.ndarray) -> np.ndarray:
    """Fault-mismatch operator H = D*(E-Ehat)*Ehat^2*D^T*(D*Ehat^3*D^T)^-1."""
    return (bank.D * ((e_vals - e_hat) * e_hat**2)) @ bank.D.T @ _weighted_gram_inverse(bank, e_hat)


def rho_E_estimate(
    bank: ActuatorBank,
    profile: HealthProfile,
    estimate: HealthProfile,
    t_grid: np.ndarray,
) -> float:
    """Max spectral norm of H(t) over a time grid."""
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.size == 0:
        raise ValueError("t_grid must be nonempty")
    return max(spectral_norm(h_matrix(bank, profile(t), estimate(t))) for t in t_grid)
