"""Thruster-pair bank: health profiles and torque allocation."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import check_finite, freeze_arrays, freeze_floats

RANK_TOL = 1e-10


@dataclass(frozen=True)
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

    def __post_init__(self):
        if self.kind not in ("const", "sin", "cos", "abs_sin"):
            raise ValueError(f"unknown profile kind {self.kind!r}")
        check_finite(self, "offset", "scale", "freq", "phase")

    def __call__(self, t):
        """Value at a time (a float) or on an array of times (an array)."""
        t = np.asarray(t, dtype=float)
        if self.kind == "const":
            v = np.full(t.shape, self.offset, dtype=float)
        elif self.kind == "sin":
            v = self.offset + self.scale * np.sin(self.freq * t + self.phase)
        elif self.kind == "cos":
            v = self.offset + self.scale * np.cos(self.freq * t + self.phase)
        else:  # abs_sin
            v = self.offset + self.scale * np.abs(np.sin(self.freq * t + self.phase))
        v = np.clip(v, 0.0, 1.0)
        return float(v) if v.ndim == 0 else v


@dataclass(frozen=True)
class HealthProfile:
    """Per-pair health indicators e_i(t) in [0, 1]."""

    profiles: tuple[ProfileSpec, ...]

    def __post_init__(self):
        object.__setattr__(self, "profiles", tuple(self.profiles))

    def __call__(self, t) -> np.ndarray:
        """(m,) values at a time, or (n, m) on an array of n times."""
        return np.stack([np.asarray(p(t)) for p in self.profiles], axis=-1)

    @classmethod
    def healthy(cls, m: int) -> "HealthProfile":
        return cls([ProfileSpec() for _ in range(m)])


@dataclass(frozen=True)
class ActuatorBank:
    """Distribution matrix D (unit columns) and per-pair torque limit."""

    D: np.ndarray
    tau_max: float = field(default=np.inf)

    def __post_init__(self):
        freeze_arrays(self, "D")
        if self.D.ndim != 2 or self.D.shape[0] != 3 or self.D.shape[1] < 3:
            raise ValueError(f"D must be 3 x m with m >= 3, got shape {self.D.shape}")
        col_norms = np.linalg.norm(self.D, axis=0)
        if not np.all(np.abs(col_norms - 1.0) <= 1e-12):  # also rejects NaN
            raise ValueError("columns of D must be unit vectors")
        if np.linalg.matrix_rank(self.D) != 3:
            raise ValueError("D must have rank 3")
        freeze_floats(self, "tau_max")
        if not 0.0 < self.tau_max <= math.inf:
            raise ValueError(f"tau_max must be positive, got {self.tau_max!r}")

    @property
    def m(self) -> int:
        return self.D.shape[1]


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


def allocation_matrix(bank: ActuatorBank, e_hat: np.ndarray) -> np.ndarray:
    """m x 3 map u -> tau_u = Ehat^2 * D^T * (D*Ehat^3*D^T)^-1 * u: the
    fault-weighted pseudo-inverse, which minimizes tau_u^T * Ehat^-1 * tau_u
    subject to D*Ehat*tau_u = u, so dead pairs (e_hat_i = 0) receive zero
    command."""
    gram = _weighted_gram(bank, e_hat)
    if _singular(gram):
        raise ValueError("D*Ehat^3*D^T is singular; fully-actuated assumption violated")
    return (e_hat**2)[:, None] * bank.D.T @ np.linalg.inv(gram)
