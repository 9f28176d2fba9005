"""Closed-form signals, thruster-pair health profiles, the thruster bank and
torque allocation. SignalSpec is the one closed-form time profile: the
scenario's reference rates and disturbances and each pair's health indicator
are made of it."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import check_finite, echo, freeze_arrays, freeze_floats

RANK_TOL = 1e-10


@dataclass(frozen=True)
class SignalSpec:
    """Closed-form scalar signal with an analytic derivative.

    kinds: "const" -> offset; "sin"/"cos" -> offset + scale*trig(freq*t + phase);
    "abs_sin" -> offset + scale*|sin(freq*t + phase)|.
    """

    kind: str
    offset: float
    scale: float = 0.0
    freq: float = 1.0
    phase: float = 0.0

    def __post_init__(self):
        if self.kind not in ("const", "sin", "cos", "abs_sin"):
            raise ValueError(f"unknown signal kind {echo(self.kind)}")
        freeze_floats(self, "offset", "scale", "freq", "phase")
        check_finite(self, "offset", "scale", "freq", "phase")

    def __call__(self, t):
        """Value at a time, or on an array of times."""
        t = np.asarray(t, dtype=float)
        if self.kind == "const":
            return self.offset + np.zeros_like(t)
        x = self.freq * t + self.phase
        if self.kind == "sin":
            return self.offset + self.scale * np.sin(x)
        if self.kind == "cos":
            return self.offset + self.scale * np.cos(x)
        return self.offset + self.scale * np.abs(np.sin(x))

    def derivative(self, t):
        """Time derivative; abs_sin's is scale*freq*sign(sin x)*cos x, which
        is 0 at its kinks, where sin x = 0."""
        t = np.asarray(t, dtype=float)
        if self.kind == "const":
            return np.zeros_like(t)
        x = self.freq * t + self.phase
        if self.kind == "sin":
            return self.scale * self.freq * np.cos(x)
        if self.kind == "cos":
            return -self.scale * self.freq * np.sin(x)
        return self.scale * self.freq * np.sign(np.sin(x)) * np.cos(x)


@dataclass(frozen=True)
class HealthProfile:
    """Per-pair health indicators e_i(t), each a SignalSpec clamped to [0, 1]."""

    profiles: tuple[SignalSpec, ...]

    def __post_init__(self):
        object.__setattr__(self, "profiles", tuple(self.profiles))

    def __call__(self, t) -> np.ndarray:
        """(m,) values at a time, or (n, m) on an array of n times."""
        return np.clip(np.stack([p(t) for p in self.profiles], axis=-1), 0.0, 1.0)

    @classmethod
    def healthy(cls, m: int) -> "HealthProfile":
        return cls([SignalSpec("const", 1.0)] * m)


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
