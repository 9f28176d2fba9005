"""Sensor noise and the synthetic observer's error profile, which
scenario.ObserverSpec extends with the observer kind and the bias
observer's gains. kernel runs the observers: synthetic error injection and
a multiplicative complementary filter with gyro-bias estimation."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import check_finite, check_nonnegative, check_observer_bounds, freeze_arrays, freeze_floats


@dataclass(frozen=True)
class NoiseParams:
    """Sensor noise levels, all in SI radians.

    sigma_theta: std of the attitude measurement error angle (rad),
    sigma_u: gyro rate-noise std (rad/s),
    sigma_v: gyro bias random-walk intensity (rad/s^1.5),
    b0: initial gyro bias (rad/s).
    """

    sigma_theta: float = math.radians(0.01)
    sigma_u: float = 3e-6
    sigma_v: float = 1e-7
    b0: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        freeze_arrays(self, "b0")
        freeze_floats(self, "sigma_theta", "sigma_u", "sigma_v")
        check_nonnegative(self, "sigma_theta", "sigma_u", "sigma_v")
        if self.b0.shape != (3,):
            raise ValueError(f"b0 must be a 3-vector, got shape {self.b0.shape}")
        check_finite(self, "b0")


def random_unit_vector(rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(3)
    n = np.linalg.norm(v)
    while n < 1e-12:
        v = rng.standard_normal(3)
        n = np.linalg.norm(v)
    return v / n


# The synthetic errors' directions, made in the two steps that give the
# recorded traces their bits: scaling by 1/sqrt(3), then dividing by the
# norm (a no-op wherever that norm rounds to exactly 1.0).
AXIS_Q = np.array([1.0, 1.0, 1.0]) / math.sqrt(3)
AXIS_Q /= np.linalg.norm(AXIS_Q)
AXIS_W = np.array([1.0, -1.0, 1.0]) / math.sqrt(3)
AXIS_W /= np.linalg.norm(AXIS_W)


@dataclass(frozen=True)
class SyntheticErrorProfile:
    """Deterministic sinusoidal estimation errors within an ultimate-bound budget.

    qtilde_v(t) = amp_q*sin(freq_q*t + phase_q)*AXIS_Q (with qtilde_0 > 0) and
    omega_tilde(t) = amp_w*sin(freq_w*t + phase_w)*AXIS_W.
    """

    amp_q: float = 0.0
    amp_w: float = 0.0
    freq_q: float = 0.1
    freq_w: float = 0.13
    phase_q: float = 0.0
    phase_w: float = 0.7

    def __post_init__(self):
        freeze_floats(self, "amp_q", "amp_w", "freq_q", "freq_w", "phase_q", "phase_w")
        check_finite(self, "freq_q", "freq_w", "phase_q", "phase_w")
        try:  # the amplitudes bound the errors, so Assumption 1's rule holds them
            check_observer_bounds(self.amp_q, self.amp_w)
        except ValueError as exc:
            raise ValueError(f"(amp_q, amp_w) = ({self.amp_q}, {self.amp_w}): {exc}") from None

    def qtilde(self, t) -> np.ndarray:
        """(4,) error quaternion at a time, or (n, 4) on an array of n times."""
        amp = self.amp_q * np.sin(self.freq_q * np.asarray(t, dtype=float) + self.phase_q)
        v = amp[..., None] * AXIS_Q
        q0 = np.sqrt(np.maximum(0.0, 1.0 - np.sum(v * v, axis=-1)))
        return np.concatenate([q0[..., None], v], axis=-1)

    def omega_tilde(self, t) -> np.ndarray:
        """(3,) rate error at a time, or (n, 3) on an array of n times."""
        amp = self.amp_w * np.sin(self.freq_w * np.asarray(t, dtype=float) + self.phase_w)
        return amp[..., None] * AXIS_W
