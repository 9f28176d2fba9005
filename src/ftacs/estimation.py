"""Sensor models, the bounded-estimation-error observer contract, and two
reference observers (synthetic error injection and a multiplicative
complementary filter with gyro-bias estimation)."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dynamics import SpacecraftState, attitude_kinematics
from .errors import BudgetViolation, EmptyTail
from .so3 import normalize, quat_from_axis_angle, quat_inv, quat_mul


@dataclass
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
        self.b0 = np.asarray(self.b0, dtype=float)


@dataclass
class SensorSample:
    qm: np.ndarray
    omega_m: np.ndarray


@dataclass
class ObserverOutput:
    q_hat: np.ndarray
    omega_hat: np.ndarray


@dataclass
class Assumption1Budget:
    """Ultimate bounds on the observer errors: ||qtilde_v|| and ||omega_tilde||."""

    rho_q: float
    rho_w: float

    def __post_init__(self):
        if not 0.0 <= self.rho_q < 1.0:
            raise ValueError("rho_q must be in [0, 1)")
        if self.rho_w < 0:
            raise ValueError("rho_w must be nonnegative")


def random_unit_vector(rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(3)
    n = np.linalg.norm(v)
    while n < 1e-12:
        v = rng.standard_normal(3)
        n = np.linalg.norm(v)
    return v / n


def sensor_sample(
    truth: SpacecraftState,
    bias: np.ndarray,
    noise: NoiseParams,
    rng: np.random.Generator,
    dt: float,
) -> tuple[SensorSample, np.ndarray]:
    """One attitude + gyro measurement and the propagated gyro bias.

    q_m = q (x) qtilde_m^-1 with the error angle ~ N(0, sigma_theta^2) about a
    uniformly random axis; omega_m = omega + b + eta_u; the bias performs a
    random walk with per-step variance sigma_v^2 * dt.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    theta_m = noise.sigma_theta * rng.standard_normal()
    qtilde_m = quat_from_axis_angle(random_unit_vector(rng), theta_m)
    qm = quat_mul(truth.q, quat_inv(qtilde_m))
    omega_m = truth.omega + bias + noise.sigma_u * rng.standard_normal(3)
    bias_new = bias + noise.sigma_v * math.sqrt(dt) * rng.standard_normal(3)
    return SensorSample(qm=qm, omega_m=omega_m), bias_new


@dataclass
class SyntheticErrorProfile:
    """Deterministic sinusoidal estimation errors within an ultimate-bound budget.

    qtilde_v(t) = amp_q*sin(freq_q*t + phase_q)*axis_q (with qtilde_0 > 0) and
    omega_tilde(t) = amp_w*sin(freq_w*t + phase_w)*axis_w.
    """

    amp_q: float = 0.0
    amp_w: float = 0.0
    freq_q: float = 0.1
    freq_w: float = 0.13
    phase_q: float = 0.0
    phase_w: float = 0.7
    axis_q: np.ndarray = field(default_factory=lambda: np.array([1.0, 1.0, 1.0]) / math.sqrt(3))
    axis_w: np.ndarray = field(default_factory=lambda: np.array([1.0, -1.0, 1.0]) / math.sqrt(3))

    def __post_init__(self):
        self.axis_q = np.asarray(self.axis_q, dtype=float)
        self.axis_w = np.asarray(self.axis_w, dtype=float)
        self.axis_q /= np.linalg.norm(self.axis_q)
        self.axis_w /= np.linalg.norm(self.axis_w)
        if not 0.0 <= self.amp_q < 1.0:
            raise ValueError("amp_q must be in [0, 1)")
        if self.amp_w < 0:
            raise ValueError("amp_w must be nonnegative")

    @classmethod
    def at_budget(cls, budget: Assumption1Budget, **kwargs) -> "SyntheticErrorProfile":
        return cls(amp_q=budget.rho_q, amp_w=budget.rho_w, **kwargs)

    def check_budget(self, budget: Assumption1Budget):
        if self.amp_q > budget.rho_q or self.amp_w > budget.rho_w:
            raise BudgetViolation(
                f"profile amplitudes ({self.amp_q}, {self.amp_w}) exceed "
                f"budget ({budget.rho_q}, {budget.rho_w})"
            )

    def qtilde(self, t) -> np.ndarray:
        """(4,) error quaternion at a time, or (n, 4) on an array of n times."""
        amp = self.amp_q * np.sin(self.freq_q * np.asarray(t, dtype=float) + self.phase_q)
        v = amp[..., None] * self.axis_q
        q0 = np.sqrt(np.maximum(0.0, 1.0 - np.sum(v * v, axis=-1)))
        return np.concatenate([q0[..., None], v], axis=-1)

    def omega_tilde(self, t) -> np.ndarray:
        """(3,) rate error at a time, or (n, 3) on an array of n times."""
        amp = self.amp_w * np.sin(self.freq_w * np.asarray(t, dtype=float) + self.phase_w)
        return amp[..., None] * self.axis_w


def synthetic_observer(
    truth: SpacecraftState,
    profile: SyntheticErrorProfile,
    t: float,
    budget: Assumption1Budget | None = None,
) -> ObserverOutput:
    """Emit q_hat = q (x) qtilde(t)^-1 and omega_hat = omega + omega_tilde(t)."""
    if budget is not None:
        profile.check_budget(budget)
    return ObserverOutput(
        q_hat=quat_mul(truth.q, quat_inv(profile.qtilde(t))),
        omega_hat=truth.omega + profile.omega_tilde(t),
    )


def estimation_error(q_hat: np.ndarray, q: np.ndarray) -> np.ndarray:
    """qtilde = q_hat^-1 (x) q with the sign fixed so qtilde_0 >= 0."""
    qt = quat_mul(quat_inv(q_hat), q)
    return qt if qt[0] >= 0 else -qt


def _sign(x: float) -> float:
    return -1.0 if x < 0 else 1.0


def bias_observer_step(
    q_hat: np.ndarray,
    b_hat: np.ndarray,
    sample: SensorSample,
    k_o: float,
    k_b: float,
    dt: float,
) -> tuple[np.ndarray, np.ndarray, ObserverOutput]:
    """Multiplicative complementary observer with gyro-bias estimation.

    Propagates q_hat with the bias-corrected rate plus a quaternion-error
    correction and integrates the bias estimate against the same error.
    """
    if k_o <= 0 or k_b <= 0 or dt <= 0:
        raise ValueError("gains and dt must be positive")
    q_bar = quat_mul(quat_inv(q_hat), sample.qm)
    sgn = _sign(q_bar[0])
    omega_c = (sample.omega_m - b_hat) + k_o * sgn * q_bar[1:]

    # one RK4 step of the kinematics at constant omega_c
    k1 = attitude_kinematics(q_hat, omega_c)
    k2 = attitude_kinematics(q_hat + 0.5 * dt * k1, omega_c)
    k3 = attitude_kinematics(q_hat + 0.5 * dt * k2, omega_c)
    k4 = attitude_kinematics(q_hat + dt * k3, omega_c)
    q_hat_new = normalize(q_hat + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4))

    b_hat_new = b_hat - k_b * sgn * q_bar[1:] * dt
    out = ObserverOutput(q_hat=q_hat_new, omega_hat=sample.omega_m - b_hat_new)
    return q_hat_new, b_hat_new, out


def estimate_assumption1_bounds(
    traces: list[tuple[np.ndarray, np.ndarray]],
    tail_fraction: float = 0.2,
) -> Assumption1Budget:
    """Empirical (rho_q, rho_w): max of the error norms over each trace tail."""
    if not traces:
        raise EmptyTail("no traces supplied")
    rho_q = 0.0
    rho_w = 0.0
    for qtilde_norm, wtilde_norm in traces:
        n = len(qtilde_norm)
        start = n - max(1, int(round(tail_fraction * n)))
        if n == 0 or start >= n:
            raise EmptyTail("tail window has no samples")
        rho_q = max(rho_q, float(np.max(qtilde_norm[start:])))
        rho_w = max(rho_w, float(np.max(wtilde_norm[start:])))
    return Assumption1Budget(rho_q=rho_q, rho_w=rho_w)
