"""Numpy reference of the closed loop, one function per equation.

The package runs the closed loop on Python floats (ftacs.kernel). The
functions here state the same math on numpy arrays: quaternion algebra, the
rigid-body plant and its RK4 step, the tracking-error coordinates and the
sliding-variable flow, the sensors and observers, the allocation and the
control law. The tests check them against the paper's identities and hold
the kernel to them (test_kernel.py). The bound prediction has its reference
here too, which test_bounds.py holds ftacs.bounds to.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ftacs.actuation import ActuatorBank, allocation_matrix
from ftacs.bounds import (
    ETA,
    BoundCoefficients,
    BoundTrace,
    PhiFn,
    RobustCoefficients,
    epsilon_condition,
    rho_zero,
)
from ftacs.config import ControllerGains, ModelEstimates, UncertaintyBudget
from ftacs.controller import GainCheckReport
from ftacs.errors import GainConditionViolated, NonFiniteState, NotContractive
from ftacs.estimation import (
    NoiseParams,
    SyntheticErrorProfile,
    random_unit_vector,
)

# ---------------------------------------------------------------------------
# quaternion and 3x3 matrix algebra (scalar-first, Hamilton product)

IDENTITY_QUAT = np.array([1.0, 0.0, 0.0, 0.0])


def normalize(q: np.ndarray) -> np.ndarray:
    """Rescale a 4-vector to unit norm."""
    q = np.asarray(q, dtype=float)
    n = math.sqrt(q[0] * q[0] + q[1] * q[1] + q[2] * q[2] + q[3] * q[3])
    return q / n


def quat_from_axis_angle(axis: np.ndarray, angle: float) -> np.ndarray:
    """Unit quaternion [cos(angle/2), axis*sin(angle/2)] for a unit axis."""
    h = 0.5 * angle
    return normalize(np.concatenate([[math.cos(h)], math.sin(h) * np.asarray(axis, dtype=float)]))


def spectral_norm(a: np.ndarray) -> float:
    """Matrix 2-norm (largest singular value)."""
    return float(np.linalg.norm(a, 2))


def quat_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamilton product a (x) b, renormalized."""
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    return normalize(
        np.array(
            [
                a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
                a0 * b1 + b0 * a1 + a2 * b3 - a3 * b2,
                a0 * b2 + b0 * a2 + a3 * b1 - a1 * b3,
                a0 * b3 + b0 * a3 + a1 * b2 - a2 * b1,
            ]
        )
    )


def quat_inv(q: np.ndarray) -> np.ndarray:
    """Inverse [q0, -qv] of a unit quaternion."""
    return np.array([q[0], -q[1], -q[2], -q[3]])


def skew(v: np.ndarray) -> np.ndarray:
    """Skew-symmetric matrix such that skew(v) @ w == cross(v, w)."""
    return np.array(
        [
            [0.0, -v[2], v[1]],
            [v[2], 0.0, -v[0]],
            [-v[1], v[0], 0.0],
        ]
    )


def rotation_matrix(q: np.ndarray) -> np.ndarray:
    """Rotation matrix I - 2*q0*qv^x + 2*qv^x*qv^x of a unit quaternion."""
    qx = skew(q[1:])
    return np.eye(3) - 2.0 * q[0] * qx + 2.0 * (qx @ qx)


def g_matrix(q: np.ndarray) -> np.ndarray:
    """G(q) = q0*I3 + qv^x appearing in the kinematics."""
    return q[0] * np.eye(3) + skew(q[1:])


def error_matrices(qt: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """M (4x4) and E (3x4) such that q_e (x) qt^-1 = q_e + M(qt) q_e.

    Both satisfy ||M|| = ||E|| = sqrt(2*(1 - qt0)).
    """
    q0 = qt[0]
    qv = qt[1:]
    lower = (q0 - 1.0) * np.eye(3) + skew(qv)
    m = np.empty((4, 4))
    m[0, 0] = q0 - 1.0
    m[0, 1:] = qv
    m[1:, 0] = -qv
    m[1:, 1:] = lower
    e = np.hstack([-qv.reshape(3, 1), lower])
    return m, e


def principal_angle(q: np.ndarray) -> float:
    """Principal rotation angle 2*acos(|q0|) in [0, pi]."""
    return 2.0 * math.acos(min(abs(q[0]), 1.0))


# ---------------------------------------------------------------------------
# rigid-body plant, tracking-error coordinates and RK4 stepping


@dataclass
class SpacecraftState:
    """Body attitude quaternion (vs inertial) and body-frame rate."""

    q: np.ndarray
    omega: np.ndarray

    def __post_init__(self):
        self.q = normalize(np.asarray(self.q, dtype=float))
        self.omega = np.asarray(self.omega, dtype=float)


@dataclass
class DesiredState:
    """Reference attitude, rate, and rate derivative at one instant."""

    qd: np.ndarray
    omega_d: np.ndarray
    omega_d_dot: np.ndarray

    def __post_init__(self):
        self.qd = normalize(np.asarray(self.qd, dtype=float))
        self.omega_d = np.asarray(self.omega_d, dtype=float)
        self.omega_d_dot = np.asarray(self.omega_d_dot, dtype=float)


@dataclass
class TrackingError:
    """Error coordinates q_e, omega_e and the sliding variable s."""

    qe: np.ndarray
    omega_e: np.ndarray
    omega_bar_d: np.ndarray
    s: np.ndarray


def attitude_kinematics(q: np.ndarray, omega: np.ndarray) -> np.ndarray:
    """Quaternion derivative qdot = 0.5*[-qv^T; G(q)]*omega."""
    qv = q[1:]
    return 0.5 * np.concatenate([[-qv @ omega], g_matrix(q) @ omega])


def euler_dynamics(
    J: np.ndarray,
    omega: np.ndarray,
    tau_c: np.ndarray,
    tau_d: np.ndarray,
    J_inv: np.ndarray | None = None,
) -> np.ndarray:
    """Rate derivative J^-1 * (-omega x J*omega + tau_c + tau_d)."""
    if J_inv is None:
        J_inv = np.linalg.inv(J)
    return J_inv @ (-np.cross(omega, J @ omega) + tau_c + tau_d)


def tracking_errors(state: SpacecraftState, desired: DesiredState, k: float) -> TrackingError:
    """q_e = q_d^-1 (x) q, omega_e = omega - R(q_e)*omega_d, s = omega_e + k*q_e,vec."""
    if k <= 0:
        raise ValueError("k must be positive")
    qe = quat_mul(quat_inv(desired.qd), state.q)
    omega_bar_d = rotation_matrix(qe) @ desired.omega_d
    omega_e = state.omega - omega_bar_d
    return TrackingError(qe=qe, omega_e=omega_e, omega_bar_d=omega_bar_d, s=omega_e + k * qe[1:])


def xi_matrix(J: np.ndarray, omega_e: np.ndarray, omega_bar_d: np.ndarray) -> np.ndarray:
    """(J*(omega_e + omega_bar_d))^x - omega_bar_d^x*J - J*omega_bar_d^x."""
    wbx = skew(omega_bar_d)
    return skew(J @ (omega_e + omega_bar_d)) - wbx @ J - J @ wbx


def psi_terms(
    J: np.ndarray, err: TrackingError, desired: DesiredState, k: float
) -> tuple[np.ndarray, np.ndarray]:
    """Composite feedforward terms of the sliding-variable dynamics."""
    qe_v = err.qe[1:]
    qx = skew(qe_v)
    psi = (
        -0.5 * k * k * (qx @ (J @ qe_v))
        + 0.5 * k * (g_matrix(err.qe) @ (J @ err.omega_e))
        - k * (xi_matrix(J, np.zeros(3), err.omega_bar_d) @ qe_v)
    )
    psi_d = np.cross(err.omega_bar_d, J @ err.omega_bar_d) + J @ (
        rotation_matrix(err.qe) @ desired.omega_d_dot
    )
    return psi, psi_d


def s_dot_rhs(
    J: np.ndarray,
    err: TrackingError,
    desired: DesiredState,
    k: float,
    tau_c: np.ndarray,
    tau_d: np.ndarray,
    J_inv: np.ndarray | None = None,
) -> np.ndarray:
    """Analytic sdot from the closed-form sliding-variable dynamics."""
    if J_inv is None:
        J_inv = np.linalg.inv(J)
    qx = skew(err.qe[1:])
    psi, psi_d = psi_terms(J, err, desired, k)
    js_dot = (
        xi_matrix(J, err.omega_e, err.omega_bar_d) @ err.s
        + 0.5 * k * ((qx @ J + J @ qx) @ err.s)
        + psi
        - psi_d
        + tau_c
        + tau_d
    )
    return J_inv @ js_dot


TorqueFn = Callable[[float, SpacecraftState], np.ndarray]
DisturbanceFn = Callable[[float], np.ndarray]


def rk4_step(
    state: SpacecraftState,
    J: np.ndarray,
    torque_fn: TorqueFn,
    disturbance_fn: DisturbanceFn,
    t: float,
    dt: float,
    J_inv: np.ndarray | None = None,
) -> SpacecraftState:
    """Classical fixed-step RK4 update of (q, omega); q renormalized once."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    if J_inv is None:
        J_inv = np.linalg.inv(J)

    def deriv(ti: float, q: np.ndarray, w: np.ndarray):
        st = SpacecraftState.__new__(SpacecraftState)
        st.q, st.omega = q, w
        tau_c = torque_fn(ti, st)
        return attitude_kinematics(q, w), euler_dynamics(J, w, tau_c, disturbance_fn(ti), J_inv)

    q0, w0 = state.q, state.omega
    k1q, k1w = deriv(t, q0, w0)
    k2q, k2w = deriv(t + 0.5 * dt, q0 + 0.5 * dt * k1q, w0 + 0.5 * dt * k1w)
    k3q, k3w = deriv(t + 0.5 * dt, q0 + 0.5 * dt * k2q, w0 + 0.5 * dt * k2w)
    k4q, k4w = deriv(t + dt, q0 + dt * k3q, w0 + dt * k3w)

    q_new = q0 + (dt / 6.0) * (k1q + 2.0 * k2q + 2.0 * k3q + k4q)
    w_new = w0 + (dt / 6.0) * (k1w + 2.0 * k2w + 2.0 * k3w + k4w)
    if not (np.all(np.isfinite(q_new)) and np.all(np.isfinite(w_new))):
        raise NonFiniteState(f"non-finite state at t={t}")
    out = SpacecraftState.__new__(SpacecraftState)
    out.q = normalize(q_new)
    out.omega = w_new
    return out


# ---------------------------------------------------------------------------
# sensors and observers


@dataclass
class SensorSample:
    qm: np.ndarray
    omega_m: np.ndarray


@dataclass
class ObserverOutput:
    q_hat: np.ndarray
    omega_hat: np.ndarray


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


def synthetic_observer(truth: SpacecraftState, profile: SyntheticErrorProfile,
                       t: float) -> ObserverOutput:
    """Emit q_hat = q (x) qtilde(t)^-1 and omega_hat = omega + omega_tilde(t)."""
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


# ---------------------------------------------------------------------------
# allocation and the control law


def effective_torque(bank: ActuatorBank, e_vals: np.ndarray, tau_u: np.ndarray) -> np.ndarray:
    """Realized body torque tau_c = D * E * tau_u."""
    return bank.D @ (e_vals * tau_u)


def allocate(bank: ActuatorBank, e_hat: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Fault-weighted pseudo-inverse allocation of the virtual torque u.

    Minimizes tau_u^T * Ehat^-1 * tau_u subject to D*Ehat*tau_u = u, so dead
    pairs (e_hat_i = 0) receive zero command.
    """
    return allocation_matrix(bank, e_hat) @ u


def saturate(tau_u: np.ndarray, tau_max: float) -> np.ndarray:
    """Componentwise clamp to [-tau_max, tau_max]."""
    return np.clip(tau_u, -tau_max, tau_max)


def estimated_errors(
    obs: ObserverOutput, desired: DesiredState, k: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Estimated error coordinates (q_hat_e, omega_hat_e, s_hat, omega_bar_hat_d)."""
    if k <= 0:
        raise ValueError("k must be positive")
    q_hat_e = quat_mul(quat_inv(desired.qd), obs.q_hat)
    omega_bar_hat_d = rotation_matrix(q_hat_e) @ desired.omega_d
    omega_hat_e = obs.omega_hat - omega_bar_hat_d
    s_hat = omega_hat_e + k * q_hat_e[1:]
    return q_hat_e, omega_hat_e, s_hat, omega_bar_hat_d


def feedforward_terms(
    est: ModelEstimates,
    q_hat_e: np.ndarray,
    omega_hat_e: np.ndarray,
    omega_bar_hat_d: np.ndarray,
    desired: DesiredState,
    k: float,
) -> tuple[np.ndarray, np.ndarray]:
    """psi_hat and psi_hat_d built from the inertia estimate and hatted errors."""
    J_hat = est.J_hat
    qv = q_hat_e[1:]
    qx = skew(qv)
    wbx = skew(omega_bar_hat_d)
    xi_d = skew(J_hat @ omega_bar_hat_d) - wbx @ J_hat - J_hat @ wbx
    psi_hat = (
        -0.5 * k * k * (qx @ (J_hat @ qv))
        + 0.5 * k * (g_matrix(q_hat_e) @ (J_hat @ omega_hat_e))
        - k * (xi_d @ qv)
    )
    psi_hat_d = np.cross(omega_bar_hat_d, J_hat @ omega_bar_hat_d) + J_hat @ (
        rotation_matrix(q_hat_e) @ desired.omega_d_dot
    )
    return psi_hat, psi_hat_d


def robust_term(
    s_hat: np.ndarray,
    q_hat_e_vec: np.ndarray,
    coeffs: RobustCoefficients,
    gamma: float,
    epsilon: float,
) -> tuple[np.ndarray, bool]:
    """Boundary-layer robust torque; returns (u_s, inside_boundary_layer)."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    mag = coeffs.a1 * (float(np.linalg.norm(q_hat_e_vec)) + gamma) + coeffs.a0
    s_norm = float(np.linalg.norm(s_hat))
    if s_norm >= epsilon:
        return -(mag / s_norm) * s_hat, False
    return -(mag / epsilon) * s_hat, True


def virtual_control(
    s_hat: np.ndarray,
    K: np.ndarray,
    u_s: np.ndarray,
    psi_hat: np.ndarray,
    psi_hat_d: np.ndarray,
    tau_d_hat: np.ndarray,
) -> np.ndarray:
    """u = -K*s_hat + u_s + psi_hat_d - psi_hat - tau_d_hat."""
    return -(K @ s_hat) + u_s + psi_hat_d - psi_hat - tau_d_hat


@dataclass
class ControlDiagnostics:
    s_hat: np.ndarray
    q_hat_e: np.ndarray
    u_s: np.ndarray
    inside_boundary_layer: bool
    tau_u_raw: np.ndarray


def control_step(
    obs: ObserverOutput,
    desired: DesiredState,
    gains: ControllerGains,
    est: ModelEstimates,
    coeffs: RobustCoefficients,
    bank: ActuatorBank,
    e_hat: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, ControlDiagnostics]:
    """Full pipeline: estimated errors -> feedforward -> robust term ->
    virtual control -> allocation -> saturation."""
    q_hat_e, omega_hat_e, s_hat, omega_bar_hat_d = estimated_errors(obs, desired, gains.k)
    psi_hat, psi_hat_d = feedforward_terms(est, q_hat_e, omega_hat_e, omega_bar_hat_d, desired, gains.k)
    u_s, inside = robust_term(s_hat, q_hat_e[1:], coeffs, gains.gamma, gains.epsilon)
    u = virtual_control(s_hat, gains.K, u_s, psi_hat, psi_hat_d, est.tau_d_hat)
    tau_u_raw = allocate(bank, e_hat, u)
    tau_u = saturate(tau_u_raw, bank.tau_max)
    diag = ControlDiagnostics(
        s_hat=s_hat, q_hat_e=q_hat_e, u_s=u_s, inside_boundary_layer=inside, tau_u_raw=tau_u_raw
    )
    return tau_u, u, diag


def uncertainty_residual(
    J: np.ndarray,
    est: ModelEstimates,
    err: TrackingError,
    desired: DesiredState,
    q_hat_e: np.ndarray,
    omega_hat_e: np.ndarray,
    omega_bar_hat_d: np.ndarray,
    tau_d: np.ndarray,
    k: float,
) -> np.ndarray:
    """Analysis-only residual psi - psi_hat + psi_hat_d - psi_d + tau_d - tau_d_hat.

    Requires truth values; never computed online by the controller.
    """
    psi, psi_d = psi_terms(J, err, desired, k)
    psi_hat, psi_hat_d = feedforward_terms(est, q_hat_e, omega_hat_e, omega_bar_hat_d, desired, k)
    return psi - psi_hat + psi_hat_d - psi_d + tau_d - est.tau_d_hat


def true_errors_as_estimates(
    state_q: np.ndarray, state_omega: np.ndarray, desired: DesiredState, k: float
) -> TrackingError:
    """Convenience: exact tracking errors for perfect-estimate comparisons."""
    return tracking_errors(SpacecraftState(q=state_q, omega=state_omega), desired, k)


# ---------------------------------------------------------------------------
# the float helpers that ftacs.kernel writes out in its per-step functions


def _qmul(a, b):
    """Hamilton product a (x) b, renormalized."""
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    p0 = a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3
    p1 = a0 * b1 + b0 * a1 + a2 * b3 - a3 * b2
    p2 = a0 * b2 + b0 * a2 + a3 * b1 - a1 * b3
    p3 = a0 * b3 + b0 * a3 + a1 * b2 - a2 * b1
    n = math.sqrt(p0 * p0 + p1 * p1 + p2 * p2 + p3 * p3)
    return (p0 / n, p1 / n, p2 / n, p3 / n)


def _rotate(q, v):
    """R(q) v = v - 2*q0*(qv x v) + 2*qv x (qv x v)."""
    q0, q1, q2, q3 = q
    vx, vy, vz = v
    cx = q2 * vz - q3 * vy
    cy = q3 * vx - q1 * vz
    cz = q1 * vy - q2 * vx
    return (
        vx - 2.0 * q0 * cx + 2.0 * (q2 * cz - q3 * cy),
        vy - 2.0 * q0 * cy + 2.0 * (q3 * cx - q1 * cz),
        vz - 2.0 * q0 * cz + 2.0 * (q1 * cy - q2 * cx),
    )


# ---------------------------------------------------------------------------
# the bound path: coefficient map, phi functions, fixed-point loops and gain
# conditions, with every constant written inside the expression that uses it
# and phi_bar as the max of phi1 and phi2. The package reads each field once
# and hoists the constants out of the phi functions (ftacs.bounds,
# ftacs.controller); the tests hold it to these functions with ==.


def robust_coefficients(budget: UncertaintyBudget, k: float) -> RobustCoefficients:
    """a0..a3 such that ||tau_r|| <= a3*||s|| + a2*||q_e||^2 + a1*||q_e|| + a0."""
    r0 = rho_zero(budget.rho_q)
    jn = budget.J_hat_norm
    a3 = 0.5 * k * (r0 * jn + budget.rho_J)
    a2 = 0.5 * k * k * budget.rho_J
    a1 = k * k * r0 * jn + k * a3 + 3.0 * k * budget.rho_v * (budget.rho_J + 2.0 * budget.rho_q * jn)
    a0 = (
        0.5 * k * k * r0 * r0 * jn
        + 0.5 * k * (budget.rho_w + 2.0 * budget.rho_q * budget.rho_v) * jn
        + 3.0 * k * budget.rho_v * r0 * jn
        + 4.0 * budget.rho_q * (budget.rho_v * budget.rho_v) * jn
        + 2.0 * budget.rho_q * budget.rho_a * jn
        + budget.rho_J * (budget.rho_v * budget.rho_v)
        + budget.rho_J * budget.rho_a
        + budget.rho_d
    )
    return RobustCoefficients(rho_0=r0, a0=a0, a1=a1, a2=a2, a3=a3)


def _complete(budget: UncertaintyBudget, gains: ControllerGains,
              a: RobustCoefficients) -> BoundCoefficients:
    """The BoundCoefficients of the gains on top of their robust coefficients;
    compute_coefficients and check_gain_conditions both come here."""
    k = gains.k
    jn = budget.J_hat_norm
    lmin, lmax = gains.lambda_min_K, gains.lambda_max_K
    r0 = a.rho_0
    rs = budget.rho_w + 2.0 * budget.rho_q * budget.rho_v + k * r0  # bound on the s-estimation error
    b3 = 0.5 * k * jn + lmax
    b2 = 0.5 * k * k * jn
    b1 = 2.0 * b2 * r0 + 0.5 * k * k * jn + 3.0 * k * budget.rho_v * jn + a.a1
    b0 = (
        b2 * r0 * r0
        + 0.5 * k * (budget.rho_w + 2.0 * budget.rho_q * budget.rho_v) * jn
        + 3.0 * k * budget.rho_v * r0 * jn
        + lmax * rs
        + a.a1 * (r0 + gains.gamma)
        + a.a0
        + ((budget.rho_v * budget.rho_v) + budget.rho_a) * jn
        + budget.rho_d_hat
    )
    kappa = lmin - a.a3 - budget.rho_E * b3
    return BoundCoefficients(
        rho_0=r0, a0=a.a0, a1=a.a1, a2=a.a2, a3=a.a3,
        rho_s=rs, b0=b0, b1=b1, b2=b2, b3=b3,
        lambda_min_K=lmin, lambda_max_K=lmax,
        kappa=kappa,
        kappa_prime=kappa + (a.a1 * gains.gamma + a.a0) / gains.epsilon,
    )


def compute_coefficients(budget: UncertaintyBudget, gains: ControllerGains) -> BoundCoefficients:
    return _complete(budget, gains, robust_coefficients(budget, gains.k))


def phi_functions(
    coeffs: BoundCoefficients, gains: ControllerGains, budget: UncertaintyBudget
) -> tuple[PhiFn, PhiFn, PhiFn]:
    """The comparison quadratics phi1 (outside the boundary layer), phi2
    (inside), and their pointwise max phi_bar.

    The second argument is the vanishing slack of the ultimate-bound limits;
    predictions evaluate at y = 0.
    """
    c = coeffs
    rE = budget.rho_E
    eps = gains.epsilon
    gam = gains.gamma
    lmax = c.lambda_max_K
    a0, a1, a2 = c.a0, c.a1, c.a2
    r0, rs = c.rho_0, c.rho_s

    def phi1(x: float, y: float = 0.0) -> float:
        return (
            (a2 + rE * c.b2) * x * x
            + (2.0 / eps * a1 * (rs + y) + rE * c.b1) * x
            + 2.0 / eps * (rs + y) * (a1 * (gam + r0 + y) + a0)
            + rE * c.b0
            + (2.0 + lmax + a1) * y
            - (a1 * gam - a1 * r0 - lmax * rs)
        )

    def phi2(x: float, y: float = 0.0) -> float:
        return (
            (a2 + rE * c.b2) * x * x
            + (a1 * (rs + y) / eps + a1 + rE * c.b1) * x
            + (rs + y) / eps * (a1 * (gam + r0 + y) + a0)
            + a0
            + rE * c.b0
            + lmax * (rs + y)
            + 2.0 * y
        )

    def phi_bar(x: float, y: float = 0.0) -> float:
        return max(phi1(x, y), phi2(x, y))

    return phi1, phi2, phi_bar


def _fixed_point(phi: PhiFn, kappa: float, q0: float, ratio: float, k: float,
                 history: list[tuple[float, float]], contract: bool = False) -> tuple[float, float]:
    """Iterate s_i = ratio*phi(q_{i-1})/kappa, q_i = s_i/k from q0, appending
    each (s_i, q_i) to history, until |q_i - q_{i-1}| <= ETA; returns the
    limit. With contract, a first iterate q_1 >= 1 raises NotContractive, and
    so does any iterate that is not finite: finite inputs whose coefficients
    overflow (inf * 0 = nan) would otherwise never meet the tolerance."""
    q_prev = q0
    while True:
        s_i = ratio * phi(q_prev, 0.0) / kappa
        q_i = s_i / k
        history.append((s_i, q_i))
        if contract and len(history) == 1 and q_i >= 1.0:
            raise NotContractive(f"q_bar_1 = {q_i} >= 1; sequence does not contract")
        if not math.isfinite(q_i):
            raise NotContractive(f"q_bar_{len(history)} = {q_i}; sequence does not contract")
        if abs(q_i - q_prev) <= ETA:
            return s_i, q_i
        q_prev = q_i


def predict(budget: UncertaintyBudget, gains: ControllerGains) -> BoundTrace:
    """Run the two-stage bound prediction end to end.

    Loop 1 iterates phi_bar with kappa from q_bar_0 = 1. When the
    boundary-layer guard s_inf + rho_s < epsilon holds, loop 2 iterates phi2
    with kappa' from loop 1's limit; otherwise the loop-1 limits stand as final.
    """
    coeffs = compute_coefficients(budget, gains)
    if not coeffs.kappa > 0:  # the verdict of check_gain_conditions
        raise GainConditionViolated(f"kappa = {coeffs.kappa} <= 0")
    if not epsilon_condition(gains, coeffs):
        raise GainConditionViolated(f"epsilon = {gains.epsilon} <= rho_s = {coeffs.rho_s}")
    _, phi2, phi_bar = phi_functions(coeffs, gains, budget)
    ratio = math.sqrt(budget.lambda_r / budget.lambda_l)
    trace = BoundTrace()
    trace.s_inf, trace.q_inf = _fixed_point(
        phi_bar, coeffs.kappa, 1.0, ratio, gains.k, trace.loop1, contract=True
    )
    if trace.s_inf + coeffs.rho_s < gains.epsilon:
        trace.switch_index = len(trace.loop1)
        trace.s_inf_prime, trace.q_inf_prime = _fixed_point(
            phi2, coeffs.kappa_prime, trace.q_inf, ratio, gains.k, trace.loop2
        )
    return trace


def check_gain_conditions(
    gains: ControllerGains, coeffs: RobustCoefficients, budget: UncertaintyBudget
) -> GainCheckReport:
    """kappa = lambda_min(K) - a3 - rho_E*b3 > 0 and epsilon > rho_s, the
    conditions predict() tests. coeffs may already be the gains'
    BoundCoefficients; the threshold a3 + rho_E*b3 is for display."""
    c = coeffs if isinstance(coeffs, BoundCoefficients) else _complete(budget, gains, coeffs)
    return GainCheckReport(
        lambda_min_K=c.lambda_min_K,
        k_threshold=c.a3 + budget.rho_E * c.b3,
        k_condition=c.kappa > 0,
        k_margin=c.kappa,
        rho_s=c.rho_s,
        epsilon=gains.epsilon,
        epsilon_condition=epsilon_condition(gains, c),
        epsilon_margin=gains.epsilon - c.rho_s,
    )


# ---------------------------------------------------------------------------
# configuration scalars as numpy scalars


def with_numpy_scalars(obj, *names):
    """A copy of a frozen configuration object whose named fields hold numpy
    scalars, bypassing the constructor, which stores them as floats."""
    obj = copy.copy(obj)
    for name in names:
        object.__setattr__(obj, name, np.float64(getattr(obj, name)))
    return obj
