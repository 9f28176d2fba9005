import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from ftacs.config import check_inertia
from ftacs.scenario import PAPER_J
from reference import (
    DesiredState,
    SpacecraftState,
    attitude_kinematics,
    euler_dynamics,
    normalize,
    psi_terms,
    quat_mul,
    rk4_step,
    s_dot_rhs,
    skew,
    tracking_errors,
    xi_matrix,
)


def _inertia(J):
    """An object whose field J holds J, as a Scenario's does."""
    return SimpleNamespace(J=np.asarray(J, dtype=float))


def test_check_inertia_returns_the_ascending_eigenvalues():
    eig = check_inertia(_inertia(PAPER_J), "J")
    assert np.array_equal(eig, np.linalg.eigvalsh(PAPER_J))


def test_check_inertia_rejects_asymmetric():
    with pytest.raises(ValueError, match="^J must be symmetric$"):
        check_inertia(_inertia([[1.0, 0.1, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]), "J")


def test_check_inertia_rejects_indefinite():
    with pytest.raises(ValueError, match="^J_hat must be positive definite$"):
        check_inertia(SimpleNamespace(J_hat=np.diag([1.0, -1.0, 1.0])), "J_hat")


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_check_inertia_rejects_non_finite_before_any_svd(bad):
    J = np.diag([8.0, 7.0, 6.0])
    J[0, 1] = J[1, 0] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # inf - inf in the symmetry test warned
        with pytest.raises(ValueError, match=r"^J must be finite, got \[\[8.0, (nan|inf), 0.0\]"):
            check_inertia(_inertia(J), "J")


def test_attitude_kinematics_preserves_norm():
    rng = np.random.default_rng(0)
    for _ in range(50):
        q = normalize(rng.standard_normal(4))
        w = rng.standard_normal(3)
        assert abs(q @ attitude_kinematics(q, w)) < 1e-14


def test_torque_free_conservation():
    # kinetic energy and angular-momentum magnitude are invariants
    J = PAPER_J
    J_inv = np.linalg.inv(J)
    state = SpacecraftState(q=np.array([1.0, 0, 0, 0]), omega=np.array([0.05, -0.02, 0.03]))
    energy0 = 0.5 * state.omega @ J @ state.omega
    h0 = np.linalg.norm(J @ state.omega)
    zero = lambda *_: np.zeros(3)
    t = 0.0
    for _ in range(2000):
        state = rk4_step(state, J, zero, lambda ti: np.zeros(3), t, 0.01, J_inv)
        t += 0.01
    assert abs(0.5 * state.omega @ J @ state.omega - energy0) < 1e-12
    assert abs(np.linalg.norm(J @ state.omega) - h0) < 1e-12


def _axisymmetric_analytic(i_t, i_a, w1, w3, t):
    # transverse rate vector rotates at lam = (i_a - i_t)/i_t * w3
    lam = (i_a - i_t) / i_t * w3
    return np.array([w1 * math.cos(lam * t), w1 * math.sin(lam * t), w3])


def test_rk4_matches_axisymmetric_closed_form():
    i_t, i_a = 6.0, 8.0
    J = np.diag([i_t, i_t, i_a])
    w1, w3 = 0.2, 0.5
    state = SpacecraftState(q=np.array([1.0, 0, 0, 0]), omega=np.array([w1, 0.0, w3]))
    dt, n = 0.01, 1000
    zero = lambda *_: np.zeros(3)
    t = 0.0
    for _ in range(n):
        state = rk4_step(state, J, zero, lambda ti: np.zeros(3), t, dt, np.linalg.inv(J))
        t += dt
    assert np.allclose(state.omega, _axisymmetric_analytic(i_t, i_a, w1, w3, t), atol=1e-10)


def test_rk4_fourth_order_convergence():
    J = PAPER_J
    J_inv = np.linalg.inv(J)
    torque = lambda ti, st: np.array([0.01 * math.sin(ti), -0.02, 0.015 * math.cos(ti)])
    zero_d = lambda ti: np.zeros(3)

    def propagate(dt, n):
        state = SpacecraftState(q=np.array([1.0, 0, 0, 0]), omega=np.array([0.1, -0.05, 0.08]))
        t = 0.0
        for _ in range(n):
            state = rk4_step(state, J, torque, zero_d, t, dt, J_inv)
            t += dt
        return state

    ref = propagate(0.0025, 1600)
    err_coarse = np.linalg.norm(propagate(0.04, 100).omega - ref.omega)
    err_fine = np.linalg.norm(propagate(0.02, 200).omega - ref.omega)
    ratio = err_coarse / err_fine
    assert 12.0 < ratio < 20.0  # 4th order => ~16


def test_tracking_errors_composition():
    rng = np.random.default_rng(5)
    for _ in range(50):
        q = normalize(rng.standard_normal(4))
        qd = normalize(rng.standard_normal(4))
        st = SpacecraftState(q=q, omega=rng.standard_normal(3))
        des = DesiredState(qd=qd, omega_d=rng.standard_normal(3), omega_d_dot=np.zeros(3))
        err = tracking_errors(st, des, 0.2)
        # qd (x) qe reconstructs q (up to sign), and s = omega_e + k*qe_v
        recon = quat_mul(qd, err.qe)
        assert np.allclose(recon, q, atol=1e-12) or np.allclose(recon, -q, atol=1e-12)
        assert np.allclose(err.s, err.omega_e + 0.2 * err.qe[1:], atol=1e-14)


def test_perfect_tracking_gives_zero_errors():
    qd = normalize(np.array([0.4, 0.3, -0.5, 0.1]))
    wd = np.array([0.01, -0.02, 0.005])
    st = SpacecraftState(q=qd.copy(), omega=wd.copy())
    des = DesiredState(qd=qd, omega_d=wd, omega_d_dot=np.zeros(3))
    err = tracking_errors(st, des, 0.2)
    assert np.allclose(err.qe, [1, 0, 0, 0], atol=1e-12)
    assert np.allclose(err.omega_e, 0.0, atol=1e-12)
    assert np.allclose(err.s, 0.0, atol=1e-12)


def test_xi_matrix_skew_symmetric_part():
    # Xi(J, we, wbd) + k/2*(qx J + J qx) appears inside a quadratic form;
    # the first term alone satisfies x^T (Xi - Xi_check) x structure:
    # here verify the defining algebra directly
    rng = np.random.default_rng(6)
    J = PAPER_J
    for _ in range(20):
        we = rng.standard_normal(3)
        wbd = rng.standard_normal(3)
        expected = skew(J @ (we + wbd)) - skew(wbd) @ J - J @ skew(wbd)
        assert np.allclose(xi_matrix(J, we, wbd), expected, atol=1e-14)


def sliding_variable_fd_error(rng, n_configs, k=0.2, h=1e-5):
    """Worst relative error between analytic d(s)/dt and a central finite
    difference of s along the nonlinear flow, over random configurations.

    Also used by the acceptance suite with n_configs=100.
    """
    J = PAPER_J
    J_inv = np.linalg.inv(J)
    worst = 0.0
    for _ in range(n_configs):
        omega_d_fn = _random_reference(rng)
        q = normalize(rng.standard_normal(4))
        w = 0.1 * rng.standard_normal(3)
        qd = normalize(rng.standard_normal(4))
        tau_c = 0.01 * rng.standard_normal(3)
        tau_d = 1e-4 * rng.standard_normal(3)

        def s_at(state, qdq, ti):
            des = DesiredState(qd=qdq, omega_d=omega_d_fn(ti), omega_d_dot=_num_dot(omega_d_fn, ti))
            return tracking_errors(state, des, k).s

        # march forward two steps of h; differentiate centrally at t = h
        torque = lambda ti, s: tau_c
        dist = lambda ti: tau_d
        st0 = SpacecraftState(q=q, omega=w)
        st1 = rk4_step(st0, J, torque, dist, 0.0, h, J_inv)
        st2 = rk4_step(st1, J, torque, dist, h, h, J_inv)
        qd1 = _qd_step(qd, omega_d_fn, 0.0, h)
        qd2 = _qd_step(qd1, omega_d_fn, h, h)
        fd = (s_at(st2, qd2, 2 * h) - s_at(st0, qd, 0.0)) / (2 * h)

        des = DesiredState(qd=qd1, omega_d=omega_d_fn(h), omega_d_dot=_num_dot(omega_d_fn, h))
        err = tracking_errors(st1, des, k)
        analytic = s_dot_rhs(J, err, des, k, tau_c, tau_d, J_inv)
        worst = max(worst, np.linalg.norm(fd - analytic) / max(np.linalg.norm(analytic), 1e-12))
    return worst


def test_sliding_variable_flow_oracle():
    assert sliding_variable_fd_error(np.random.default_rng(42), 25) < 1e-6


def _random_reference(rng):
    amp = 0.01 * rng.standard_normal(3)
    freq = rng.uniform(0.1, 0.5, 3)
    phase = rng.uniform(0, 2 * math.pi, 3)
    return lambda t: amp * np.sin(freq * t + phase)


def _num_dot(fn, t, h=1e-6):
    return (fn(t + h) - fn(t - h)) / (2 * h)


def _qd_step(qd, omega_d_fn, t, h):
    k1 = attitude_kinematics(qd, omega_d_fn(t))
    k2 = attitude_kinematics(qd + 0.5 * h * k1, omega_d_fn(t + 0.5 * h))
    k3 = attitude_kinematics(qd + 0.5 * h * k2, omega_d_fn(t + 0.5 * h))
    k4 = attitude_kinematics(qd + h * k3, omega_d_fn(t + h))
    return normalize(qd + h / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4))


def test_psi_terms_vanish_at_equilibrium():
    qd = normalize(np.array([0.7, 0.1, -0.2, 0.3]))
    des = DesiredState(qd=qd, omega_d=np.zeros(3), omega_d_dot=np.zeros(3))
    st = SpacecraftState(q=qd.copy(), omega=np.zeros(3))
    err = tracking_errors(st, des, 0.2)
    psi, psi_d = psi_terms(PAPER_J, err, des, 0.2)
    assert np.allclose(psi, 0.0, atol=1e-14)
    assert np.allclose(psi_d, 0.0, atol=1e-14)


def test_euler_dynamics_restoring_torque():
    J = PAPER_J
    w = np.array([0.1, 0.0, 0.0])
    wdot = euler_dynamics(J, w, tau_c=np.zeros(3), tau_d=np.zeros(3))
    assert np.allclose(J @ wdot, -np.cross(w, J @ w), atol=1e-15)
