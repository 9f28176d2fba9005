import math

import numpy as np
import pytest

from ftacs.actuation import ActuatorBank
from ftacs.config import ControllerGains, ModelEstimates, zero_budget
from ftacs.bounds import predict, robust_coefficients
from ftacs.controller import check_gain_conditions
from ftacs.errors import GainConditionViolated, NotContractive
from ftacs.estimation import SyntheticErrorProfile
from ftacs.scenario import PAPER_D, PAPER_J, PAPER_J_HAT, paper_budget
from reference import (
    DesiredState,
    ObserverOutput,
    SpacecraftState,
    control_step,
    error_matrices,
    estimated_errors,
    feedforward_terms,
    normalize,
    psi_terms,
    quat_from_axis_angle,
    robust_term,
    rotation_matrix,
    synthetic_observer,
    tracking_errors,
    true_errors_as_estimates,
    uncertainty_residual,
    virtual_control,
)


def test_robust_coefficients_frozen(budget_faulty):
    c = robust_coefficients(budget_faulty, 0.2)
    assert c.a3 == pytest.approx(0.05001720000029846, rel=1e-12)
    assert c.a2 == pytest.approx(0.01, rel=1e-12)
    assert c.a1 == pytest.approx(0.010670774080179076, rel=1e-12)
    assert c.a0 == pytest.approx(1.930688068394225e-05, rel=1e-12)


def test_robust_coefficients_zero_budget():
    c = robust_coefficients(zero_budget(J_hat_norm=8.0, lambda_l=1.0, lambda_r=1.0), 0.2)
    assert c.a0 == 0.0 and c.a1 == 0.0 and c.a3 == 0.0
    assert c.a2 == 0.0


def test_robust_term_continuity_at_boundary(budget_faulty, gains, rng):
    # the two branches agree exactly at ||s_hat|| = epsilon
    coeffs = robust_coefficients(budget_faulty, gains.k)
    for _ in range(50):
        direction = rng.standard_normal(3)
        direction /= np.linalg.norm(direction)
        s_hat = gains.epsilon * direction
        qv = 1e-3 * rng.standard_normal(3)
        mag = coeffs.a1 * (np.linalg.norm(qv) + gains.gamma) + coeffs.a0
        outside = -(mag / np.linalg.norm(s_hat)) * s_hat
        inside = -(mag / gains.epsilon) * s_hat
        assert np.max(np.abs(outside - inside)) < 1e-14
        # whichever branch fires at the boundary, the value is the same
        u_s, _ = robust_term(s_hat, qv, coeffs, gains.gamma, gains.epsilon)
        assert np.max(np.abs(u_s - outside)) < 1e-14


def test_robust_term_branch_flag(budget_faulty, gains):
    coeffs = robust_coefficients(budget_faulty, gains.k)
    _, inside = robust_term(np.array([1e-3, 0, 0]), np.zeros(3), coeffs, gains.gamma, gains.epsilon)
    assert inside
    _, inside = robust_term(np.array([0.1, 0, 0]), np.zeros(3), coeffs, gains.gamma, gains.epsilon)
    assert not inside


def test_gain_conditions_paper_values(budget_faulty, gains):
    coeffs = robust_coefficients(budget_faulty, gains.k)
    report = check_gain_conditions(gains, coeffs, budget_faulty)
    assert report.k_threshold == pytest.approx(0.17001720000029846, rel=1e-12)
    assert abs(report.k_threshold - 0.17) / 0.17 < 0.02
    assert report.passed


def test_gain_conditions_reject_small_K(budget_faulty):
    weak = ControllerGains(k=0.2, K=0.1 * np.eye(3), epsilon=0.01, gamma=0.01)
    coeffs = robust_coefficients(budget_faulty, weak.k)
    report = check_gain_conditions(weak, coeffs, budget_faulty)
    assert not report.k_condition
    assert not report.passed


# (rho_E, k, lambda_min(K), lambda_max(K)) where a threshold test written
# apart from predict's kappa once disagreed with it: check-gains failed where
# predict went on, and passed where predict raised GainConditionViolated.
DISAGREED = [
    (0.022041609744026882, 0.689786892795292, 0.33479140394050133, 4.60353423620573),
    (0.04858353588317891, 0.5888708817132403, 0.49180616435293695, 4.736174063824999),
]


def test_gain_condition_agrees_with_predict_near_threshold():
    """K = diag(lambda_min, lambda_max, lambda_max) with lambda_min within
    3 ulp of the threshold a3 + rho_E*b3, on random budgets and gains."""
    rng = np.random.default_rng(0)
    points = list(DISAGREED)
    for _ in range(1500):
        rho_E, k, lmax = rng.uniform(0.0, 0.1), 0.2 * 2.0 ** rng.uniform(-2.0, 2.0), rng.uniform(1.0, 5.0)
        budget = paper_budget(rho_E)
        at = ControllerGains(k=k, K=lmax * np.eye(3), epsilon=0.01, gamma=0.01)
        threshold = check_gain_conditions(at, robust_coefficients(budget, k), budget).k_threshold
        for toward in (-math.inf, math.inf):
            lmin = threshold
            for _ in range(3):
                lmin = float(np.nextafter(lmin, toward))
                points.append((rho_E, k, lmin, lmax))
        points.append((rho_E, k, threshold, lmax))
    assert len(points) >= 10_000
    verdicts, disagree = set(), []
    for rho_E, k, lmin, lmax in points:
        budget = paper_budget(rho_E)
        gains = ControllerGains(k=k, K=np.diag([lmin, lmax, lmax]), epsilon=0.01, gamma=0.01)
        passed = check_gain_conditions(gains, robust_coefficients(budget, k), budget).k_condition
        try:
            predict(budget, gains)
            violated = False
        except GainConditionViolated:
            violated = True
        except NotContractive:
            violated = False
        verdicts.add(passed)
        if passed == violated:
            disagree.append((rho_E, k, lmin, lmax))
    assert verdicts == {True, False}
    assert not disagree, f"{len(disagree)} of {len(points)} points, first {disagree[:3]}"


def test_estimated_errors_match_truth_for_perfect_observer(rng):
    for _ in range(20):
        q = normalize(rng.standard_normal(4))
        w = 0.01 * rng.standard_normal(3)
        des = DesiredState(
            qd=normalize(rng.standard_normal(4)),
            omega_d=1e-3 * rng.standard_normal(3),
            omega_d_dot=1e-6 * rng.standard_normal(3),
        )
        err = tracking_errors(SpacecraftState(q=q, omega=w), des, 0.2)
        obs = ObserverOutput(q_hat=q, omega_hat=w)
        q_hat_e, omega_hat_e, s_hat, _ = estimated_errors(obs, des, 0.2)
        assert np.allclose(q_hat_e, err.qe, atol=1e-12)
        assert np.allclose(omega_hat_e, err.omega_e, atol=1e-12)
        assert np.allclose(s_hat, err.s, atol=1e-12)


def test_s_hat_decomposition(rng):
    # s_hat = s + omega_tilde + (I - R^T(qtilde)) omega_bar_d + k E(qtilde) q_e
    k = 0.2
    prof = SyntheticErrorProfile(amp_q=0.05, amp_w=0.01)
    for t in np.linspace(0, 40, 20):
        truth = SpacecraftState(q=normalize(rng.standard_normal(4)), omega=0.01 * rng.standard_normal(3))
        des = DesiredState(
            qd=normalize(rng.standard_normal(4)),
            omega_d=5e-3 * rng.standard_normal(3),
            omega_d_dot=np.zeros(3),
        )
        obs = synthetic_observer(truth, prof, t)
        err = tracking_errors(truth, des, k)
        _, _, s_hat, _ = estimated_errors(obs, des, k)
        qt = prof.qtilde(t)
        _, E = error_matrices(qt)
        expected = (
            err.s
            + prof.omega_tilde(t)
            + (np.eye(3) - rotation_matrix(qt).T) @ err.omega_bar_d
            + k * (E @ err.qe)
        )
        assert np.allclose(s_hat, expected, atol=1e-10)


def test_feedforward_matches_truth_terms(rng):
    # with perfect estimates and J_hat = J the hatted feedforward equals the
    # true psi / psi_d
    est = ModelEstimates(J_hat=PAPER_J.copy(), tau_d_hat=np.zeros(3))
    for _ in range(20):
        q = normalize(rng.standard_normal(4))
        w = 0.01 * rng.standard_normal(3)
        des = DesiredState(
            qd=normalize(rng.standard_normal(4)),
            omega_d=1e-3 * rng.standard_normal(3),
            omega_d_dot=1e-6 * rng.standard_normal(3),
        )
        err = tracking_errors(SpacecraftState(q=q, omega=w), des, 0.2)
        psi, psi_d = psi_terms(PAPER_J, err, des, 0.2)
        psi_hat, psi_hat_d = feedforward_terms(
            est, err.qe, err.omega_e, err.omega_bar_d, des, 0.2
        )
        assert np.allclose(psi_hat, psi, atol=1e-12)
        assert np.allclose(psi_hat_d, psi_d, atol=1e-12)


def test_uncertainty_residual_zero_when_exact(rng):
    est = ModelEstimates(J_hat=PAPER_J.copy(), tau_d_hat=np.array([1e-6, -2e-6, 0.0]))
    q = normalize(rng.standard_normal(4))
    w = 0.01 * rng.standard_normal(3)
    des = DesiredState(
        qd=normalize(rng.standard_normal(4)),
        omega_d=1e-3 * rng.standard_normal(3),
        omega_d_dot=np.zeros(3),
    )
    err = tracking_errors(SpacecraftState(q=q, omega=w), des, 0.2)
    res = uncertainty_residual(
        PAPER_J, est, err, des, err.qe, err.omega_e, err.omega_bar_d, est.tau_d_hat, 0.2
    )
    assert np.allclose(res, 0.0, atol=1e-14)


def test_control_step_pipeline(budget_faulty, gains):
    bank = ActuatorBank(D=PAPER_D.copy(), tau_max=0.02)
    est = ModelEstimates(J_hat=PAPER_J_HAT.copy(), tau_d_hat=np.zeros(3))
    coeffs = robust_coefficients(budget_faulty, gains.k)
    q0 = quat_from_axis_angle(np.array([0.0, 0.0, 1.0]), 0.5)
    obs = ObserverOutput(q_hat=q0, omega_hat=np.array([0.01, -0.005, 0.002]))
    des = DesiredState(qd=np.array([1.0, 0, 0, 0]), omega_d=np.zeros(3), omega_d_dot=np.zeros(3))
    e_hat = np.array([1.0, 1.0, 0.0, 0.7])
    tau_u, u, diag = control_step(obs, des, gains, est, coeffs, bank, e_hat)
    assert tau_u.shape == (4,)
    assert np.all(np.abs(tau_u) <= bank.tau_max)
    assert tau_u[2] == 0.0  # dead pair receives nothing
    # reconstruct u from the published law
    u_expect = virtual_control(diag.s_hat, gains.K, diag.u_s, *_ff(est, obs, des, gains), est.tau_d_hat)
    assert np.allclose(u, u_expect, atol=1e-15)


def _ff(est, obs, des, gains):
    q_hat_e, omega_hat_e, _, omega_bar_hat_d = estimated_errors(obs, des, gains.k)
    return feedforward_terms(est, q_hat_e, omega_hat_e, omega_bar_hat_d, des, gains.k)


def test_true_errors_as_estimates(rng):
    q = normalize(rng.standard_normal(4))
    w = rng.standard_normal(3)
    des = DesiredState(qd=normalize(rng.standard_normal(4)), omega_d=np.zeros(3), omega_d_dot=np.zeros(3))
    err = true_errors_as_estimates(q, w, des, 0.2)
    direct = tracking_errors(SpacecraftState(q=q, omega=w), des, 0.2)
    assert np.allclose(err.s, direct.s, atol=1e-15)
