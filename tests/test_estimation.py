import math
import re

import numpy as np
import pytest

from ftacs.estimation import (
    NoiseParams,
    SyntheticErrorProfile,
    random_unit_vector,
)
from ftacs.so3 import normalize
from reference import (
    IDENTITY_QUAT,
    SensorSample,
    SpacecraftState,
    bias_observer_step,
    estimation_error,
    principal_angle,
    quat_inv,
    quat_mul,
    sensor_sample,
    synthetic_observer,
)

DEG_PER_HOUR_BIAS = np.radians(np.array([-5.0, 15.0, -10.0]) / 3600.0)


def test_bias_unit_conversion():
    assert np.allclose(
        DEG_PER_HOUR_BIAS,
        [-2.42406841e-05, 7.27220522e-05, -4.84813681e-05],
        rtol=1e-8,
    )


def test_default_noise_params():
    n = NoiseParams()
    assert abs(n.sigma_theta - math.radians(0.01)) < 1e-15
    assert n.sigma_u == 3e-6
    assert n.sigma_v == 1e-7


def test_random_unit_vector(rng):
    for _ in range(100):
        v = random_unit_vector(rng)
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12


def test_sensor_sample_noise_free(rng):
    truth = SpacecraftState(q=normalize([0.5, 0.5, 0.5, 0.5]), omega=np.array([0.01, 0, -0.02]))
    noise = NoiseParams(sigma_theta=0.0, sigma_u=0.0, sigma_v=0.0)
    bias = DEG_PER_HOUR_BIAS.copy()
    sample, bias_new = sensor_sample(truth, bias, noise, rng, 0.01)
    assert np.allclose(np.abs(sample.qm), np.abs(truth.q), atol=1e-12)
    assert np.allclose(sample.omega_m, truth.omega + bias, atol=1e-15)
    assert np.array_equal(bias_new, bias)


def test_gyro_noise_statistics(rng):
    truth = SpacecraftState(q=IDENTITY_QUAT.copy(), omega=np.zeros(3))
    noise = NoiseParams(sigma_theta=0.0, sigma_v=0.0)
    draws = np.empty((100_000, 3))
    bias = np.zeros(3)
    for i in range(draws.shape[0] // 10):
        for j in range(10):
            sample, bias = sensor_sample(truth, bias, noise, rng, 0.01)
            draws[10 * i + j] = sample.omega_m
    assert abs(draws.std() - noise.sigma_u) / noise.sigma_u < 0.03


def test_attitude_noise_statistics(rng):
    truth = SpacecraftState(q=IDENTITY_QUAT.copy(), omega=np.zeros(3))
    noise = NoiseParams(sigma_u=0.0, sigma_v=0.0)
    angles = []
    bias = np.zeros(3)
    for _ in range(20_000):
        sample, bias = sensor_sample(truth, bias, noise, rng, 0.01)
        angles.append(principal_angle(quat_mul(quat_inv(sample.qm), truth.q)))
    # |angle| of the injected error ~ |N(0, sigma_theta)|
    rms = math.sqrt(np.mean(np.square(angles)))
    assert abs(rms - noise.sigma_theta) / noise.sigma_theta < 0.05


def test_bias_random_walk_variance(rng):
    noise = NoiseParams(sigma_theta=0.0, sigma_u=0.0)
    truth = SpacecraftState(q=IDENTITY_QUAT.copy(), omega=np.zeros(3))
    # 1000 walks of 50 steps: 3000 final-bias samples, so the variance
    # estimate has a relative standard error of sqrt(2/3000) = 2.6 %
    dt, n = 0.01, 50
    finals = []
    for _ in range(1000):
        bias = np.zeros(3)
        for _ in range(n):
            _, bias = sensor_sample(truth, bias, noise, rng, dt)
        finals.append(bias)
    var = np.var(np.array(finals))
    expected = noise.sigma_v**2 * n * dt
    assert abs(var - expected) / expected < 0.25


def test_sensor_sample_rejects_bad_dt(rng):
    truth = SpacecraftState(q=IDENTITY_QUAT.copy(), omega=np.zeros(3))
    with pytest.raises(ValueError):
        sensor_sample(truth, np.zeros(3), NoiseParams(), rng, 0.0)


def test_synthetic_profile_unit_quaternion():
    prof = SyntheticErrorProfile(amp_q=0.3, amp_w=0.1)
    for t in np.linspace(0, 100, 57):
        qt = prof.qtilde(t)
        assert abs(np.linalg.norm(qt) - 1.0) < 1e-12
        assert qt[0] >= 0
        assert np.linalg.norm(qt[1:]) <= prof.amp_q + 1e-15
        assert np.linalg.norm(prof.omega_tilde(t)) <= prof.amp_w + 1e-15


def test_synthetic_profile_amplitudes_obey_assumption1():
    # the amplitudes bound the errors, so they are held to rho_q, rho_w's rule
    prof = SyntheticErrorProfile(amp_q=0, amp_w=np.float32(0.5))
    assert (prof.amp_q, prof.amp_w) == (0.0, 0.5) and type(prof.amp_w) is float
    for amp_q, amp_w, message in ((1.5, 0.1, "rho_q must be in [0, 1)"),
                                  (-0.1, 0.1, "rho_q must be in [0, 1)"),
                                  (0.1, -1.0, "rho_w must be nonnegative and finite, got -1.0"),
                                  (0.1, math.inf, "rho_w must be nonnegative and finite, got inf")):
        with pytest.raises(ValueError, match=re.escape(f"(amp_q, amp_w) = ({amp_q}, {amp_w}): {message}")):
            SyntheticErrorProfile(amp_q=amp_q, amp_w=amp_w)
    for value in (True, "1"):
        with pytest.raises(ValueError, match="^amp_q must be a real number"):
            SyntheticErrorProfile(amp_q=value)


def test_synthetic_observer_roundtrip(rng):
    prof = SyntheticErrorProfile(amp_q=2.15e-5, amp_w=1.56e-5)
    for t in (0.0, 3.7, 55.0):
        truth = SpacecraftState(q=normalize(rng.standard_normal(4)), omega=rng.standard_normal(3))
        out = synthetic_observer(truth, prof, t)
        qt = estimation_error(out.q_hat, truth.q)
        assert np.allclose(qt, prof.qtilde(t), atol=1e-12)
        assert np.allclose(out.omega_hat - truth.omega, prof.omega_tilde(t), atol=1e-15)


def test_estimation_error_sign_convention(rng):
    q = normalize(rng.standard_normal(4))
    qt = estimation_error(-q, q)
    assert qt[0] >= 0


def test_bias_observer_noise_free_convergence():
    # constant bias, stationary truth, ideal sensors: b_hat -> b
    b = DEG_PER_HOUR_BIAS
    truth = SpacecraftState(q=IDENTITY_QUAT.copy(), omega=np.zeros(3))
    q_hat = IDENTITY_QUAT.copy()
    b_hat = np.zeros(3)
    errs = []
    for _ in range(20_000):  # 200 s at dt = 0.01
        sample = SensorSample(qm=truth.q, omega_m=truth.omega + b)
        q_hat, b_hat, _ = bias_observer_step(q_hat, b_hat, sample, 1.0, 0.1, 0.01)
        errs.append(np.linalg.norm(b_hat - b))
    assert errs[-1] < 1e-7
    # monotone tail: the error keeps shrinking once transients die out
    tail = errs[10_000::1000]
    assert all(b2 <= a2 for a2, b2 in zip(tail, tail[1:]))


def test_bias_observer_noisy_steady_state(rng):
    # default noise levels: steady-state estimation errors stay within a
    # 5e-5 envelope in both attitude and rate
    truth = SpacecraftState(q=IDENTITY_QUAT.copy(), omega=np.zeros(3))
    noise = NoiseParams(b0=DEG_PER_HOUR_BIAS.copy())
    bias = noise.b0.copy()
    q_hat = None
    b_hat = np.zeros(3)
    qn, wn = [], []
    n = 20_000
    for i in range(n):
        sample, bias = sensor_sample(truth, bias, noise, rng, 0.01)
        if q_hat is None:
            q_hat = sample.qm.copy()
        q_hat, b_hat, out = bias_observer_step(q_hat, b_hat, sample, 1.0, 0.1, 0.01)
        if i >= int(0.8 * n):
            qn.append(np.linalg.norm(estimation_error(out.q_hat, truth.q)[1:]))
            wn.append(np.linalg.norm(out.omega_hat - truth.omega))
    assert max(qn) <= 5e-5
    assert max(wn) <= 5e-5


def test_bias_observer_rejects_bad_gains():
    sample = SensorSample(qm=IDENTITY_QUAT.copy(), omega_m=np.zeros(3))
    with pytest.raises(ValueError):
        bias_observer_step(IDENTITY_QUAT.copy(), np.zeros(3), sample, 0.0, 0.1, 0.01)
