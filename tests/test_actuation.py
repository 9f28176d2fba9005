import math

import numpy as np
import pytest

from ftacs.actuation import ActuatorBank, HealthProfile, SignalSpec
from ftacs.scenario import PAPER_D
from reference import allocate, effective_torque, saturate


def paper_bank():
    return ActuatorBank(D=PAPER_D.copy(), tau_max=0.02)


def test_profile_clamping():
    # HealthProfile clamps what it stacks; a SignalSpec on its own does not
    p = SignalSpec("sin", 0.9, scale=0.5, freq=1.0)
    ts = np.linspace(0, 10, 200)
    vals = HealthProfile([p])(ts)[:, 0]
    assert np.array_equal(vals, np.clip(p(ts), 0.0, 1.0))
    assert vals.max() == 1.0 < p(ts).max()
    hp = HealthProfile([SignalSpec("const", 2.0), SignalSpec("const", -0.5), SignalSpec("const", 0.3)])
    assert hp(0.0).tolist() == [1.0, 0.0, 0.3]
    assert hp(np.zeros(2)).tolist() == [[1.0, 0.0, 0.3]] * 2


def test_abs_sin_profile():
    p = SignalSpec("abs_sin", 1.0, scale=-0.1, freq=1.0)
    hp = HealthProfile([p])
    assert abs(hp(0.0)[0] - 1.0) < 1e-15
    assert abs(hp(math.pi / 2)[0] - 0.9) < 1e-12
    assert hp(-math.pi / 2)[0] == hp(math.pi / 2)[0] == p(math.pi / 2)


def test_healthy_profile():
    hp = HealthProfile.healthy(4)
    assert np.array_equal(hp(0.0), np.ones(4))
    assert np.array_equal(hp(123.4), np.ones(4))


def test_bank_validation():
    with pytest.raises(ValueError):
        ActuatorBank(D=np.eye(3) * 2.0)  # non-unit columns
    with pytest.raises(ValueError):
        ActuatorBank(D=np.ones((3, 2)))  # too few columns
    bad = np.zeros((3, 4))
    bad[0] = [1.0, 1.0, 1.0, 1.0]  # rank 1
    with pytest.raises(ValueError):
        ActuatorBank(D=bad)


def test_allocation_consistency():
    # D * Ehat * tau_u reproduces the requested virtual torque
    bank = paper_bank()
    rng = np.random.default_rng(11)
    for _ in range(100):
        e_hat = rng.uniform(0.3, 1.0, 4)
        u = rng.standard_normal(3) * 0.01
        tau_u = allocate(bank, e_hat, u)
        assert np.allclose(bank.D @ (e_hat * tau_u), u, atol=1e-10)


def test_allocation_cost_dominance():
    # the weighted pseudo-inverse minimizes tau^T Ehat^-1 tau among all
    # feasible commands
    bank = paper_bank()
    rng = np.random.default_rng(13)
    e_hat = np.array([1.0, 0.8, 0.6, 0.9])
    u = np.array([0.004, -0.003, 0.006])
    tau_star = allocate(bank, e_hat, u)
    cost_star = tau_star @ (tau_star / e_hat)
    # feasible alternatives: tau_star + any nullspace direction of D*Ehat
    de = bank.D * e_hat
    _, _, vt = np.linalg.svd(de)
    null = vt[3:].T  # m x (m-3)
    for _ in range(1000):
        delta = null @ rng.standard_normal(null.shape[1])
        delta *= rng.uniform(0.1, 10.0)
        tau_alt = tau_star + delta
        assert np.allclose(bank.D @ (e_hat * tau_alt), u, atol=1e-10)
        cost_alt = tau_alt @ (tau_alt / e_hat)
        assert cost_star <= cost_alt + 1e-12


def test_dead_pair_receives_zero():
    bank = paper_bank()
    e_hat = np.array([1.0, 1.0, 0.0, 0.7])
    rng = np.random.default_rng(17)
    for _ in range(50):
        tau_u = allocate(bank, e_hat, rng.standard_normal(3) * 0.01)
        assert tau_u[2] == 0.0


def test_allocation_rank_deficient():
    bank = paper_bank()
    with pytest.raises(ValueError, match=r"^D\*Ehat\^3\*D\^T is singular; "
                                          r"fully-actuated assumption violated$"):
        allocate(bank, np.array([1.0, 0.0, 0.0, 0.0]), np.ones(3))


def test_saturate():
    assert np.array_equal(saturate(np.array([0.05, -0.05, 0.01]), 0.02), [0.02, -0.02, 0.01])


def test_effective_torque_definition():
    bank = paper_bank()
    e = np.array([0.9, 0.7, 0.0, 0.5])
    tau_u = np.array([0.01, -0.02, 0.03, 0.004])
    assert np.allclose(effective_torque(bank, e, tau_u), bank.D @ np.diag(e) @ tau_u, atol=1e-15)
