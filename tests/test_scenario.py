import math

import numpy as np
import pytest

from ftacs.actuation import HealthProfile, ProfileSpec
from ftacs.config import ControllerGains
from ftacs.errors import RankDeficient
from ftacs.scenario import (
    PRESETS,
    SignalSpec,
    VectorSignal,
    load_scenario,
    load_scenario_file,
    nominal_exact,
    paper_fault_free,
    paper_faulty,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
)


def test_signal_spec_values_and_derivatives():
    s = SignalSpec(kind="sin", offset=0.1, scale=2.0, freq=0.5, phase=0.3)
    for t in (0.0, 1.7, 10.0):
        assert s(t) == pytest.approx(0.1 + 2.0 * math.sin(0.5 * t + 0.3))
        h = 1e-7
        assert s.derivative(t) == pytest.approx((s(t + h) - s(t - h)) / (2 * h), rel=1e-6)
    c = SignalSpec(kind="const", offset=4.2)
    assert c(3.0) == 4.2
    assert c.derivative(3.0) == 0.0


def test_vector_signal_vectorized():
    v = VectorSignal(x=SignalSpec(kind="sin", scale=1.0), y=SignalSpec(), z=SignalSpec(kind="cos", scale=2.0))
    t = np.linspace(0, 5, 11)
    out = v(t)
    assert out.shape == (11, 3)
    assert np.allclose(out[:, 0], np.sin(t))
    assert np.allclose(out[:, 2], 2 * np.cos(t))
    assert v.derivative(t).shape == (11, 3)


def test_presets_valid():
    for name, factory in PRESETS.items():
        sc = factory()
        assert sc.name == name
        sc.validate()


def test_paper_presets_numbers():
    sc = paper_faulty()
    assert sc.gains.k == 0.2
    assert sc.gains.lambda_min_K == pytest.approx(0.7)
    assert sc.budget.rho_E == 0.08
    assert sc.bank.tau_max == 0.02
    assert np.allclose(sc.health(0.0), [1.0, 0.6, 0.0, 0.5])
    assert np.allclose(sc.health_estimate(5.0), [1.0, 1.0, 0.0, 0.7])
    free = paper_fault_free()
    assert free.budget.rho_E == 0.0
    assert np.allclose(free.health(3.3), 1.0)
    # reference trajectory amplitudes
    wd = sc.omega_d(0.0)
    assert np.allclose(wd, [2e-3, 0.0, 0.0])
    assert np.allclose(sc.disturbance(0.0), [0.0, -2.5e-6, 2.5e-6])


def test_yaml_roundtrip(tmp_path):
    sc = paper_faulty()
    path = tmp_path / "scenario.yaml"
    save_scenario(sc, path)
    loaded = load_scenario_file(path)
    assert scenario_to_dict(loaded) == scenario_to_dict(sc)


def test_dict_roundtrip():
    sc = nominal_exact()
    again = scenario_from_dict(scenario_to_dict(sc))
    assert scenario_to_dict(again) == scenario_to_dict(sc)


def test_load_scenario_resolution(tmp_path):
    sc = load_scenario("paper-fault-free")
    assert sc.name == "paper-fault-free"
    path = tmp_path / "sc.yaml"
    save_scenario(sc, path)
    loaded = load_scenario(str(path))
    assert loaded.name == sc.name
    with pytest.raises(ValueError):
        load_scenario("no-such-preset")


def test_preset_overrides():
    sc = paper_fault_free(duration=60.0, seed=7)
    assert sc.duration == 60.0
    assert sc.seed == 7
    assert sc.n_steps == 6000


def test_validation_rejects_bad_dt():
    with pytest.raises(ValueError):
        nominal_exact(dt=-0.01)
    with pytest.raises(ValueError):
        nominal_exact(duration=0.05, dt=0.01)


def test_validation_rejects_bad_budget():
    with pytest.raises(ValueError):
        paper_fault_free(budget=paper_fault_free().budget.replace(rho_q=1.5))


def test_validation_rejects_non_spd_K():
    with pytest.raises(ValueError):
        ControllerGains(k=0.2, K=np.diag([1.0, -1.0, 1.0]), epsilon=0.01, gamma=0.01)
    with pytest.raises(ValueError):
        ControllerGains(k=0.2, K=0.7 * np.eye(3), epsilon=-0.01, gamma=0.01)


def test_validation_rejects_rank_deficient_allocation():
    dead = HealthProfile([ProfileSpec(kind="const", offset=0.0) for _ in range(4)])
    with pytest.raises(RankDeficient):
        paper_fault_free(health_estimate=dead)


def test_load_scenario_validates_file_overrides(tmp_path):
    path = tmp_path / "sc.yaml"
    save_scenario(nominal_exact(), path)
    assert load_scenario(str(path), duration=20.0).n_steps == 2000
    with pytest.raises(ValueError):
        load_scenario(str(path), dt=-1.0)


def test_validation_rejects_health_profile_count():
    three = HealthProfile.healthy(3)
    with pytest.raises(ValueError, match="4 thruster pairs.*3 profiles.*4"):
        paper_fault_free(health=three)
    with pytest.raises(ValueError, match="4 thruster pairs.*4 profiles.*3"):
        paper_fault_free(health_estimate=three)
