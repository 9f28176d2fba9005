import math

import numpy as np
import pytest
import yaml

from ftacs import scenario
from ftacs.actuation import HealthProfile, ProfileSpec
from ftacs.cli import main as cli_main
from ftacs.config import ControllerGains, ModelEstimates
from ftacs.errors import RankDeficient
from ftacs.scenario import (
    PRESETS,
    InitialConditionSpec,
    ObserverSpec,
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


def test_validation_names_the_first_time_the_estimate_loses_rank():
    # full rank at t = 0; pair 3 fades out after t = pi/2 with pair 4 dead
    fading = HealthProfile([ProfileSpec(), ProfileSpec(),
                            ProfileSpec(kind="cos", offset=0.0, scale=1.0),
                            ProfileSpec(kind="const", offset=0.0)])
    with pytest.raises(RankDeficient, match=r"at t = 1\.58 s"):
        paper_fault_free(duration=5.0, health_estimate=fading)
    paper_fault_free(duration=1.5, health_estimate=fading)


def test_health_estimate_runs():
    # pair 1 switches between 0 and 1; pair 4 is clipped at 1 for stretches
    # and varies between them, so rows repeat in runs, come back after other
    # rows, and change at every step
    estimate = HealthProfile([ProfileSpec(kind="sin", offset=0.5, scale=1e9, phase=0.5),
                              ProfileSpec(), ProfileSpec(),
                              ProfileSpec(kind="sin", offset=0.9, scale=0.2, freq=0.3)])
    sc = paper_fault_free(duration=60.0, health_estimate=estimate)
    grid = np.round(estimate(sc.dt * np.arange(sc.n_steps)), 15)
    rows, runs, starts = sc.health_estimate_runs()
    index = np.repeat(runs, np.diff(starts, append=len(grid)))
    assert np.array_equal(rows[index], grid)
    assert starts[0] == 0 and np.all(np.diff(runs) != 0)  # runs are maximal
    assert len(rows) == len(np.unique(grid, axis=0))
    # numbered in order of first appearance, some of them revisited
    ids, first_runs = np.unique(runs, return_index=True)
    assert np.array_equal(ids, np.arange(len(rows))) and np.all(np.diff(first_runs) > 0)
    assert 1 < len(rows) < len(runs) < len(grid)


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


@pytest.mark.parametrize("pure_python", [False, True], ids=["libyaml", "pure-python"])
def test_yaml_io_matches_safe_dump_and_safe_load(tmp_path, monkeypatch, pure_python):
    if pure_python:
        monkeypatch.setattr(scenario, "_Loader", yaml.SafeLoader)
        monkeypatch.setattr(scenario, "_Dumper", yaml.SafeDumper)
    elif yaml.__with_libyaml__:
        assert scenario._Loader is yaml.CSafeLoader and scenario._Dumper is yaml.CSafeDumper
    path = tmp_path / "scenario.yaml"
    for factory in PRESETS.values():
        for kind in ("perfect", "synthetic", "bias"):
            sc = factory(observer=ObserverSpec(kind=kind))
            save_scenario(sc, path)
            text = path.read_text()
            assert text == yaml.safe_dump(scenario_to_dict(sc), sort_keys=False)
            assert scenario_to_dict(load_scenario_file(path)) == yaml.safe_load(text)


def test_scenario_file_keys_with_defaults_may_be_left_out():
    d = scenario_to_dict(paper_faulty())
    for key in ("budget", "tail_fraction", "record_decimation", "duration"):
        del d[key]
    del d["noise"]["b0"]
    del d["omega_d"]["z"]
    sc = scenario_from_dict(d)
    assert sc.budget is None
    assert (sc.tail_fraction, sc.record_decimation, sc.duration) == (0.2, 1, 600.0)
    assert np.array_equal(sc.noise.b0, np.zeros(3))
    assert sc.omega_d.z == SignalSpec()


def test_shapes_checked_at_construction():
    with pytest.raises(ValueError, match="K must be 3x3"):
        ControllerGains(k=0.2, K=np.eye(2), epsilon=0.01, gamma=0.01)
    with pytest.raises(ValueError, match="J_hat must be 3x3"):
        ModelEstimates(J_hat=np.eye(2))
    with pytest.raises(ValueError, match="tau_d_hat must be a 3-vector"):
        ModelEstimates(J_hat=np.eye(3), tau_d_hat=np.zeros(2))
    with pytest.raises(ValueError, match="J must be 3x3"):
        nominal_exact(J=np.eye(2))
    with pytest.raises(ValueError, match="qd0 must be a 4-vector"):
        nominal_exact(qd0=np.array([1.0, 0.0, 0.0]))
    with pytest.raises(ValueError, match="4-element q0 and a 3-element omega0, got 3 and 3"):
        InitialConditionSpec(q0=[1.0, 0.0, 0.0])


def _edited(edit):
    def text():
        d = scenario_to_dict(paper_faulty(duration=10.0))
        edit(d)
        return yaml.safe_dump(d, sort_keys=False)

    return text


def _set(*path, value):
    def edit(d):
        for key in path[:-1]:
            d = d[key]
        d[path[-1]] = value

    return _edited(edit)


def _delete(*path):
    def edit(d):
        for key in path[:-1]:
            d = d[key]
        del d[path[-1]]

    return _edited(edit)


MALFORMED_FILES = {
    "truncated-flow-list": (lambda: "name: x\nJ: [1, 2\n", "'J: [1, 2'"),
    "document-is-a-list": (lambda: "- name\n- J\n", "the document must be a mapping"),
    "unknown-observer-key": (_set("observer", "foo", value=1), "observer.foo"),
    "dt-not-a-number": (_set("dt", value="abc"), "dt: expected a number"),
    "misspelt-top-level-key": (_set("record_decimaton", value=10), "record_decimaton"),
    "missing-key": (_delete("gains"), "missing key 'gains'"),
    "missing-nested-key": (_delete("gains", "K"), "missing key 'gains.K'"),
    "python-tag": (lambda: "name: !!python/name:os.system\n", "'name: !!python/name:os.system'"),
    "unknown-estimates-key": (_set("estimates", "J", value=1), "estimates.J"),
    "unknown-bank-key": (_set("bank", "tau", value=1), "bank.tau"),
    "unknown-noise-key": (_set("noise", "sigma", value=1), "noise.sigma"),
    "unknown-gains-key": (_set("gains", "kk", value=1), "gains.kk"),
    "ragged-array": (_set("J", value=[[1.0, 2.0], [3.0]]), "J: expected a list of numbers"),
    "K-not-3x3": (_set("gains", "K", value=[[1.0, 0.0], [0.0, 1.0]]), "K must be 3x3"),
}


@pytest.mark.parametrize("case", MALFORMED_FILES)
def test_cli_malformed_scenario_file_exits_1_naming_the_key(tmp_path, capsys, case):
    text, named = MALFORMED_FILES[case]
    path = tmp_path / "bad.yaml"
    path.write_text(text())
    assert cli_main(["predict-bounds", "--scenario", str(path), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ")
    assert named in err
    assert "Traceback" not in err
    assert not (tmp_path / "paper-faulty-bounds.jsonl").exists()
