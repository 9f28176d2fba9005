import math
import re
import warnings
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest
import yaml

from ftacs import actuation, cli, harness, scenario
from ftacs.actuation import HealthProfile
from ftacs.cli import main as cli_main
from ftacs.config import ControllerGains, ModelEstimates, UncertaintyBudget, check_observer_bounds
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


@pytest.mark.parametrize("kind", ["const", "sin", "cos", "abs_sin"])
def test_signal_spec_derivative_is_the_central_difference(kind):
    s = SignalSpec(kind, 0.3, scale=-1.7, freq=0.8, phase=0.4)
    t = np.linspace(-20.0, 20.0, 401)
    x = s.freq * t + s.phase
    if kind == "abs_sin":  # away from the kinks, where sin x = 0
        t = t[np.abs(np.sin(x)) > 1e-3]
        assert len(t) > 350
    h = 1e-6
    assert np.allclose(s.derivative(t), (s(t + h) - s(t - h)) / (2 * h), rtol=1e-6, atol=1e-8)
    assert s.derivative(1.5) == pytest.approx(s.derivative(np.array([1.5]))[0])
    assert scenario.SignalSpec is actuation.SignalSpec  # one class, re-exported


def test_vector_signal_vectorized():
    v = VectorSignal(x=SignalSpec("sin", 0.0, scale=1.0), z=SignalSpec("cos", 0.0, scale=2.0))
    t = np.linspace(0, 5, 11)
    out = v(t)
    assert out.shape == (11, 3)
    assert np.allclose(out[:, 0], np.sin(t))
    assert np.array_equal(out[:, 1], np.zeros(11))  # an axis left out is zero
    assert np.allclose(out[:, 2], 2 * np.cos(t))
    assert v.derivative(t).shape == (11, 3)


def test_presets_valid():
    for name, factory in PRESETS.items():
        sc = factory()
        assert sc.name == name
        assert scenario_to_dict(replace(sc)) == scenario_to_dict(sc)  # built and checked again


def test_configuration_objects_are_frozen():
    sc = paper_faulty(duration=10.0)
    objects = [sc, sc.estimates, sc.gains, sc.budget, sc.noise, sc.observer.synthetic_profile(),
               sc.health.profiles[0], sc.health, sc.bank, sc.omega_d.x, sc.omega_d, sc.observer,
               sc.init]
    assert len({type(obj) for obj in objects}) == 12
    arrays = []
    for obj in objects:
        for f in fields(obj):
            value = getattr(obj, f.name)
            with pytest.raises(FrozenInstanceError):
                setattr(obj, f.name, value)
            if isinstance(value, np.ndarray):
                arrays.append(f.name)
                with pytest.raises(ValueError, match="read-only"):
                    value[...] = 0.0
    assert sorted(arrays) == ["D", "J", "J_hat", "K", "b0", "qd0", "tau_d_hat"]
    assert all(type(v) is tuple for v in (sc.health.profiles, sc.init.q0, sc.init.omega0))
    with pytest.raises(FrozenInstanceError):
        sc.health_estimate_runs = None
    with pytest.raises(ValueError, match="dt must be positive"):
        replace(sc, dt=-1.0)
    # an array field is a copy: the caller's array stays writable and apart
    K = np.eye(3)
    gains = ControllerGains(k=0.2, K=K, epsilon=0.01, gamma=0.01)
    K[0, 0] = 5.0
    assert gains.K[0, 0] == 1.0


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
    for factory in PRESETS.values():
        assert factory(name="renamed", duration=1.0).name == "renamed"


def test_validation_rejects_bad_dt():
    with pytest.raises(ValueError):
        nominal_exact(dt=-0.01)
    with pytest.raises(ValueError):
        nominal_exact(duration=0.05, dt=0.01)


def test_validation_rejects_bad_budget():
    with pytest.raises(ValueError):
        paper_fault_free(budget=replace(paper_fault_free().budget, rho_q=1.5))


def test_validation_rejects_non_spd_K():
    with pytest.raises(ValueError):
        ControllerGains(k=0.2, K=np.diag([1.0, -1.0, 1.0]), epsilon=0.01, gamma=0.01)
    with pytest.raises(ValueError):
        ControllerGains(k=0.2, K=0.7 * np.eye(3), epsilon=-0.01, gamma=0.01)


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_validation_rejects_non_finite_budget_and_gains(value):
    # a comparison is false for NaN, so each range check must reject it by name
    budget = paper_faulty().budget
    for name in [f.name for f in fields(UncertaintyBudget)]:
        with pytest.raises(ValueError, match=rf"\b{name}\b"):
            replace(budget, **{name: value})
    gains = paper_faulty().gains
    for name in ("k", "epsilon", "gamma"):
        with pytest.raises(ValueError, match=rf"^{name} must be positive and finite"):
            replace(gains, **{name: value})
    with pytest.raises(ValueError, match="K must be finite"):
        replace(gains, K=np.diag([0.7, value, 0.7]))


def _float_fields(sc):
    """(object, field name) of every configuration scalar stored as a float."""
    return ([(sc.gains, name) for name in ("k", "epsilon", "gamma")]
            + [(sc.budget, f.name) for f in fields(UncertaintyBudget)]
            + [(sc.observer.synthetic_profile(), name) for name in ("amp_q", "amp_w")]
            + [(sc.noise, name) for name in ("sigma_theta", "sigma_u", "sigma_v")]
            + [(sc.bank, "tau_max")]
            + [(sc, name) for name in ("duration", "dt", "tail_fraction")])


def test_configuration_scalars_are_stored_as_floats():
    sc = paper_faulty(duration=10.0)
    cases = _float_fields(sc)
    assert len(cases) == 23
    for obj, name in cases:
        value = getattr(obj, name)
        assert type(value) is float
        for given in (np.float64(value), np.float32(value)):
            assert type(getattr(replace(obj, **{name: given}), name)) is float
    gains = ControllerGains(k=1, K=np.eye(3), epsilon=np.int64(2), gamma=0.01)
    assert (gains.k, gains.epsilon) == (1.0, 2.0)
    assert type(gains.k) is type(gains.epsilon) is float
    for name in ("seed", "record_decimation"):
        assert type(getattr(replace(sc, **{name: np.int64(3)}), name)) is int


@pytest.mark.parametrize("value", [True, np.True_, "1", None, 1j, np.array([0.5]), np.array(0.5)],
                         ids=["bool", "numpy-bool", "str", "None", "complex", "array", "0-d-array"])
def test_configuration_scalars_must_be_real_numbers(value, monkeypatch):
    # the scenario file reader rejects these by key; the constructors name the
    # field, and a scenario does so before it evaluates its health estimate
    sc = paper_faulty(duration=10.0)
    cases = _float_fields(sc)
    monkeypatch.setattr(scenario, "_equal_row_runs", _never_called)
    for obj, name in cases:
        with pytest.raises(ValueError, match=rf"^{name} must be a real number, got "):
            replace(obj, **{name: value})
    # the seed and the decimation must be integers: 1.5 failed in numpy once
    # the run began, and True ran as 1
    for name in ("seed", "record_decimation"):
        for given in (value, 1.5, 2.0):
            with pytest.raises(ValueError, match=rf"^{name} must be an integer, got "):
                replace(sc, **{name: given})


@pytest.mark.parametrize("name", ["", "../x", "a/b", "a\\b", "x\0y", None],
                         ids=["empty", "parent", "slash", "backslash", "nul", "None"])
def test_scenario_name_must_be_a_plain_file_name_part(name, monkeypatch):
    # every command writes {name}-... into its --out directory, so a name
    # with a path separator wrote outside it; the name fails before any precompute
    sc = paper_faulty(duration=10.0)
    monkeypatch.setattr(scenario, "_equal_row_runs", _never_called)
    with pytest.raises(ValueError, match=r"^name must be a non-empty string without "):
        replace(sc, name=name)


def test_cli_rejects_a_scenario_name_that_escapes_out(tmp_path, capsys):
    path = tmp_path / "escape.yaml"
    save_scenario(paper_faulty(duration=1.0), path)
    path.write_text(path.read_text().replace("name: paper-faulty", "name: ../escaped"))
    (tmp_path / "out").mkdir()
    assert cli_main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 1
    assert "name must be a non-empty string" in capsys.readouterr().err
    assert not any((tmp_path / "out").iterdir())
    assert not (tmp_path / "escaped-seed20190430.csv").exists()


def test_observer_bounds_follow_assumption1():
    # rho_q bounds ||qtilde_v|| of a unit quaternion, so it is below 1
    for rho_q, rho_w in ((0.0, 0.0), (0.999, 1e3), (2.15e-5, 1.56e-5)):
        check_observer_bounds(rho_q, rho_w)
    for rho_q in (1.0, -1e-9, math.nan, math.inf):
        with pytest.raises(ValueError, match=re.escape("rho_q must be in [0, 1)")):
            check_observer_bounds(rho_q, 0.0)
    for rho_w in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match=rf"^rho_w must be nonnegative and finite, got {rho_w!r}$"):
            check_observer_bounds(0.0, rho_w)
    budget = paper_faulty(duration=10.0).budget
    with pytest.raises(ValueError, match=re.escape("rho_q must be in [0, 1)")):
        replace(budget, rho_q=1.0)
    with pytest.raises(ValueError, match="^rho_w must be nonnegative and finite, got -1.0$"):
        replace(budget, rho_w=-1.0)


def test_validation_rejects_rank_deficient_allocation():
    dead = HealthProfile([SignalSpec("const", 0.0) for _ in range(4)])
    with pytest.raises(ValueError, match=r"^rank\(D \* Ehat\(t\)\) < 3 at t = 0 s$"):
        paper_fault_free(health_estimate=dead)


def test_validation_names_the_first_time_the_estimate_loses_rank():
    # full rank at t = 0; pair 3 fades out after t = pi/2 with pair 4 dead
    fading = HealthProfile([SignalSpec("const", 1.0), SignalSpec("const", 1.0),
                            SignalSpec("cos", 0.0, scale=1.0),
                            SignalSpec("const", 0.0)])
    with pytest.raises(ValueError, match=r"^rank\(D \* Ehat\(t\)\) < 3 at t = 1\.58 s$"):
        paper_fault_free(duration=5.0, health_estimate=fading)
    paper_fault_free(duration=1.5, health_estimate=fading)


def test_health_estimate_runs():
    # pair 1 switches between 0 and 1; pair 4 is clipped at 1 for stretches
    # and varies between them, so rows repeat in runs, come back after other
    # rows, and change at every step
    estimate = HealthProfile([SignalSpec("sin", 0.5, scale=1e9, phase=0.5),
                              SignalSpec("const", 1.0), SignalSpec("const", 1.0),
                              SignalSpec("sin", 0.9, scale=0.2, freq=0.3)])
    sc = paper_fault_free(duration=60.0, health_estimate=estimate)
    grid = np.round(estimate(sc.dt * np.arange(sc.n_steps)), 15)
    rows, runs, starts = sc.health_estimate_runs
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
    assert replace(load_scenario(str(path)), duration=20.0).n_steps == 2000
    with pytest.raises(ValueError):
        replace(load_scenario(str(path)), dt=-1.0)


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
    for key in ("tail_fraction", "record_decimation", "duration"):
        del d[key]
    del d["noise"]["b0"]
    del d["omega_d"]["z"]
    sc = scenario_from_dict(d)
    assert (sc.tail_fraction, sc.record_decimation, sc.duration) == (0.2, 1, 600.0)
    assert np.array_equal(sc.noise.b0, np.zeros(3))
    assert sc.omega_d.z == SignalSpec("const", 0.0)


def test_shapes_checked_at_construction():
    with pytest.raises(ValueError, match="K must be 3x3"):
        ControllerGains(k=0.2, K=np.eye(2), epsilon=0.01, gamma=0.01)
    with pytest.raises(ValueError, match="J_hat must be 3x3"):
        ModelEstimates(J_hat=np.eye(2))
    with pytest.raises(ValueError, match="tau_d_hat must be a 3-vector"):
        ModelEstimates(J_hat=np.eye(3), tau_d_hat=np.zeros(2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # inf - inf in the symmetry test warned
        with pytest.raises(ValueError, match=r"^J_hat must be finite, got \[\[8.0, inf, 0.0\]"):
            ModelEstimates(J_hat=np.array([[8.0, math.inf, 0.0], [math.inf, 7.0, 0.0], [0.0, 0.0, 6.0]]))
    with pytest.raises(ValueError, match="J must be 3x3"):
        nominal_exact(J=np.eye(2))
    with pytest.raises(ValueError, match="qd0 must be a 4-vector"):
        nominal_exact(qd0=np.array([1.0, 0.0, 0.0]))
    with pytest.raises(ValueError, match="4-element q0 and a 3-element omega0, got 3 and 3"):
        InitialConditionSpec(q0=[1.0, 0.0, 0.0])


@pytest.mark.parametrize("gains", [dict(k_o=0.0), dict(k_o=-1.0), dict(k_b=math.nan),
                                   dict(k_b=math.inf), dict(k_o=0, k_b=-0.1)])
def test_bias_observer_gains_checked_at_construction(gains):
    with pytest.raises(ValueError, match="bias observer gain k_[ob] must be positive and finite"):
        ObserverSpec(kind="bias", **gains)
    ObserverSpec(kind="synthetic", **gains)  # the gains of another kind are not read


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


def _never_called(*args, **kwargs):
    raise AssertionError("the closed loop ran")


INVALID_INERTIA_OR_OBSERVER_FILES = {
    "J-nan": (_set("J", value=[[math.nan, 0.15, -0.27], [0.15, 6.75, -0.1], [-0.27, -0.1, 6.25]]),
              "J must be finite, got [[nan, 0.15, -0.27]"),
    "J_hat-inf": (_set("estimates", "J_hat", value=[[8.0, math.inf, 0.0], [math.inf, 7.0, 0.0],
                                                     [0.0, 0.0, 6.0]]),
                  "J_hat must be finite, got [[8.0, inf, 0.0]"),
    "indefinite-J": (_set("J", value=[[1.0, 0.0, 0.0], [0.0, -2.0, 0.0], [0.0, 0.0, 3.0]]),
                     "J must be positive definite"),
    "asymmetric-J": (_set("J", value=[[8.0, 0.5, 0.0], [0.0, 7.0, 0.0], [0.0, 0.0, 6.0]]),
                     "J must be symmetric"),
    # the paper-faulty file with -7.0 in place of J_hat's 7.0
    "indefinite-J_hat": (_set("estimates", "J_hat", value=[[8.0, 0.0, 0.0], [0.0, -7.0, 0.0],
                                                          [0.0, 0.0, 6.0]]),
                         "J_hat must be positive definite"),
    "synthetic-amplitudes": (_set("observer", value={"kind": "synthetic", "amp_q": 1.5, "amp_w": -1}),
                             "rho_q must be in [0, 1)"),
    "bias-k_o-negative": (_set("observer", value={"kind": "bias", "k_o": -1.0, "k_b": 0.1}),
                          "bias observer gain k_o must be positive and finite, got -1.0"),
    "bias-k_b-infinite": (_set("observer", value={"kind": "bias", "k_o": 1.0, "k_b": math.inf}),
                          "bias observer gain k_b must be positive and finite, got inf"),
    "tail_fraction-zero": (_set("tail_fraction", value=0.0), "tail_fraction must be in (0, 1]"),
    "amplitude-above-budget": (_set("observer", "amp_q", value=3e-5),
                               "observer (amp_q, amp_w) = (3e-05, 1.56e-05) exceed "
                               "budget (rho_q, rho_w) = (2.15e-05, 1.56e-05)"),
    "J_hat_norm-mismatch": (_set("budget", "J_hat_norm", value=1.0),
                            "budget.J_hat_norm = 1.0 is not ||estimates.J_hat|| = 8.0"),
    "D-not-2-d": (_set("bank", "D", value=[1.0, 0.0, 0.0]), "D must be 3 x m with m >= 3, got shape (3,)"),
    "tau_max-negative": (_set("bank", "tau_max", value=-1.0), "tau_max must be positive, got -1.0"),
    "tau_max-zero": (_set("bank", "tau_max", value=0.0), "tau_max must be positive, got 0.0"),
    "tau_max-nan": (_set("bank", "tau_max", value=math.nan), "tau_max must be positive, got nan"),
    "q0-zero": (_set("init", "q0", value=[0.0, 0.0, 0.0, 0.0]), "init.q0 must be nonzero"),
    "q0-not-numbers": (_set("init", "q0", value=["a", "b", "c", "d"]),
                       "init.q0 must be finite numbers, got ['a', 'b', 'c', 'd']"),
    "omega0-infinite": (_set("init", "omega0", value=[math.inf, 0.0, 0.0]),
                        "init.omega0 must be finite numbers, got [inf, 0.0, 0.0]"),
    "omega_abs_max-nan": (_set("init", "omega_abs_max", value=math.nan),
                          "init.omega_abs_max must be nonnegative and finite, got nan"),
    "theta_max-negative": (_set("init", "theta_max", value=-1.0),
                           "init.theta_max must be nonnegative and finite, got -1.0"),
    "qd0-zero": (_set("qd0", value=[0.0, 0.0, 0.0, 0.0]), "qd0 must be finite and nonzero"),
    "qd0-nan": (_set("qd0", value=[math.nan, 0.0, 0.0, 1.0]), "qd0 must be finite and nonzero"),
    "disturbance-unknown-kind": (_set("disturbance", "x", "kind", value="tan"),
                                 "unknown signal kind 'tan'"),
    "health-unknown-kind": (_set("health", "profiles", 0, "kind", value="tan"),
                            "unknown signal kind 'tan'"),
    # kind and offset have no default: a healthy pair left without its
    # offset would otherwise read as a dead one
    "health-no-offset": (_delete("health", "profiles", 0, "offset"),
                         "missing key 'health.profiles[0].offset'"),
    "omega_d-no-offset": (_delete("omega_d", "x", "offset"), "missing key 'omega_d.x.offset'"),
    "disturbance-no-kind": (_delete("disturbance", "y", "kind"), "missing key 'disturbance.y.kind'"),
    "omega_d-freq-nan": (_set("omega_d", "x", "freq", value=math.nan), "freq must be finite, got nan"),
    "health-scale-infinite": (_set("health", "profiles", 1, "scale", value=math.inf),
                              "scale must be finite, got inf"),
    "dt-nan": (_set("dt", value=math.nan), "dt must be positive and finite, got nan"),
    "duration-infinite": (_set("duration", value=math.inf),
                          "duration must be finite and at least 10*dt, got inf"),
    "seed-negative": (_set("seed", value=-5), "seed must be >= 0, got -5"),
    "sigma_theta-negative": (_set("noise", "sigma_theta", value=-1.0),
                             "sigma_theta must be nonnegative and finite, got -1.0"),
    "sigma_u-nan": (_set("noise", "sigma_u", value=math.nan),
                    "sigma_u must be nonnegative and finite, got nan"),
    "b0-2-elements": (_set("noise", "b0", value=[0.0, 0.0]), "b0 must be a 3-vector, got shape (2,)"),
    "synthetic-freq_q-nan": (_set("observer", "freq_q", value=math.nan), "freq_q must be finite, got nan"),
    "tau_d_hat-nan": (_set("estimates", "tau_d_hat", value=[math.nan, 0.0, 0.0]),
                      "tau_d_hat must be finite, got [nan, 0.0, 0.0]"),
}


# each of these fields, when NaN, once made the bound iteration run forever
@pytest.mark.parametrize("path", [("budget", "rho_d"), ("budget", "rho_d_hat"), ("budget", "rho_v"),
                                  ("budget", "rho_a"), ("budget", "rho_w"), ("gains", "epsilon"),
                                  ("gains", "gamma")])
def test_cli_nan_budget_or_gain_in_file_exits_1_naming_it(tmp_path, capsys, path):
    file = tmp_path / "nan.yaml"
    file.write_text(_set(*path, value=math.nan)())
    assert f"{path[1]}: .nan" in file.read_text()
    assert cli_main(["predict-bounds", "--scenario", str(file), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {file}: {path[1]} must be ")
    assert not list(tmp_path.glob("*.jsonl"))


# epsilon <= rho_s fails both commands alike; a rho_v whose square overflows
# makes rho_s huge, where squaring it with ** raised OverflowError
@pytest.mark.parametrize("command", ["check-gains", "predict-bounds"])
@pytest.mark.parametrize("path, value", [(("gains", "epsilon"), 1.5e-5), (("budget", "rho_v"), 1e200)])
def test_cli_epsilon_not_above_rho_s_exits_2(tmp_path, capsys, command, path, value):
    file = tmp_path / "eps.yaml"
    file.write_text(_set(*path, value=value)())
    assert cli_main([command, "--scenario", str(file)]) == 2
    out, err = capsys.readouterr()
    if command == "check-gains":
        assert re.search(r"^epsilon = .* vs rho_s = .*: FAIL", out, re.M)
    else:
        assert re.fullmatch(r"prediction failed: epsilon = \S+ <= rho_s = \S+\n", err)


@pytest.mark.parametrize("command", ["check-gains", "predict-bounds", "simulate"])
@pytest.mark.parametrize("case", INVALID_INERTIA_OR_OBSERVER_FILES)
def test_cli_invalid_inertia_or_observer_exits_1_before_any_step(tmp_path, monkeypatch, capsys,
                                                                 case, command):
    text, named = INVALID_INERTIA_OR_OBSERVER_FILES[case]
    path = tmp_path / "bad.yaml"
    path.write_text(text())
    monkeypatch.setattr(cli, "run_scenario", _never_called)
    monkeypatch.chdir(tmp_path)  # where a file that loaded would be written
    assert cli_main([command, "--scenario", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ")
    assert named in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["simulate", "montecarlo", "predict-bounds", "verify",
                                     "check-gains"])
def test_cli_indefinite_J_hat_exits_1_from_every_command(tmp_path, monkeypatch, capsys, command):
    path = tmp_path / "bad.yaml"
    path.write_text(INVALID_INERTIA_OR_OBSERVER_FILES["indefinite-J_hat"][0]())
    for module in (cli, harness):
        monkeypatch.setattr(module, "run_scenario", _never_called)
    monkeypatch.chdir(tmp_path)  # where a file that loaded would be written
    assert cli_main([command, "--scenario", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {path}: J_hat must be positive definite\n"
    assert list(tmp_path.iterdir()) == [path]
