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
from ftacs.estimation import SyntheticErrorProfile
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
from invalid_inputs import RUNS, check_run, nested, run_id, scenario_bytes


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
    objects = [sc, sc.estimates, sc.gains, sc.budget, sc.noise, SyntheticErrorProfile(),
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
            + [(sc.observer, f.name) for f in fields(ObserverSpec) if f.name != "kind"]
            + [(sc.omega_d.x, name) for name in ("offset", "scale", "freq", "phase")]
            + [(sc.init, name) for name in ("omega_abs_max", "theta_max")]
            + [(sc.noise, name) for name in ("sigma_theta", "sigma_u", "sigma_v")]
            + [(sc.bank, "tau_max")]
            + [(sc, name) for name in ("duration", "dt", "tail_fraction")])


def test_configuration_scalars_are_stored_as_floats():
    sc = paper_faulty(duration=10.0)
    cases = _float_fields(sc)
    assert len(cases) == 35
    for obj, name in cases:
        value = getattr(obj, name)
        assert type(value) is float
        for given in (np.float64(value), np.float32(value)):
            assert type(getattr(replace(obj, **{name: given}), name)) is float
    gains = ControllerGains(k=1, K=np.eye(3), epsilon=np.int64(2), gamma=0.01)
    assert (gains.k, gains.epsilon) == (1.0, 2.0)
    assert type(gains.k) is type(gains.epsilon) is float
    init = InitialConditionSpec(q0=np.array([1, 0, 0, 0]), omega0=[np.float32(0.5), 0, np.int64(1)])
    assert init.q0 == (1.0, 0.0, 0.0, 0.0) and init.omega0 == (0.5, 0.0, 1.0)
    assert all(type(v) is float for v in init.q0 + init.omega0)
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


def test_scenario_name_is_at_most_200_bytes(monkeypatch):
    # a longer name with the longest suffix a command writes is no file name
    sc = paper_faulty(duration=10.0)
    assert replace(sc, name="x" * 200).name == "x" * 200
    monkeypatch.setattr(scenario, "_equal_row_runs", _never_called)
    for name, size in (("x" * 201, 201), ("\u00e9" * 101, 202)):
        with pytest.raises(ValueError, match=rf"^name must be at most 200 bytes in UTF-8, got {size}$"):
            replace(sc, name=name)


def test_scenario_seed_is_below_2_to_the_64(monkeypatch):
    # 2**64 - 1 is the largest 20-digit seed the 200-byte name rule leaves room for
    sc = paper_faulty(duration=10.0)
    assert replace(sc, name="x" * 200, seed=2**64 - 1).seed == 2**64 - 1
    monkeypatch.setattr(scenario, "_equal_row_runs", _never_called)
    with pytest.raises(ValueError, match=rf"^seed must be < 2\*\*64, got {2**64}$"):
        replace(sc, seed=2**64)


@pytest.mark.parametrize("value", [1e-200, 1e200, math.nan])
def test_quaternion_sum_of_squares_must_be_positive_and_finite(value, monkeypatch):
    # every renormalization divides by the root of this sum: 1e-200 passed
    # as nonzero and then divided by zero in the reference attitude RK4
    sc = paper_faulty(duration=10.0)
    for scale in (1e-150, 1e150):  # tiny and huge, but their squares are floats
        assert InitialConditionSpec(q0=[scale, 0.0, 0.0, 0.0]).q0[0] == scale
        replace(sc, qd0=np.array([scale, 0.0, 0.0, 0.0]))
    monkeypatch.setattr(scenario, "_equal_row_runs", _never_called)
    q = [value, 0.0, 0.0, 0.0]
    rule = f"with a sum of squares in (0, inf), got {q!r}"
    with pytest.raises(ValueError, match="^" + re.escape(f"qd0 must be finite and nonzero, {rule}") + "$"):
        replace(sc, qd0=np.array(q))
    if math.isfinite(value):
        with pytest.raises(ValueError, match="^" + re.escape(f"init.q0 must be nonzero, {rule}") + "$"):
            InitialConditionSpec(q0=q)


def test_every_observer_kind_holds_its_amplitudes_to_assumption1():
    # the profile is declared once, in SyntheticErrorProfile, and checked for every kind
    assert [f.name for f in fields(ObserverSpec)] == [f.name for f in fields(SyntheticErrorProfile)] + [
        "kind", "k_o", "k_b"]
    for kind in ("perfect", "synthetic", "bias"):
        with pytest.raises(ValueError, match=re.escape("(amp_q, amp_w) = (1.5, 0.0): rho_q must be in")):
            ObserverSpec(kind=kind, amp_q=1.5)
        with pytest.raises(ValueError, match="^phase_w must be finite, got inf$"):
            ObserverSpec(kind=kind, phase_w=math.inf)


def _float32_fields(sc):
    """sc with np.float32 values in the fields that SignalSpec, ObserverSpec
    and InitialConditionSpec store as floats beyond the amplitudes."""
    def f32(obj, *names):
        return replace(obj, **{name: np.float32(getattr(obj, name)) for name in names})
    return replace(sc, observer=f32(sc.observer, "freq_q", "freq_w", "phase_q", "phase_w", "k_o", "k_b"),
                   omega_d=replace(sc.omega_d, x=f32(sc.omega_d.x, "offset", "scale", "freq", "phase")),
                   init=f32(sc.init, "omega_abs_max", "theta_max"))


def _simulate_bias():
    return paper_fault_free(observer=ObserverSpec(kind="bias", k_o=1.0, k_b=0.1), duration=10.0, seed=1)


@pytest.mark.parametrize("build", [*PRESETS.values(), _simulate_bias,
                                   lambda: _float32_fields(paper_faulty(duration=10.0))],
                         ids=[*PRESETS, "simulate-bias", "float32-fields"])
def test_saved_scenario_loads_back_equal(tmp_path, build):
    sc = build()
    path = tmp_path / "scenario.yaml"
    save_scenario(sc, path)
    assert scenario_to_dict(load_scenario_file(path)) == scenario_to_dict(sc)


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
        monkeypatch.setattr(scenario, "_Loader",
                            type("_Loader", (scenario._UniqueKeys, yaml.SafeLoader), {}))
        monkeypatch.setattr(scenario, "_Dumper", yaml.SafeDumper)
    elif yaml.__with_libyaml__:
        assert issubclass(scenario._Loader, yaml.CSafeLoader) and scenario._Dumper is yaml.CSafeDumper
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


def _never_called(*args, **kwargs):
    raise AssertionError("a stage ran that the case must not reach")


# the stages that a row of the table must not reach, by the last one it may
UNREACHED = {"load": [(harness, "predict"), (cli, "predict"), (harness, "closed_loop")],
             "predict": [(harness, "closed_loop")], "run": []}


@pytest.mark.parametrize("row, line", RUNS, ids=[run_id(*run) for run in RUNS])
def test_invalid_input_exits_with_its_code(row, line, tmp_path, monkeypatch, capsys):
    # each command line of the table's rows through cli.main; CI runs them through the ftacs command
    for module, name in UNREACHED[row.reaches]:
        monkeypatch.setattr(module, name, _never_called)

    def run(argv, cwd):
        monkeypatch.chdir(cwd)
        code = cli_main(argv)
        return code, *(text.encode() for text in capsys.readouterr())

    check_run(row, line, tmp_path, run)


@pytest.mark.parametrize("path", [("dt",), ("budget", "rho_d"), ("gains", "k"), ("bank", "tau_max"),
                                  ("init", "q0")])
def test_integer_beyond_the_float_range_is_named_not_echoed(path):
    big = 10**400 - 1
    d = yaml.safe_load(scenario_bytes({".".join(path): [0, 0, big, 0] if path[-1] == "q0" else big}))
    name = "init.q0" if path[-1] == "q0" else path[-1]
    with pytest.raises(ValueError, match=rf"^{name} must be a real number within the float range, "
                                         r"got one too large for a float$"):
        scenario_from_dict(d)


@pytest.mark.parametrize("build, message", [
    (lambda: scenario_from_dict(yaml.safe_load(scenario_bytes({"seed": 10**400}))),
     "seed must be < 2**64, got an integer of 401 digits"),
    (lambda: scenario_from_dict(yaml.safe_load(scenario_bytes({"record_decimation": -10**400}))),
     "record_decimation must be >= 1, got a negative integer of 401 digits"),
    (lambda: harness.run_campaign(paper_faulty(duration=10.0), -10**400),
     "n_instances must be >= 1, got a negative integer of 401 digits"),
    # beyond the 4300 digits that str() converts
    (lambda: harness.run_campaign(paper_faulty(duration=10.0), -10**5000),
     "n_instances must be >= 1, got a negative integer of 5001 digits"),
    (lambda: scenario_from_dict(yaml.safe_load(scenario_bytes({"seed": 10**4300 - 1}))),
     "seed must be < 2**64, got an integer of 4300 digits"),
], ids=["seed", "record_decimation", "n_instances", "n_instances-5001-digits", "seed-4300-digits"])
def test_integer_of_more_than_20_digits_is_named_by_its_digit_count(monkeypatch, build, message):
    monkeypatch.setattr(harness, "predict", _never_called)
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == message


def test_brackets_in_a_quoted_name_or_a_comment_are_not_nesting(tmp_path):
    # the nesting check counts collections, not the characters that may open one
    path = tmp_path / "brackets.yaml"
    save_scenario(paper_faulty(name="[" * 100, duration=10.0), path)
    text = path.read_text()
    assert "name: '[[[" in text
    assert load_scenario_file(path).name == "[" * 100
    path.write_text(f"# {'[{' * scenario.NESTING_LIMIT}\n{text}")
    assert load_scenario_file(path).name == "[" * 100


def test_pure_python_loader_rejects_deep_nesting_with_an_error(tmp_path, monkeypatch):
    # without libyaml, yaml.load raised RecursionError past about 1,000 levels
    monkeypatch.setattr(scenario, "_Loader", type("_Loader", (scenario._UniqueKeys, yaml.SafeLoader), {}))
    path = tmp_path / "deep.yaml"
    path.write_bytes(scenario_bytes(nested(2000)))
    with pytest.raises(ValueError, match=r"deep\.yaml: collections nested too deeply for the pure-Python"):
        load_scenario_file(path)
