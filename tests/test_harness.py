import copy
import csv
import importlib.util
import json
import math
import re

from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np
import pytest
import yaml

from ftacs import ControllerGains, cli, harness, kernel
from ftacs.actuation import HealthProfile, SignalSpec, allocation_matrix
from ftacs.bounds import predict
from ftacs.cli import main as cli_main
from ftacs.config import UncertaintyBudget, zero_budget
from ftacs.estimation import random_unit_vector
from ftacs.errors import (BoundViolated, FtacsError, GainConditionViolated, NonFiniteState,
                          NotContractive)
from ftacs.harness import (
    CampaignSummary,
    RunTrace,
    export_bound_trace_jsonl,
    export_summary_jsonl,
    export_trace_csv,
    instance_seeds,
    run_campaign,
    run_scenario,
    scenario_signals,
    trace_columns,
    verify,
)
from ftacs.scenario import (
    PAPER_J,
    PRESETS,
    InitialConditionSpec,
    ObserverSpec,
    Scenario,
    VectorSignal,
    nominal_exact,
    paper_budget,
    paper_fault_free,
    paper_faulty,
    paper_gains,
    save_scenario,
    scenario_to_dict,
)
from float_kernel import reference_attitude
from reference import (normalize, quat_from_axis_angle, spectral_norm, steady_state_stats,
                       with_numpy_scalars)

# the keys of the campaign record, in order; the five tail maxima among them
TAIL_MAXIMA_KEYS = ["theta_tail_max_deg", "omega_tail_max_rad_s", "qe_tail_max",
                    "qtilde_tail_max", "wtilde_tail_max"]
RECORD_KEYS = ["n_instances", "theta_bound_deg", "omega_bound_rad_s", "qe_bound",
               *TAIL_MAXIMA_KEYS, "theta_margin_ratio", "omega_margin_ratio", "roundoff_floor",
               "failures", "passed"]


def reject_constant(name):
    """parse_constant for json.loads: NaN and Infinity are not JSON."""
    raise ValueError(f"{name} is not JSON")


# the published fault-free budget, declared for nominal-exact's inertia estimate
NOMINAL_PAPER_BUDGET = replace(paper_budget(rho_E=0.0), J_hat_norm=spectral_norm(PAPER_J))


def short_scenario(**overrides):
    kw = dict(duration=20.0, seed=99)
    kw.update(overrides)
    return paper_fault_free(**kw)


def nan_filled(shape, dtype=float, **kwargs):
    """np.empty whose float arrays read NaN until written."""
    return np.full(shape, np.nan, dtype=dtype, **kwargs)


# the two 256-row cases record exactly one ROW_BLOCK
@pytest.mark.parametrize("make, dec", [
    (lambda: short_scenario(record_decimation=5), 5),
    (lambda: paper_faulty(duration=2.56), 1),
    (lambda: paper_faulty(duration=25.6, record_decimation=10), 10),
], ids=["dec5", "256-rows-dec1", "256-rows-dec10"])
def test_run_trace_shape_and_grid(monkeypatch, make, dec):
    sc = make()
    monkeypatch.setattr(np, "empty", nan_filled)  # an unfilled row reads NaN
    trace = run_scenario(sc)
    n = -(-sc.n_steps // dec)
    assert trace.t.shape == (n,)
    assert trace.qe.shape == (n, 4)
    assert trace.tau_u.shape == (n, 4)
    assert np.array_equal(trace.t, (sc.dt * np.arange(sc.n_steps))[::dec])
    for f in fields(RunTrace):
        value = getattr(trace, f.name)
        if f.name == "record":  # the instance record's floats
            value = [*list(value.values())[:-1], *value["tau_u_peak"]]
        assert np.isfinite(value).all(), f.name
    assert trace.dt == sc.dt * dec
    assert np.all(trace.theta_e_deg >= 0.0)
    assert np.all(trace.theta_e_deg <= 180.0)


def same_bytes(a, b) -> bool:
    """a and b hold the same doubles in the same shape, -0.0 told from 0.0,
    which == cannot tell apart."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def specs(*args) -> list[SignalSpec]:
    return [SignalSpec(*a[:2], **dict(zip(("scale", "freq", "phase"), a[2:]))) for a in args]


# The synthetic and bias cases: every kind in value and derivative, with an
# abs_sin at phase 0, whose sin x is 0 at t = 0, so its derivative there is
# (scale*freq) * 0.0 * cos 0, -0.0 for a negative scale; a cos with a
# negative scale; a const offset of -0.0, which offset + 0.0 makes 0.0. The
# health clips at 1 and at 0, and an abs_sin of offset and scale -0.0 is
# -0.0, which clip keeps.
EVERY_KIND = dict(
    omega_d=VectorSignal(*specs(("abs_sin", 1e-3, -2e-3, 1e-3, 0.0), ("cos", 0.0, -2e-3, 3e-3, 0.4),
                                ("const", -0.0))),
    disturbance=VectorSignal(*specs(("sin", 1e-6, 2.5e-6, 1e-3, -0.3),
                                    ("abs_sin", 0.0, -2.5e-6, 2e-3, 1.0), ("cos", 0.0, 2.5e-6))),
    health=HealthProfile(specs(("sin", 0.5, 2.0, 3.0, 0.2), ("const", 1.5),
                               ("abs_sin", -0.0, -0.0, 1.0, 0.5), ("cos", 0.2, -1.0, 2.0))),
)
STEP_TABLE_CASES = {
    "synthetic": lambda: short_scenario(
        **EVERY_KIND, observer=ObserverSpec(kind="synthetic", amp_q=2e-5, amp_w=1.5e-5,
                                            freq_q=0.3, freq_w=-0.2, phase_q=0.9, phase_w=-1.1)),
    "bias": lambda: short_scenario(**EVERY_KIND, observer=ObserverSpec(kind="bias")),
    # sin x is -0.0 at t = 0 for the abs_sin, whose np.sign is 0.0
    "perfect": lambda: short_scenario(
        omega_d=VectorSignal(*specs(("sin", 1e-3, 2e-3, 2e-3, 0.1), ("sin", 0.0, -1e-3),
                                    ("abs_sin", 0.0, 1e-3, -5e-3, -0.0))),
        observer=ObserverSpec(kind="perfect")),
    **{f"{name}-600s": lambda make=make: make(duration=600.0) for name, make in PRESETS.items()},
}


@pytest.mark.parametrize("case", sorted(STEP_TABLE_CASES))
def test_step_table_columns_are_the_scenario_signals(case):
    # byte for byte the numpy methods that define each signal
    sc = STEP_TABLE_CASES[case]()
    dt, n, m = sc.dt, sc.n_steps, sc.bank.m
    table = scenario_signals(sc).table
    t = dt * np.arange(n)
    assert same_bytes(table[:, 0], t)
    assert same_bytes(table[:, 5:8], sc.omega_d(t))
    assert same_bytes(table[:, 8:11], sc.omega_d.derivative(t))
    assert same_bytes(table[:, 11:14], sc.disturbance(t + 0.5 * dt))
    assert same_bytes(table[:, 14:14 + m], sc.health(t))
    if sc.observer.kind == "synthetic":
        synth = sc.observer
        assert table.shape == (n, 21 + m)
        assert same_bytes(table[:, 14 + m:18 + m], synth.qtilde(t) * [1.0, -1.0, -1.0, -1.0])
        assert same_bytes(table[:, 18 + m:], synth.omega_tilde(t))
    else:
        assert table.shape == (n, 14 + m)
    # the reference attitude: a chain of the float kernel's kinematics RK4
    # steps from qd0, through omega_d at each step's start, midpoint and end
    expected = table.copy()
    reference_attitude(sc, expected)
    assert same_bytes(table[:, 1:5], expected[:, 1:5])
    if case in ("synthetic", "bias"):  # the values that == does not tell apart
        assert np.signbit(table[0, 8]) and table[0, 8] == 0.0
        assert not np.signbit(table[:, 7]).any() and np.signbit(sc.omega_d.z.offset)
        assert np.signbit(table[:, 16]).all() and not table[:, 16].any()
        health = table[:, 14:14 + m]  # clipped at 0 and at 1
        assert (health[:, 0] == 0.0).any() and (health[:, 0] == 1.0).any() and (health[:, 1] == 1.0).all()


def assert_traces_equal(a, b):
    for f in fields(RunTrace):
        x, y = getattr(a, f.name), getattr(b, f.name)
        assert np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y, f.name


def test_determinism_bitwise():
    for kind in ("synthetic", "bias"):
        sc = short_scenario(observer=ObserverSpec(kind=kind))
        assert_traces_equal(run_scenario(sc), run_scenario(sc))


def test_numpy_scalar_configuration_gives_the_same_trace():
    # the kernel takes the gains, the robust coefficients, tau_max and the
    # noise levels as they are stored; numpy scalars give the trace of floats
    for sc in (paper_faulty(duration=20.0), short_scenario(observer=ObserverSpec(kind="bias"))):
        numpy_sc = replace(
            sc,
            gains=with_numpy_scalars(sc.gains, "k", "epsilon", "gamma"),
            budget=with_numpy_scalars(sc.budget, *(f.name for f in fields(UncertaintyBudget))),
            noise=with_numpy_scalars(sc.noise, "sigma_theta", "sigma_u", "sigma_v"),
            bank=with_numpy_scalars(sc.bank, "tau_max"),
        )
        assert type(numpy_sc.gains.k) is type(numpy_sc.bank.tau_max) is np.float64
        assert_traces_equal(run_scenario(numpy_sc), run_scenario(sc))


def test_seed_changes_random_initial_condition():
    sc = short_scenario()
    a = run_scenario(replace(sc, seed=1))
    b = run_scenario(replace(sc, seed=2))
    assert not np.array_equal(a.qe[0], b.qe[0])


def test_initial_state_is_the_numpy_construction_bit_for_bit():
    # a random attitude is the axis-angle quaternion normalized twice: leaving
    # out either normalization changes the bits of about 2 % of the draws
    init = InitialConditionSpec(kind="random", omega_abs_max=0.05, theta_max=math.pi)
    sc = replace(short_scenario(), init=init)
    rng, ref = np.random.default_rng(11), np.random.default_rng(11)
    for _ in range(2000):
        omega0 = ref.uniform(-0.05, 0.05, size=3)
        theta0 = ref.uniform(0.0, math.pi)
        q0 = normalize(quat_from_axis_angle(random_unit_vector(ref), theta0))
        assert harness._initial_state(sc, rng) == (tuple(q0.tolist()), tuple(omega0.tolist()))
    # a fixed q0 is normalized once: non-unit, tiny and huge, whose squares
    # are near the ends of the float range
    for q0 in ([0.3, -2.0, 0.5, 1.0], [1e-150, 2e-150, -3e-150, 5e-151],
               [5e150, -1e150, 2e150, 3e150]):
        sc = replace(sc, init=InitialConditionSpec(q0=q0, omega0=(0.01, -0.02, 0.03)))
        assert harness._initial_state(sc, rng) == (tuple(normalize(q0).tolist()),
                                                   (0.01, -0.02, 0.03))


def test_synthetic_observer_error_injected():
    sc = short_scenario()
    trace = run_scenario(sc)
    assert trace.qtilde_norm.max() <= sc.budget.rho_q + 1e-12
    assert trace.wtilde_norm.max() <= sc.budget.rho_w + 1e-12
    assert trace.qtilde_norm.max() > 0.5 * sc.budget.rho_q  # actually injected


def test_bias_observer_path_runs():
    sc = short_scenario(observer=ObserverSpec(kind="bias", k_o=1.0, k_b=0.1))
    trace = run_scenario(sc)
    assert np.isfinite(trace.theta_e_deg).all()
    assert trace.qtilde_norm.max() > 0.0


def test_steady_state_stats_constant_trace():
    n = 100
    trace = _fake_trace(np.full(n, 2.5), np.tile([3e-4, 0, 0], (n, 1)))
    st = steady_state_stats(trace, 0.2)
    assert st["theta_tail_max_deg"] == 2.5
    assert st["omega_tail_max_rad_s"] == pytest.approx(3e-4)


def test_steady_state_stats_decay_to_floor():
    # decaying exponential + floor: tail max ~ floor once transients are gone
    t = np.linspace(0, 100, 2001)
    floor = 0.01
    theta = floor + np.exp(-t / 2.0)  # 5 time constants by t = 10
    trace = _fake_trace(theta, np.zeros((t.size, 3)), t=t)
    st = steady_state_stats(trace, 0.2)
    assert abs(st["theta_tail_max_deg"] - floor) / floor < 0.01


def test_steady_state_stats_full_window_is_global_max():
    theta = np.array([5.0, 1.0, 0.5, 0.2])
    trace = _fake_trace(theta, np.zeros((4, 3)))
    assert steady_state_stats(trace, 1.0)["theta_tail_max_deg"] == 5.0


def test_steady_state_stats_command_peak_covers_the_whole_run():
    trace = _fake_trace(np.ones(10), np.zeros((10, 3)))
    trace.tau_u[0] = [0.02, -0.015, 0.0, 0.001]  # before the tail window
    trace.tau_u[9, 3] = -0.005
    st = steady_state_stats(trace, 0.2)
    assert st["tau_u_peak"] == [0.02, 0.015, 0.0, 0.005]
    assert all(type(peak) is float for peak in st["tau_u_peak"])


def test_steady_state_stats_bad_fraction():
    trace = _fake_trace(np.ones(10), np.zeros((10, 3)))
    for fraction in (0.0, -0.2, 1.5, math.nan):
        with pytest.raises(ValueError, match=re.escape("tail_fraction must be in (0, 1]")):
            steady_state_stats(trace, fraction)


def test_steady_state_stats_window_length():
    # theta falls by one per sample, so the maximum names the window's first
    # sample: the window holds the final max(1, round(fraction*n)) samples
    n = 10
    trace = _fake_trace(np.arange(n, 0, -1, dtype=float), np.zeros((n, 3)))
    for fraction, length in ((1.0, 10), (0.2, 2), (0.25, 2), (0.35, 4), (0.04, 1), (1e-9, 1)):
        assert steady_state_stats(trace, fraction)["theta_tail_max_deg"] == length


def test_json_record_writes_non_finite_floats_as_null():
    record = {"a": math.nan, "b": [1.0, math.inf, -math.inf, 2], "c": 3, "d": "x", "e": None}
    text = harness.json_record(record)
    assert text == '{"a": null, "b": [1.0, null, null, 2], "c": 3, "d": "x", "e": null}'
    finite = {"a": 0.1, "b": [1e-300, -2.5], "c": True}
    assert harness.json_record(finite) == json.dumps(finite)
    assert harness.json_record(finite, sort_keys=True) == json.dumps(finite, sort_keys=True)
    with pytest.raises(ValueError, match="Out of range float"):  # only scalars and lists are mapped
        harness.json_record({"a": (math.inf,)})


def test_steady_state_stats_empty():
    trace = _fake_trace(np.empty(0), np.empty((0, 3)))
    with pytest.raises(ValueError, match="^tail window has no samples$"):
        steady_state_stats(trace, 0.2)


def _fake_trace(theta, omega_e, t=None):
    n = len(theta)
    if t is None:
        t = np.arange(n, dtype=float)
    z = np.zeros((n, 3))
    return RunTrace(
        t=t,
        qe=np.tile([1.0, 0, 0, 0], (n, 1)),
        omega_e=np.asarray(omega_e, dtype=float),
        s=z,
        s_hat=z,
        theta_e_deg=np.asarray(theta, dtype=float),
        tau_u=np.zeros((n, 4)),
        qtilde_norm=np.zeros(n),
        wtilde_norm=np.zeros(n),
    )


def instance_record(theta, omega, qe=0.0, s=0.0, qtilde=0.0, wtilde=0.0):
    """An instance record, as run_instance returns it, of four thruster pairs."""
    return {"theta_tail_max_deg": theta, "omega_tail_max_rad_s": omega, "qe_tail_max": qe,
            "s_tail_max": s, "qtilde_tail_max": qtilde, "wtilde_tail_max": wtilde,
            "tau_u_peak": [0.0] * 4}


def test_instance_seeds_deterministic():
    assert instance_seeds(42, 5) == instance_seeds(42, 5)
    assert instance_seeds(42, 5)[:3] == instance_seeds(42, 3)
    assert instance_seeds(42, 3) != instance_seeds(43, 3)


def campaign_traces(monkeypatch, sc, n):
    """Run a campaign and keep the trace of every instance: each instance
    runs once more on the campaign's closed loop, writing its rows, before
    the campaign's own run, which writes none."""
    traces = []
    run_instance = harness.run_instance

    def keep(loop, scenario, seed, rec=None):
        rows = np.empty(loop.rec_shape)
        record = run_instance(loop, scenario, seed, rows)
        traces.append(RunTrace.from_rows(rows, scenario.dt * loop.record_every, record))
        return run_instance(loop, scenario, seed, rec)

    monkeypatch.setattr(harness, "run_instance", keep)
    summary = run_campaign(sc, n)
    monkeypatch.undo()
    return summary, traces


def test_campaign_n1_matches_run_scenario(monkeypatch):
    for kind in ("synthetic", "bias"):
        sc = short_scenario(observer=ObserverSpec(kind=kind))
        summary, (campaign_trace,) = campaign_traces(monkeypatch, sc, 1)
        seed = instance_seeds(sc.seed, 1)[0]
        trace = run_scenario(replace(sc, seed=seed))
        assert_traces_equal(campaign_trace, trace)
        st = steady_state_stats(trace, sc.tail_fraction)
        assert summary.instances[0] == st
        assert summary.record()["theta_tail_max_deg"] == st["theta_tail_max_deg"]


def test_campaign_shared_precompute_leaks_no_state(monkeypatch):
    # the third instance, after two others used the same precompute, equals
    # its standalone run
    sc = short_scenario(duration=10.0, observer=ObserverSpec(kind="bias"))
    summary, traces = campaign_traces(monkeypatch, sc, 3)
    assert len(traces) == 3
    assert_traces_equal(traces[2], run_scenario(replace(sc, seed=instance_seeds(sc.seed, 3)[2])))


@pytest.mark.parametrize("kind", ["synthetic", "bias"])
def test_campaign_instances_equal_their_standalone_runs(kind):
    # every instance, run on the campaign's shared signals and packed
    # constants, keeps the statistics of its own standalone run
    sc = short_scenario(duration=10.0, observer=ObserverSpec(kind=kind))
    summary = run_campaign(sc, 5)
    assert summary.seeds == instance_seeds(sc.seed, 5)
    assert summary.instances == [
        steady_state_stats(run_scenario(replace(sc, seed=seed)), sc.tail_fraction)
        for seed in summary.seeds]


def toggled_pair_scenario():
    # pair 1 is on, off, on, off: 0.5 + 1e9 sin(t + 0.5) clips to exactly 1 or 0
    # on every grid point, so the steps use two allocation matrices, the first
    # of them again after the second
    toggle = HealthProfile([SignalSpec("sin", 0.5, scale=1e9, phase=0.5),
                            *HealthProfile.healthy(3).profiles])
    return short_scenario(duration=10.0, health=toggle, health_estimate=toggle)


def test_alloc_index_names_each_step_s_allocation_matrix():
    sc = toggled_pair_scenario()
    signals = scenario_signals(sc)
    assert len(signals.alloc) == 2
    assert signals.alloc_index.dtype == np.int64
    switches = np.flatnonzero(np.diff(signals.alloc_index))
    assert len(switches) == 3
    for t, j in zip(signals.table[:, 0], signals.alloc_index, strict=True):
        expected = allocation_matrix(sc.bank, sc.health_estimate(t))
        assert np.array_equal(signals.alloc[j], expected), t


def test_campaign_with_revisited_allocation_matches_run_scenario(monkeypatch):
    sc = toggled_pair_scenario()
    _, traces = campaign_traces(monkeypatch, sc, 2)
    for trace, seed in zip(traces, instance_seeds(sc.seed, 2), strict=True):
        assert_traces_equal(trace, run_scenario(replace(sc, seed=seed)))


def campaign_copy(sc, **changes):
    """A copy of sc with the given fields set, its other fields the same
    objects: no field is checked or copied again."""
    instance = copy.copy(sc)
    for name, value in changes.items():
        object.__setattr__(instance, name, value)
    return instance


OTHER_DISTURBANCE = VectorSignal(x=SignalSpec("const", 1e-4))


@pytest.mark.parametrize("other", [
    lambda sc: short_scenario(),
    lambda sc: replace(sc, dt=sc.dt / 2),
    lambda sc: replace(sc, disturbance=OTHER_DISTURBANCE),
    lambda sc: campaign_copy(sc, dt=sc.dt / 2),
    lambda sc: campaign_copy(sc, disturbance=OTHER_DISTURBANCE, seed=7),
], ids=["equal-preset", "replaced-dt", "replaced-disturbance", "copy-dt", "copy-disturbance"])
def test_run_scenario_rejects_signals_of_another_scenario(other):
    # a scenario equal to the signals' one, or built from it by replace, has
    # fields that are not the same objects, so its signals might differ too
    sc = short_scenario()
    with pytest.raises(ValueError, match="^signals were built for a scenario that differs "
                                         "in more than its seed$"):
        run_scenario(other(sc), signals=scenario_signals(sc))


def test_run_scenario_takes_signals_of_a_copy_that_differs_in_its_seed():
    for kind in ("synthetic", "bias"):
        sc = short_scenario(duration=10.0, observer=ObserverSpec(kind=kind))
        trace = run_scenario(campaign_copy(sc, seed=12345), signals=scenario_signals(sc))
        assert_traces_equal(trace, run_scenario(replace(sc, seed=12345)))


def test_decimation_beyond_the_grid_records_what_n_steps_records(tmp_path, monkeypatch):
    # the kernel counts steps in 64-bit integers; a decimation of any size
    # records the first row alone, as record_decimation=n_steps does
    huge, grid = (paper_faulty(duration=1.0, record_decimation=d) for d in (10**30, 100))
    assert grid.n_steps == 100
    assert_traces_equal(run_scenario(huge), run_scenario(grid))
    kept = []
    monkeypatch.setattr(cli, "run_scenario", lambda sc: kept.append(run_scenario(sc)) or kept[-1])
    for sc in (huge, grid):
        path = tmp_path / f"dec{sc.record_decimation}.yaml"
        save_scenario(sc, path)
        assert cli_main(["simulate", "--scenario", str(path), "--out", str(path.with_suffix(""))]) == 0
    assert len(kept[0].t) == 1
    assert_traces_equal(*kept)


def fading_estimate():
    # pair 3 fades out after t = pi/2 and pair 4 is dead: full rank until then
    return HealthProfile([SignalSpec("const", 1.0), SignalSpec("const", 1.0),
                          SignalSpec("cos", 0.0, scale=1.0),
                          SignalSpec("const", 0.0)])


def test_rank_deficient_estimate_fails_before_any_instance(monkeypatch):
    # Scenario validation checks every step of the grid, not only t = 0
    monkeypatch.setattr(harness, "run_instance", never_called)
    with pytest.raises(ValueError, match=r"^rank\(D \* Ehat\(t\)\) < 3 at t = 1\.58 s$"):
        sc = short_scenario(duration=5.0, health_estimate=fading_estimate())
        run_campaign(sc, 3)


def test_cli_simulate_rejects_estimate_that_loses_rank_before_any_step(tmp_path, monkeypatch,
                                                                       capsys):
    d = scenario_to_dict(short_scenario(duration=5.0, observer=ObserverSpec(kind="bias")))
    d["health_estimate"] = {"profiles": [asdict(p) for p in fading_estimate().profiles]}
    sc_path = tmp_path / "fading.yaml"
    sc_path.write_text(yaml.safe_dump(d, sort_keys=False))
    monkeypatch.setattr(cli, "run_scenario", never_called)
    monkeypatch.setattr(harness, "scenario_signals", never_called)
    assert cli_main(["simulate", "--scenario", str(sc_path), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {sc_path}: ") and "rank" in err and "t = 1.58 s" in err
    assert not list(tmp_path.glob("*.csv"))


def never_called(*args, **kwargs):
    raise AssertionError("run_scenario was called")


def test_health_estimate_evaluated_once_per_scenario():
    # the precompute reuses the runs of the estimate that validation found
    calls = []

    class CountedProfile(HealthProfile):
        def __call__(self, t):
            calls.append(t)
            return super().__call__(t)

    scenario_signals(short_scenario(health_estimate=CountedProfile(HealthProfile.healthy(4).profiles)))
    assert len(calls) == 1


def test_campaign_packs_the_kernel_constants_once(monkeypatch):
    # the shared precompute packs them, inv(J) among them, not each instance
    calls = []
    constants = kernel.constants

    def counted(*args):
        calls.append(args)
        return constants(*args)

    monkeypatch.setattr(kernel, "constants", counted)
    assert len(run_campaign(short_scenario(), 3).instances) == 3
    assert len(calls) == 1


def test_campaign_determinism_and_aggregation():
    sc = short_scenario()
    s1 = run_campaign(sc, 3)
    s2 = run_campaign(sc, 3)
    assert s1 == s2
    assert s1.seeds == instance_seeds(sc.seed, 3)
    assert len(s1.instances) == len(s1.instance_pass) == 3
    record = s1.record()
    for key in TAIL_MAXIMA_KEYS:
        assert record[key] == max(i[key] for i in s1.instances)
    assert not s1.failures


def plant(monkeypatch, bad_seeds, exc):
    """Make the campaign's instances of `bad_seeds` raise exc; the others run.
    Returns the list of the seeds of the instances run, in order."""
    ran = []
    run_instance = harness.run_instance

    def run(loop, scenario, seed, rec=None):
        ran.append(seed)
        if seed in bad_seeds:
            raise exc
        return run_instance(loop, scenario, seed, rec)

    monkeypatch.setattr(harness, "run_instance", run)
    return ran


def test_campaign_records_a_non_finite_instance_and_runs_the_rest(monkeypatch):
    sc = short_scenario(duration=10.0)
    seeds = instance_seeds(sc.seed, 5)
    ran = plant(monkeypatch, [seeds[3]], NonFiniteState("planted"))
    summary = run_campaign(sc, 5)
    assert ran == seeds
    assert summary.failures == [f"instance 3 (seed {seeds[3]}): planted"]
    assert summary.outcomes[3] == summary.failures[0]
    assert len(summary.instances) == 4
    assert summary.instance_pass[3] is False


def test_campaign_propagates_another_exception(monkeypatch):
    sc = short_scenario(duration=10.0)
    seeds = instance_seeds(sc.seed, 5)
    ran = plant(monkeypatch, seeds[4:], ValueError("planted in the last instance"))
    with pytest.raises(ValueError, match="planted in the last instance"):
        run_campaign(sc, 5)
    assert ran == seeds


def test_interrupted_campaign_runs_no_later_instance(monkeypatch):
    sc = short_scenario(duration=10.0)
    seeds = instance_seeds(sc.seed, 3)
    ran = plant(monkeypatch, seeds[:1], KeyboardInterrupt())
    with pytest.raises(KeyboardInterrupt):
        run_campaign(sc, 3)
    assert ran == seeds[:1]


def test_campaign_rejects_bad_n():
    with pytest.raises(ValueError):
        run_campaign(short_scenario(), 0)


@pytest.mark.parametrize("call, message", [
    (lambda sc: run_scenario(replace(sc, seed=1.5)), "seed must be an integer, got 1.5"),
    (lambda sc: run_scenario(replace(sc, seed=True)), "seed must be an integer, got True"),
    (lambda sc: run_scenario(replace(sc, seed=-1)), "seed must be >= 0, got -1"),
    (lambda sc: run_campaign(sc, 2.0), "n_instances must be an integer, got 2.0"),
    (lambda sc: verify(sc, True), "n_instances must be an integer, got True"),
    (lambda sc: verify(sc, 2.0), "n_instances must be an integer, got 2.0"),
], ids=["seed-float", "seed-bool", "seed-negative", "campaign-float", "verify-bool",
        "verify-float"])
def test_instance_loop_takes_the_scenario_integer_rule(monkeypatch, call, message):
    # a seed given to replace and the instance count of a campaign follow the
    # rule that Scenario applies to its own seed, before any step runs
    sc = paper_faulty(duration=1.0)
    monkeypatch.setattr(harness, "scenario_signals", never_called)
    monkeypatch.setattr(harness, "predict", never_called)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(sc)


def test_verify_passes_when_bounds_comfortable():
    # exact-model loop with the published budget attached: actual errors are
    # orders of magnitude inside the predicted bounds
    sc = nominal_exact(duration=60.0, budget=NOMINAL_PAPER_BUDGET)
    report = verify(sc, 2)
    assert report["passed"]
    assert report["theta_margin_ratio"] > 1.0
    assert report["theta_tail_max_deg"] <= report["theta_bound_deg"]


def test_verify_passes_on_a_zero_budget_within_the_roundoff_floor(monkeypatch):
    # the zero budget predicts bounds of exactly 0; the simulated errors keep
    # round-off below the floor, and an excess of 1e-9 still fails
    sc = nominal_exact()
    assert sc.budget == zero_budget(sc.budget.J_hat_norm, 6.0, 8.5)
    report = verify(sc, 1)
    assert report["passed"] and report["roundoff_floor"] == harness.ROUNDOFF_FLOOR <= 1e-12
    assert report["omega_bound_rad_s"] == 0.0 < report["omega_tail_max_rad_s"] <= 1e-12
    run_instance = harness.run_instance
    for key in ("theta_tail_max_deg", "omega_tail_max_rad_s"):
        def planted(loop, scenario, seed, rec=None, key=key):
            st = run_instance(loop, scenario, seed, rec)
            return {**st, key: st[key] + 1e-9}

        monkeypatch.setattr(harness, "run_instance", planted)
        with pytest.raises(BoundViolated, match=re.escape("bounds in instance 0")):
            verify(sc, 1)
    predicted = predict(sc.budget, sc.gains)
    at_floor = instance_record(1e-12, 1e-12)
    above_floor = instance_record(0.0, 1.1e-12)
    assert CampaignSummary([at_floor], [1], predicted).passed
    assert not CampaignSummary([above_floor], [1], predicted).passed


def tiny_budget_scenario():
    # a nonzero initial tumble with a near-zero budget: predicted bounds are
    # essentially zero, the early-window errors are not
    tiny = replace(
        NOMINAL_PAPER_BUDGET,
        rho_q=1e-12, rho_w=1e-12, rho_J=1e-9, rho_d=1e-15, rho_d_hat=1e-15,
        rho_v=1e-9, rho_a=1e-15,
    )
    return nominal_exact(duration=2.0, budget=tiny, tail_fraction=1.0)


def test_verify_raises_on_violation():
    sc = tiny_budget_scenario()
    seed = instance_seeds(sc.seed, 1)[0]
    with pytest.raises(BoundViolated, match=re.escape(f"bounds in instance 0 (seed {seed}): theta ")):
        verify(sc, 1)
    report = verify(sc, 1, strict=False)
    assert not report["passed"]


def planted_failure(monkeypatch, failing=(1,), n=2):
    """An n-instance nominal-exact campaign with the paper budget, whose
    instances stay well inside the bounds, and whose instances `failing`
    raise NonFiniteState; returns the scenario and the failure lines it
    records."""
    sc = nominal_exact(duration=60.0, budget=NOMINAL_PAPER_BUDGET)
    seeds = instance_seeds(sc.seed, n)
    plant(monkeypatch, [seeds[i] for i in failing], NonFiniteState("planted"))
    return sc, [f"instance {i} (seed {seeds[i]}): planted" for i in failing]


def run_campaigns_script(monkeypatch, out_dir):
    """scripts/run_campaigns.py as a module that writes into out_dir."""
    path = Path(__file__).resolve().parents[1] / "scripts" / "run_campaigns.py"
    spec = importlib.util.spec_from_file_location("run_campaigns", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(script, "OUT", out_dir)
    return script


def test_failed_instance_fails_the_campaign_and_verify_names_it(monkeypatch):
    sc, (line,) = planted_failure(monkeypatch)
    summary = run_campaign(sc, 2)
    assert summary.failures == [line]
    assert summary.instance_pass == [True, False]
    assert not summary.passed
    assert not verify(sc, 2, strict=False)["passed"]
    with pytest.raises(BoundViolated, match=re.escape(line)) as raised:
        verify(sc, 2)
    assert "exceed" not in str(raised.value)


def test_run_campaigns_script_reports_a_failed_instance(tmp_path, monkeypatch, capsys):
    sc, (line,) = planted_failure(monkeypatch)
    assert not run_campaigns_script(monkeypatch, tmp_path).campaign(sc, 2)
    out = capsys.readouterr().out
    assert line in out
    assert "envelope : VIOLATED" in out


def test_all_failed_campaign_has_nan_margins(tmp_path, monkeypatch, capsys):
    sc, lines = planted_failure(monkeypatch, failing=(0, 1))
    summary = run_campaign(sc, 2)
    assert summary.failures == lines and not summary.instances
    record = summary.record()
    assert math.isnan(record["theta_margin_ratio"]) and math.isnan(record["omega_margin_ratio"])
    assert all(math.isnan(record[k]) for k in TAIL_MAXIMA_KEYS)
    assert record["theta_bound_deg"] == math.degrees(summary.predicted.theta_bound)
    assert record["failures"] == lines and not record["passed"]
    report = verify(sc, 2, strict=False)
    assert not report["passed"]
    assert math.isnan(report["theta_margin_ratio"]) and math.isnan(report["omega_margin_ratio"])
    assert all(report[k] == record[k] for k in ("theta_bound_deg", "omega_bound_rad_s", "qe_bound"))
    path = tmp_path / "campaign.jsonl"
    export_summary_jsonl(summary, path)
    camp = json.loads(path.read_text().splitlines()[-1])
    assert [camp[k] for k in ("theta_bound_deg", "omega_bound_rad_s", "qe_bound")] == [
        record["theta_bound_deg"], record["omega_bound_rad_s"], record["qe_bound"]]
    assert not run_campaigns_script(monkeypatch, tmp_path).campaign(sc, 2)
    out = capsys.readouterr().out
    assert "margins  : theta xnan, omega xnan" in out
    assert all(line in out for line in lines)


def test_envelope_margins():
    predicted = predict(paper_budget(rho_E=0.0), paper_gains())
    theta_bound_deg = math.degrees(predicted.theta_bound)

    def record(theta_max_deg, omega_max):
        st = instance_record(theta_max_deg, omega_max, 1e-4, 2e-4, 3e-4, 4e-4)
        return CampaignSummary([st], [1], predicted).record()

    rec = record(0.5 * theta_bound_deg, 0.25 * predicted.omega_bound)
    assert rec == {
        "n_instances": 1,
        "theta_bound_deg": theta_bound_deg,
        "omega_bound_rad_s": predicted.omega_bound,
        "qe_bound": predicted.q_final,
        "theta_tail_max_deg": 0.5 * theta_bound_deg,
        "omega_tail_max_rad_s": 0.25 * predicted.omega_bound,
        "qe_tail_max": 1e-4,
        "qtilde_tail_max": 3e-4,
        "wtilde_tail_max": 4e-4,
        "theta_margin_ratio": 2.0,
        "omega_margin_ratio": 4.0,
        "roundoff_floor": harness.ROUNDOFF_FLOOR,
        "failures": [],
        "passed": True,
    }
    rec = record(0.0, 0.0)
    assert rec["theta_margin_ratio"] == rec["omega_margin_ratio"] == math.inf


def test_verify_report_is_the_jsonl_campaign_line(tmp_path):
    sc = short_scenario()
    report = verify(sc, 2, strict=False)
    path = tmp_path / "summary.jsonl"
    export_summary_jsonl(run_campaign(sc, 2), path)
    camp = json.loads(path.read_text().splitlines()[-1], parse_constant=reject_constant)
    assert report.pop("scenario") == sc.name and camp.pop("campaign") is True
    assert list(report) == RECORD_KEYS
    assert camp == report


def test_trace_csv_roundtrip(tmp_path):
    sc = short_scenario(record_decimation=10)
    trace = run_scenario(sc)
    path = tmp_path / "trace.csv"
    export_trace_csv(trace, path)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    header, data = rows[0], np.array(rows[1:], dtype=float)
    assert header == trace_columns(4)
    assert len(header) == 13 + 4
    assert np.allclose(data[:, 0], trace.t, atol=1e-12)
    assert np.allclose(data[:, 1:5], trace.qe, atol=1e-12)
    assert np.allclose(data[:, 5:8], trace.omega_e, atol=1e-12)
    assert np.allclose(data[:, 8], trace.theta_e_deg, atol=1e-12)
    assert np.allclose(data[:, 9], np.linalg.norm(trace.s, axis=1), atol=1e-12)
    assert np.allclose(data[:, 11:15], trace.tau_u, atol=1e-12)
    assert np.allclose(data[:, 15], trace.qtilde_norm, atol=1e-12)
    assert np.allclose(data[:, 16], trace.wtilde_norm, atol=1e-12)


def random_trace(n, m=4):
    rng = np.random.default_rng(n)
    trace = RunTrace(
        t=0.01 * np.arange(n), qe=rng.standard_normal((n, 4)),
        omega_e=rng.standard_normal((n, 3)) * 1e-3, s=rng.standard_normal((n, 3)),
        s_hat=rng.standard_normal((n, 3)), theta_e_deg=rng.uniform(0.0, 180.0, n),
        tau_u=rng.standard_normal((n, m)) * 0.02, qtilde_norm=rng.uniform(0.0, 1e-4, n),
        wtilde_norm=rng.uniform(0.0, 1e-4, n))
    trace.qe[0, 1:] = [-0.0, 1e-300, 1.0 / 3.0]  # signed zero, tiny, repeating digits
    trace.tau_u[0] = [math.inf, -math.inf, math.nan, -math.nan]  # written inf, -inf, nan, nan
    return trace


@pytest.mark.parametrize("n", [1, 255, 256, 257, 1000])
def test_trace_csv_bytes_equal_savetxt_and_read_back_exactly(tmp_path, n):
    trace = random_trace(n)
    columns = np.column_stack([
        trace.t, trace.qe, trace.omega_e, trace.theta_e_deg, np.linalg.norm(trace.s, axis=1),
        np.linalg.norm(trace.s_hat, axis=1), trace.tau_u, trace.qtilde_norm, trace.wtilde_norm])
    path, reference = tmp_path / "trace.csv", tmp_path / "savetxt.csv"
    export_trace_csv(trace, path)
    np.savetxt(reference, columns, delimiter=",", header=",".join(trace_columns(4)),
               comments="", fmt="%.17g")
    assert path.read_bytes() == reference.read_bytes()
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    assert table.shape == (n, 17)
    assert np.array_equal(table, columns, equal_nan=True)


def test_trace_csv_raises_where_format_rows_returns_minus_1(tmp_path, monkeypatch):
    # format_rows returns -1 for rows that do not fit; buf[:-1] would write
    # the buffer's bytes of the block before
    trace, path = random_trace(300), tmp_path / "trace.csv"
    export_trace_csv(trace, tmp_path / "whole.csv")
    header_and_first_block = b"".join((tmp_path / "whole.csv").read_bytes().splitlines(True)[:257])
    original, calls = kernel.format_rows, []

    def first_block_only(rows, buf):
        calls.append(len(rows))
        return original(rows, buf) if len(calls) == 1 else -1

    monkeypatch.setattr(kernel, "format_rows", first_block_only)
    buf_size = kernel.VALUE_BYTES * kernel.ROW_BLOCK * 17
    with pytest.raises(RuntimeError, match=f"^rows 256 to 299 of the trace do not fit in the "
                                           f"{buf_size}-byte CSV buffer$"):
        export_trace_csv(trace, path)
    assert calls == [256, 44]
    assert path.read_bytes() == header_and_first_block


def test_summary_jsonl_record_count(tmp_path):
    sc = short_scenario()
    summary = run_campaign(sc, 3)
    path = tmp_path / "summary.jsonl"
    export_summary_jsonl(summary, path)
    records = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(records) == 4  # 3 instances + campaign record
    assert records[-1] == {"campaign": True, **summary.record()}
    # one record: each instance line holds the campaign line's tail-maximum
    # keys, and each campaign maximum is the largest of the instance values
    *instances, camp = records
    maxima = ["theta_tail_max_deg", "omega_tail_max_rad_s", "qe_tail_max", "qtilde_tail_max",
              "wtilde_tail_max"]
    assert [key for key in camp if "_tail_max" in key] == maxima
    for r in instances:
        assert list(r) == ["instance", "seed", *maxima[:3], "s_tail_max", *maxima[3:],
                           "tau_u_peak", "passed"]
    assert all(camp[key] == max(r[key] for r in instances) for key in maxima)


def test_summary_jsonl_labels_each_record_with_its_own_index_and_seed(tmp_path, monkeypatch):
    # the record after a failed instance names its own index and seed, not
    # those of the instance before it
    sc, (line,) = planted_failure(monkeypatch, failing=(1,), n=3)
    summary = run_campaign(sc, 3)
    path = tmp_path / "summary.jsonl"
    export_summary_jsonl(summary, path)
    *records, camp = [json.loads(text) for text in path.read_text().splitlines()]
    seeds = instance_seeds(sc.seed, 3)
    assert [(r["instance"], r["seed"]) for r in records] == [(0, seeds[0]), (2, seeds[2])]
    st = steady_state_stats(run_scenario(replace(sc, seed=seeds[2])), sc.tail_fraction)
    assert records[1] == {"instance": 2, "seed": seeds[2], **st, "passed": True}
    assert camp["failures"] == [line]


def test_bound_trace_jsonl_record_count(tmp_path):
    sc = paper_fault_free()
    trace = predict(sc.budget, sc.gains)
    path = tmp_path / "bounds.jsonl"
    export_bound_trace_jsonl(trace, path)
    records = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(records) == trace.total_iterations + 1
    assert records[-1]["summary"] is True
    assert records[0] == {"loop": 1, "i": 1, "s_bar": trace.loop1[0][0], "q_bar": trace.loop1[0][1]}


# ---------------------------------------------------------------------------
# CLI


def test_cli_predict_bounds(tmp_path, capsys):
    code = cli_main(["predict-bounds", "--scenario", "paper-faulty", "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "iterations 17" in out
    assert (tmp_path / "paper-faulty-bounds.jsonl").exists()


def test_cli_simulate_and_env_out(tmp_path, monkeypatch, capsys):
    sc_path = tmp_path / "short.yaml"
    save_scenario(short_scenario(duration=10.0), sc_path)
    monkeypatch.setenv("FTACS_OUT_DIR", str(tmp_path / "outputs"))
    code = cli_main(["simulate", "--scenario", str(sc_path), "--seed", "5"])
    assert code == 0
    produced = list((tmp_path / "outputs").glob("*.csv"))
    assert len(produced) == 1


def test_cli_simulate_seed_writes_what_the_file_with_that_seed_writes(tmp_path, monkeypatch,
                                                                       capsys):
    # --seed sets the seed of the one Scenario that the load builds and checks
    seed = 18446744073709551615
    given, edited = tmp_path / "given.yaml", tmp_path / "edited.yaml"
    save_scenario(short_scenario(duration=10.0, observer=ObserverSpec(kind="bias")), given)
    text, count = re.subn(r"^seed: .*$", f"seed: {seed}", given.read_text(), flags=re.M)
    assert count == 1 and text != given.read_text()
    edited.write_text(text)
    builds, original = [], Scenario.__post_init__
    monkeypatch.setattr(Scenario, "__post_init__", lambda sc: builds.append(sc) or original(sc))
    outputs = []
    for i, argv in enumerate((["--scenario", str(given), "--seed", str(seed)],
                              ["--scenario", str(edited)])):
        out = tmp_path / f"out{i}"
        builds.clear()
        assert cli_main(["simulate", *argv, "--out", str(out)]) == 0
        assert len(builds) == 1
        (csv_path,) = out.iterdir()
        outputs.append((csv_path.name, csv_path.read_bytes(),
                        capsys.readouterr().out.replace(str(out), "{out}")))
    assert outputs[0] == outputs[1]
    assert outputs[0][0] == f"paper-fault-free-seed{seed}.csv"


def test_cli_montecarlo(tmp_path, capsys):
    sc_path = tmp_path / "short.yaml"
    save_scenario(short_scenario(duration=10.0), sc_path)
    code = cli_main(["montecarlo", "--scenario", str(sc_path), "-n", "2", "--out", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "paper-fault-free-campaign-n2.jsonl").exists()
    assert "campaign maxima over 2 of 2 finished instances: " in capsys.readouterr().out


def test_cli_check_gains_pass_and_fail(tmp_path, capsys):
    assert cli_main(["check-gains", "--scenario", "paper-faulty"]) == 0
    sc = paper_faulty(gains=ControllerGains(k=0.2, K=0.1 * np.eye(3), epsilon=0.01, gamma=0.01))
    sc_path = tmp_path / "weak.yaml"
    save_scenario(sc, sc_path)
    assert cli_main(["check-gains", "--scenario", str(sc_path)]) == 2


def test_cli_verify(tmp_path, capsys):
    sc = nominal_exact(duration=80.0, budget=NOMINAL_PAPER_BUDGET)
    sc_path = tmp_path / "nominal.yaml"
    save_scenario(sc, sc_path)
    code = cli_main(["verify", "--scenario", str(sc_path), "-n", "1", "--out", str(tmp_path)])
    assert code == 0
    assert "PASS" in capsys.readouterr().out


def test_cli_verify_nominal_exact_passes_and_reports_the_floor(tmp_path, capsys):
    code = cli_main(["verify", "--scenario", "nominal-exact", "-n", "1", "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "round-off floor 1e-12" in out
    report = json.loads((tmp_path / "nominal-exact-verify-n1.json").read_text())
    assert report["passed"] and report["roundoff_floor"] == 1e-12


def test_cli_writes_non_finite_values_as_null(tmp_path, monkeypatch, capsys):
    # NaN and Infinity are not JSON: strict parsers reject the file
    for command in ("verify", "montecarlo"):
        argv = [command, "--scenario", "nominal-exact", "-n", "1", "--out", str(tmp_path)]
        assert cli_main(argv) == 0
    report = json.loads((tmp_path / "nominal-exact-verify-n1.json").read_text(),
                        parse_constant=reject_constant)
    assert report["theta_tail_max_deg"] == 0.0 and report["theta_margin_ratio"] is None
    text = (tmp_path / "nominal-exact-campaign-n1.jsonl").read_text()
    camp = json.loads(text.splitlines()[-1], parse_constant=reject_constant)
    assert camp.pop("campaign") is True and report.pop("scenario") == "nominal-exact"
    assert camp == report
    sc, lines = planted_failure(monkeypatch, failing=(0, 1))
    sc_path = tmp_path / "nominal.yaml"
    save_scenario(sc, sc_path)
    assert cli_main(["montecarlo", "--scenario", str(sc_path), "-n", "2", "--out", str(tmp_path)]) == 2
    text = (tmp_path / "nominal-exact-campaign-n2.jsonl").read_text()
    (camp,) = [json.loads(line, parse_constant=reject_constant) for line in text.splitlines()]
    assert all(camp[k] is None for k in TAIL_MAXIMA_KEYS) and camp["failures"] == lines
    assert camp["theta_margin_ratio"] is None and camp["omega_margin_ratio"] is None
    with pytest.raises(ValueError, match="Out of range float"):
        harness.json_record({"nested": {"x": math.nan}})


def test_cli_montecarlo_failed_instance_exits_2(tmp_path, monkeypatch, capsys):
    sc, (line,) = planted_failure(monkeypatch)
    sc_path = tmp_path / "nominal.yaml"
    save_scenario(sc, sc_path)
    code = cli_main(["montecarlo", "--scenario", str(sc_path), "-n", "2", "--out", str(tmp_path)])
    assert code == 2
    assert f"FAILED: {line}" in capsys.readouterr().err
    assert (tmp_path / "nominal-exact-campaign-n2.jsonl").exists()


def test_cli_verify_violation_exits_2_and_writes_no_report(tmp_path, capsys):
    sc_path = tmp_path / "tiny.yaml"
    save_scenario(tiny_budget_scenario(), sc_path)
    code = cli_main(["verify", "--scenario", str(sc_path), "-n", "1", "--out", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err.startswith("FAIL: ")
    assert not list(tmp_path.glob("*-verify-n1.json"))


def test_ftacs_errors_are_the_failed_promises():
    # invalid input raises a ValueError (exit 1); an FtacsError (exit 2)
    # means valid input broke one of the paper's promises
    assert set(FtacsError.__subclasses__()) == {NonFiniteState, GainConditionViolated,
                                                NotContractive, BoundViolated}


def test_cli_help_exits_0(capsys):
    assert cli_main(["predict-bounds", "--help"]) == 0
    assert "--scenario" in capsys.readouterr().out
