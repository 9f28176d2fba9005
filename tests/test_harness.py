import csv
import json

from dataclasses import asdict, fields

import numpy as np
import pytest
import yaml

from ftacs import ControllerGains, cli, harness
from ftacs.actuation import HealthProfile, ProfileSpec, allocation_matrix
from ftacs.bounds import predict
from ftacs.cli import main as cli_main
from ftacs.errors import BoundViolated, EmptyTail, RankDeficient
from ftacs.harness import (
    RunTrace,
    export_bound_trace_jsonl,
    export_summary_jsonl,
    export_trace_csv,
    instance_seeds,
    run_campaign,
    run_scenario,
    scenario_signals,
    steady_state_stats,
    trace_columns,
    verify,
)
from ftacs.scenario import (
    ObserverSpec,
    nominal_exact,
    paper_budget,
    paper_fault_free,
    paper_faulty,
    save_scenario,
    scenario_to_dict,
)


def short_scenario(**overrides):
    kw = dict(duration=20.0, seed=99)
    kw.update(overrides)
    return paper_fault_free(**kw)


def test_run_trace_shape_and_grid():
    sc = short_scenario(record_decimation=5)
    trace = run_scenario(sc)
    n = sc.n_steps // 5
    assert trace.t.shape == (n,)
    assert trace.qe.shape == (n, 4)
    assert trace.tau_u.shape == (n, 4)
    diffs = np.diff(trace.t)
    assert np.allclose(diffs, diffs[0], atol=1e-12)  # uniform grid
    assert np.all(trace.theta_e_deg >= 0.0)
    assert np.all(trace.theta_e_deg <= 180.0)


def assert_traces_equal(a, b):
    for f in fields(RunTrace):
        x, y = getattr(a, f.name), getattr(b, f.name)
        assert np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y, f.name


def test_determinism_bitwise():
    for kind in ("synthetic", "bias"):
        sc = short_scenario(observer=ObserverSpec(kind=kind))
        assert_traces_equal(run_scenario(sc), run_scenario(sc))


def test_seed_changes_random_initial_condition():
    sc = short_scenario()
    a = run_scenario(sc, seed=1)
    b = run_scenario(sc, seed=2)
    assert not np.array_equal(a.qe[0], b.qe[0])


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
    assert st.theta_e_max_deg == 2.5
    assert st.omega_e_max == pytest.approx(3e-4)


def test_steady_state_stats_decay_to_floor():
    # decaying exponential + floor: tail max ~ floor once transients are gone
    t = np.linspace(0, 100, 2001)
    floor = 0.01
    theta = floor + np.exp(-t / 2.0)  # 5 time constants by t = 10
    trace = _fake_trace(theta, np.zeros((t.size, 3)), t=t)
    st = steady_state_stats(trace, 0.2)
    assert abs(st.theta_e_max_deg - floor) / floor < 0.01


def test_steady_state_stats_full_window_is_global_max():
    theta = np.array([5.0, 1.0, 0.5, 0.2])
    trace = _fake_trace(theta, np.zeros((4, 3)))
    assert steady_state_stats(trace, 1.0).theta_e_max_deg == 5.0


def test_steady_state_stats_bad_fraction():
    trace = _fake_trace(np.ones(10), np.zeros((10, 3)))
    with pytest.raises(ValueError):
        steady_state_stats(trace, 0.0)


def test_steady_state_stats_empty():
    trace = _fake_trace(np.empty(0), np.empty((0, 3)))
    with pytest.raises(EmptyTail):
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
        seed=0,
    )


def test_instance_seeds_deterministic():
    assert instance_seeds(42, 5) == instance_seeds(42, 5)
    assert instance_seeds(42, 5)[:3] == instance_seeds(42, 3)
    assert instance_seeds(42, 3) != instance_seeds(43, 3)


def campaign_traces(monkeypatch, sc, n):
    """Run a campaign and keep the trace of every instance."""
    traces = []

    def keep(*args, **kwargs):
        traces.append(run_scenario(*args, **kwargs))
        return traces[-1]

    monkeypatch.setattr(harness, "run_scenario", keep)
    summary = run_campaign(sc, n)
    monkeypatch.undo()
    return summary, traces


def test_campaign_n1_matches_run_scenario(monkeypatch):
    for kind in ("synthetic", "bias"):
        sc = short_scenario(observer=ObserverSpec(kind=kind))
        summary, (campaign_trace,) = campaign_traces(monkeypatch, sc, 1)
        seed = instance_seeds(sc.seed, 1)[0]
        trace = run_scenario(sc, seed=seed)
        assert_traces_equal(campaign_trace, trace)
        st = steady_state_stats(trace, sc.tail_fraction)
        assert summary.instances[0] == st
        assert summary.theta_e_max_deg == st.theta_e_max_deg


def test_campaign_shared_precompute_leaks_no_state(monkeypatch):
    # the third instance, after two others used the same precompute, equals
    # its standalone run
    sc = short_scenario(duration=10.0, observer=ObserverSpec(kind="bias"))
    summary, traces = campaign_traces(monkeypatch, sc, 3)
    assert len(traces) == 3
    assert_traces_equal(traces[2], run_scenario(sc, seed=instance_seeds(sc.seed, 3)[2]))


def toggled_pair_scenario():
    # pair 1 is on, off, on, off: 0.5 + 1e9 sin(t + 0.5) clips to exactly 1 or 0
    # on every grid point, so the steps use two allocation matrices, the first
    # of them again after the second
    toggle = HealthProfile([ProfileSpec(kind="sin", offset=0.5, scale=1e9, phase=0.5),
                            ProfileSpec(), ProfileSpec(), ProfileSpec()])
    return short_scenario(duration=10.0, health=toggle, health_estimate=toggle)


def test_steps_share_allocation_rows_of_each_distinct_matrix():
    sc = toggled_pair_scenario()
    signals = scenario_signals(sc)
    assert len(signals.alloc) == 2
    switches = np.flatnonzero(np.diff(signals.alloc_index))
    assert len(switches) == 3
    shared = {}
    for (t, *_, alloc, _, _), j in zip(signals.steps(), signals.alloc_index, strict=True):
        expected = allocation_matrix(sc.bank, sc.health_estimate(t))
        assert np.array_equal(np.array(alloc), expected), t
        assert shared.setdefault(j, alloc) is alloc, t


def test_campaign_with_revisited_allocation_matches_run_scenario(monkeypatch):
    sc = toggled_pair_scenario()
    _, traces = campaign_traces(monkeypatch, sc, 2)
    for trace, seed in zip(traces, instance_seeds(sc.seed, 2), strict=True):
        assert_traces_equal(trace, run_scenario(sc, seed=seed))


def test_run_scenario_rejects_signals_of_another_scenario():
    with pytest.raises(ValueError):
        run_scenario(short_scenario(), signals=scenario_signals(short_scenario()))


def fading_estimate():
    # pair 3 fades out after t = pi/2 and pair 4 is dead: full rank until then
    return HealthProfile([ProfileSpec(), ProfileSpec(),
                          ProfileSpec(kind="cos", offset=0.0, scale=1.0),
                          ProfileSpec(kind="const", offset=0.0)])


def test_rank_deficient_estimate_fails_before_any_instance(monkeypatch):
    # Scenario validation checks every step of the grid, not only t = 0
    monkeypatch.setattr(harness, "run_scenario", never_called)
    with pytest.raises(RankDeficient):
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


def test_campaign_determinism_and_aggregation():
    sc = short_scenario()
    s1 = run_campaign(sc, 3)
    s2 = run_campaign(sc, 3)
    assert [i.theta_e_max_deg for i in s1.instances] == [i.theta_e_max_deg for i in s2.instances]
    assert s1.theta_e_max_deg == max(i.theta_e_max_deg for i in s1.instances)
    assert s1.omega_e_max >= max(i.omega_e_max for i in s1.instances) - 1e-18
    assert not s1.failures


def test_campaign_rejects_bad_n():
    with pytest.raises(ValueError):
        run_campaign(short_scenario(), 0)


def test_verify_passes_when_bounds_comfortable():
    # exact-model loop with the published budget attached: actual errors are
    # orders of magnitude inside the predicted bounds
    sc = nominal_exact(duration=60.0, budget=paper_budget(rho_E=0.0))
    report = verify(sc, 2)
    assert report["passed"]
    assert report["theta_margin_ratio"] > 1.0
    assert report["theta_tail_max_deg"] <= report["theta_bound_deg"]


def test_verify_raises_on_violation():
    # a nonzero initial tumble with a near-zero budget: predicted bounds are
    # essentially zero, the early-window errors are not
    tiny = paper_budget(rho_E=0.0).replace(
        rho_q=1e-12, rho_w=1e-12, rho_J=1e-9, rho_d=1e-15, rho_d_hat=1e-15,
        rho_v=1e-9, rho_a=1e-15,
    )
    sc = nominal_exact(duration=2.0, budget=tiny, tail_fraction=1.0)
    with pytest.raises(BoundViolated):
        verify(sc, 1)
    report = verify(sc, 1, strict=False)
    assert not report["passed"]


def test_verify_requires_budget():
    sc = nominal_exact(budget=None)
    with pytest.raises(ValueError):
        verify(sc, 1)


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
        wtilde_norm=rng.uniform(0.0, 1e-4, n), seed=1)
    trace.qe[0, 1:] = [-0.0, 1e-300, 1.0 / 3.0]  # signed zero, tiny, repeating digits
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
    assert np.array_equal(table, columns)


def test_summary_jsonl_record_count(tmp_path):
    sc = short_scenario()
    summary = run_campaign(sc, 3)
    path = tmp_path / "summary.jsonl"
    export_summary_jsonl(summary, path)
    records = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(records) == 4  # 3 instances + campaign record
    assert records[-1]["campaign"] is True
    assert records[-1]["theta_e_max_deg"] == summary.theta_e_max_deg


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


def test_cli_montecarlo(tmp_path, capsys):
    sc_path = tmp_path / "short.yaml"
    save_scenario(short_scenario(duration=10.0), sc_path)
    code = cli_main(["montecarlo", "--scenario", str(sc_path), "-n", "2", "--out", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "paper-fault-free-campaign-n2.jsonl").exists()


def test_cli_check_gains_pass_and_fail(tmp_path, capsys):
    assert cli_main(["check-gains", "--scenario", "paper-faulty"]) == 0
    sc = paper_faulty()
    sc.gains = ControllerGains(k=0.2, K=0.1 * np.eye(3), epsilon=0.01, gamma=0.01)
    sc_path = tmp_path / "weak.yaml"
    save_scenario(sc, sc_path)
    assert cli_main(["check-gains", "--scenario", str(sc_path)]) == 2


@pytest.mark.parametrize("command", ["verify", "montecarlo"])
def test_cli_failed_gain_condition_exits_2_before_simulating(tmp_path, monkeypatch, capsys,
                                                            command):
    sc = paper_faulty(duration=10.0, gains=ControllerGains(k=0.2, K=0.1 * np.eye(3),
                                                           epsilon=0.01, gamma=0.01))
    sc_path = tmp_path / "weak.yaml"
    save_scenario(sc, sc_path)
    monkeypatch.setattr(harness, "run_scenario", never_called)
    code = cli_main([command, "--scenario", str(sc_path), "-n", "3", "--out", str(tmp_path)])
    assert code == 2
    assert "prediction failed" in capsys.readouterr().err


def test_cli_verify(tmp_path, capsys):
    sc = nominal_exact(duration=80.0, budget=paper_budget(rho_E=0.0))
    sc_path = tmp_path / "nominal.yaml"
    save_scenario(sc, sc_path)
    code = cli_main(["verify", "--scenario", str(sc_path), "-n", "1", "--out", str(tmp_path)])
    assert code == 0
    assert "PASS" in capsys.readouterr().out


def test_cli_unknown_scenario(capsys):
    assert cli_main(["simulate", "--scenario", "bogus"]) == 1
    assert "error" in capsys.readouterr().err
