"""Closed-loop simulation, Monte Carlo campaigns, steady-state statistics,
predicted-vs-simulated verification, and trace persistence."""

from __future__ import annotations

import json
import math
import os
import pickle
import signal
import threading
from dataclasses import dataclass, field, fields
from functools import partial
from pathlib import Path

import numpy as np

from . import kernel
from .actuation import allocation_matrix
from .bounds import ETA, BoundTrace, RobustCoefficients, predict, robust_coefficients
from .config import check_integer
from .errors import BoundViolated, NonFiniteState
from .estimation import random_unit_vector
from .kernel import ROW_BLOCK
from .scenario import Scenario
from .so3 import normalize, quat_from_axis_angle


# Absolute tolerance of the envelope comparison, in the units of each bound
# (deg for theta, rad/s for omega): a tail maximum passes when it is at most
# its bound plus this floor. A zero budget predicts bounds of exactly 0, and
# the simulated errors still carry round-off of order 1e-13.
ROUNDOFF_FLOOR = 1e-12


@dataclass
class RunTrace:
    """Recorded closed-loop history on a uniform (decimated) time grid."""

    t: np.ndarray
    qe: np.ndarray
    omega_e: np.ndarray
    s: np.ndarray
    s_hat: np.ndarray
    theta_e_deg: np.ndarray
    tau_u: np.ndarray
    qtilde_norm: np.ndarray
    wtilde_norm: np.ndarray
    seed: int
    dt: float = 0.0


@dataclass
class TailStats:
    """Maxima over the final tail window of a run, and tau_u_peak: per thruster
    pair, the max |tau_u,i| over the whole recorded run, not only the tail."""

    theta_e_max_deg: float
    omega_e_max: float
    qe_vec_max: float
    s_max: float
    qtilde_max: float
    wtilde_max: float
    tau_u_peak: list[float]


@dataclass(frozen=True)
class CampaignSummary:
    """The outcome of each instance in seed order, the tail statistics of an
    instance that finished or the failure line of one whose state went
    non-finite, beside its seed, and the predicted bounds. The lists of
    finished instances and of failures and the campaign-wide maxima are read
    from the outcomes."""

    outcomes: list[TailStats | str]
    seeds: list[int]
    predicted: BoundTrace
    # maxima over the finished instances, NaN when none finished
    theta_e_max_deg: float = field(init=False)
    omega_e_max: float = field(init=False)
    qe_vec_max: float = field(init=False)
    qtilde_max: float = field(init=False)
    wtilde_max: float = field(init=False)

    def __post_init__(self):
        for name in [f.name for f in fields(self) if not f.init]:
            object.__setattr__(self, name, max((getattr(st, name) for st in self.instances),
                                               default=math.nan))

    @property
    def instances(self) -> list[TailStats]:
        return [r for r in self.outcomes if isinstance(r, TailStats)]

    @property
    def failures(self) -> list[str]:
        return [r for r in self.outcomes if isinstance(r, str)]

    @property
    def instance_pass(self) -> list[bool]:
        """Per instance in seed order: it finished inside both predicted
        bounds, up to ROUNDOFF_FLOOR. A failed instance does not pass."""
        env = self.envelope()
        theta_limit = env["theta_bound_deg"] + ROUNDOFF_FLOOR
        omega_limit = env["omega_bound_rad_s"] + ROUNDOFF_FLOOR
        return [isinstance(r, TailStats) and r.theta_e_max_deg <= theta_limit
                and r.omega_e_max <= omega_limit for r in self.outcomes]

    @property
    def passed(self) -> bool:
        """Every instance finished inside both predicted bounds."""
        return all(self.instance_pass)

    def envelope(self) -> dict:
        """The predicted bounds (theta in degrees, omega in rad/s, |qe|) and
        the margin ratios bound/max of theta and omega: inf when the maximum
        is 0, NaN when no instance finished."""
        p = self.predicted
        theta_bound_deg = math.degrees(p.theta_bound)

        def margin(bound, peak):
            return bound / peak if peak > 0 else math.inf if peak == 0 else math.nan

        return {
            "theta_bound_deg": theta_bound_deg,
            "omega_bound_rad_s": p.omega_bound,
            "qe_bound": p.q_final,
            "theta_margin_ratio": margin(theta_bound_deg, self.theta_e_max_deg),
            "omega_margin_ratio": margin(p.omega_bound, self.omega_e_max),
        }


def _initial_state(scenario: Scenario, rng: np.random.Generator) -> tuple[tuple, tuple]:
    """(q, omega) as float tuples, q normalized."""
    init = scenario.init
    if init.kind == "fixed":
        q0, omega0 = np.asarray(init.q0, dtype=float), np.asarray(init.omega0, dtype=float)
    else:
        omega0 = rng.uniform(-init.omega_abs_max, init.omega_abs_max, size=3)
        theta0 = rng.uniform(0.0, init.theta_max)
        q0 = quat_from_axis_angle(random_unit_vector(rng), theta0)
    return tuple(normalize(q0).tolist()), tuple(omega0.tolist())


def _row_blocks(n: int):
    """Slices of ROW_BLOCK rows that cover range(n)."""
    return (slice(i, min(i + ROW_BLOCK, n)) for i in range(0, n, ROW_BLOCK))


@dataclass
class ScenarioSignals:
    """What the closed loop needs that does not depend on the instance, on the
    step grid of one scenario. Built once by scenario_signals and shared by
    every instance of a campaign; run_scenario reads it in row blocks.

    table has one row per step, of 14 + m columns: t at the step start (0),
    qd (1:5), omega_d (5:8), omega_d_dot (8:11), tau_d at the step midpoint
    (11:14) and the true health (14:14 + m). A synthetic observer adds its
    errors: qtilde(t)^-1 (4) and omega_tilde(t) (3). alloc holds the (m, 3)
    allocation matrix of each distinct health-estimate row, and alloc_index
    the one each step uses."""

    scenario: Scenario
    coeffs: RobustCoefficients
    table: np.ndarray  # (n, 14 + m), or (n, 21 + m) for a synthetic observer
    alloc: np.ndarray  # (k, m, 3)
    alloc_index: np.ndarray  # (n,)

    def steps(self):
        """Per step, (row, alloc): the step's table row as a list of floats,
        in the column order above, and its allocation rows.

        Each block of ROW_BLOCK steps becomes one list of rows through a
        single tolist() of the table. The allocation rows are converted once
        per call for each distinct matrix, as a tuple of row tuples, and
        every step that uses that matrix gets the same object: they are
        shared, not copied."""
        alloc = [tuple(map(tuple, a)) for a in self.alloc.tolist()]
        for rows in _row_blocks(len(self.table)):
            yield from zip(self.table[rows].tolist(),
                           map(alloc.__getitem__, self.alloc_index[rows].tolist()))


def scenario_signals(scenario: Scenario) -> ScenarioSignals:
    """Evaluate the scenario's reference, disturbance, health and synthetic
    observer signals on the step grid into one table, integrate the
    reference attitude into it and build the allocation matrices."""
    dt = scenario.dt
    n = scenario.n_steps
    e = 14 + scenario.bank.m  # end of the health columns
    synthetic = scenario.observer.kind == "synthetic"
    table = np.empty((n, e + 7 if synthetic else e))
    t = dt * np.arange(n)
    table[:, 0] = t
    table[:, 5:8] = scenario.omega_d(t)
    table[:, 8:11] = scenario.omega_d.derivative(t)
    table[:, 11:14] = scenario.disturbance(t + 0.5 * dt)
    table[:, 14:e] = scenario.health(t)
    if synthetic:
        synth = scenario.observer.synthetic_profile()
        table[:, e:e + 4] = synth.qtilde(t) * np.array([1.0, -1.0, -1.0, -1.0])
        table[:, e + 4:] = synth.omega_tilde(t)

    # reference attitude: RK4 of the kinematics through the reference rates
    wdh = scenario.omega_d(t + 0.5 * dt)
    wdf = scenario.omega_d(t + dt)
    q = tuple(scenario.qd0.tolist())
    for rows in _row_blocks(n):
        block = []
        for w1, w2, w4 in zip(table[rows, 5:8].tolist(), wdh[rows].tolist(), wdf[rows].tolist()):
            block.append(q)
            q = kernel.kinematics_rk4(q, w1, w2, w4, dt)
        table[rows, 1:5] = block
    del wdh, wdf

    # allocation matrices, computed once per distinct health-estimate row
    rows, runs, starts = scenario.health_estimate_runs
    return ScenarioSignals(
        scenario=scenario,
        coeffs=robust_coefficients(scenario.budget, scenario.gains.k),
        table=table,
        alloc=np.array([allocation_matrix(scenario.bank, e_hat) for e_hat in rows]),
        alloc_index=np.repeat(runs, np.diff(starts, append=n)),
    )


def run_scenario(
    scenario: Scenario, seed: int | None = None, signals: ScenarioSignals | None = None
) -> RunTrace:
    """Propagate the full closed loop truth -> observer -> controller ->
    actuators -> dynamics at fixed dt.

    signals, from scenario_signals(scenario), lets the instances of a
    campaign share one precompute; it is built here when not given."""
    seed = scenario.seed if seed is None else check_integer("seed", seed, 0)
    if signals is None:
        signals = scenario_signals(scenario)
    elif signals.scenario is not scenario:
        raise ValueError("signals were built for a different scenario")
    rng = np.random.default_rng(seed)
    dt = scenario.dt
    dec = scenario.record_decimation
    m = scenario.bank.m

    q, w = _initial_state(scenario, rng)
    spec = scenario.observer
    if spec.kind == "perfect":
        observe = kernel.perfect_observe
    elif spec.kind == "synthetic":
        observe = kernel.synthetic_observe
    else:  # bias observer fed by noisy sensors, drawing after the initial state
        observe = kernel.bias_observer(scenario.noise, spec.k_o, spec.k_b, dt, rng)
    advance = kernel.closed_loop(scenario.gains, scenario.estimates, signals.coeffs,
                                 scenario.bank, scenario.J, dt, observe)

    # one recorded row per dec steps, in the column order of the RunTrace fields
    rec = np.empty((-(-scenario.n_steps // dec), 17 + m))
    advance(q, w, signals.steps(), rec, dec)
    return RunTrace(t=rec[:, 0], qe=rec[:, 1:5], omega_e=rec[:, 5:8], s=rec[:, 8:11],
                    s_hat=rec[:, 11:14], theta_e_deg=rec[:, 14], tau_u=rec[:, 15:15 + m],
                    qtilde_norm=rec[:, 15 + m], wtilde_norm=rec[:, 16 + m], seed=seed,
                    dt=dt * dec)


def steady_state_stats(trace: RunTrace, tail_fraction: float) -> TailStats:
    """Maxima over the final max(1, round(tail_fraction*n)) of the n recorded
    samples, and tau_u_peak."""
    n = len(trace.t)
    if not 0.0 < tail_fraction <= 1.0:
        raise ValueError("tail_fraction must be in (0, 1]")
    if n == 0:
        raise ValueError("tail window has no samples")
    sl = slice(n - max(1, round(tail_fraction * n)), n)
    return TailStats(
        theta_e_max_deg=float(np.max(trace.theta_e_deg[sl])),
        omega_e_max=float(np.max(np.linalg.norm(trace.omega_e[sl], axis=1))),
        qe_vec_max=float(np.max(np.linalg.norm(trace.qe[sl, 1:], axis=1))),
        s_max=float(np.max(np.linalg.norm(trace.s[sl], axis=1))),
        qtilde_max=float(np.max(trace.qtilde_norm[sl])),
        wtilde_max=float(np.max(trace.wtilde_norm[sl])),
        tau_u_peak=np.abs(trace.tau_u).max(axis=0).tolist(),
    )


def instance_seeds(campaign_seed: int, n: int) -> list[int]:
    """Deterministic per-instance seeds derived from the campaign seed."""
    ss = np.random.SeedSequence(campaign_seed)
    return [int(child.generate_state(1)[0]) for child in ss.spawn(n)]


def _available_cpus() -> int:
    """How many processes a campaign may spread its instances over: the CPUs
    this process may run on, or 1 where os.fork is missing or another thread
    runs, since a forked child would inherit the locks that thread holds."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_instances(scenario: Scenario, signals: ScenarioSignals, seeds: list[int],
                   start: int, stop: int) -> list[TailStats | str]:
    """The tail statistics of instances start..stop-1, or for an instance
    whose state went non-finite the failure line naming its index and seed."""
    results: list[TailStats | str] = []
    for idx in range(start, stop):
        try:
            trace = run_scenario(scenario, seed=seeds[idx], signals=signals)
            results.append(steady_state_stats(trace, scenario.tail_fraction))
        except NonFiniteState as exc:
            results.append(f"instance {idx} (seed {seeds[idx]}): {exc}")
    return results


def _fork(fn):
    """Run fn() in a forked child, which pickles what it returns, or the
    exception it raises, into a pipe and leaves through os._exit. Returns the
    child's pid and the read end of the pipe."""
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        raise
    if pid:
        os.close(w)
        return pid, os.fdopen(r, "rb")
    try:
        os.close(r)
        try:
            result = (True, fn())
        except BaseException as exc:
            result = (False, exc)
        with os.fdopen(w, "wb") as pipe:
            pipe.write(pickle.dumps(result))
    finally:
        os._exit(0)


def _receive(pipe):
    """What a forked child's fn() returned; the exception it raised is raised here."""
    with pipe:
        data = pipe.read()
    try:
        ok, value = pickle.loads(data)
    except Exception as exc:
        raise ChildProcessError("a campaign worker exited without sending its result") from exc
    if not ok:
        raise value
    return value


def run_campaign(scenario: Scenario, n_instances: int) -> CampaignSummary:
    """Run n independent instances; keep the outcome of each in seed order.

    The bound prediction and the shared precompute come first. An instance
    whose state goes non-finite is recorded as failed and the campaign
    continues.

    The instances are split into one contiguous chunk per available CPU.
    This process runs the first chunk and a forked child runs each other one,
    sharing the precompute; the results are joined in seed order, so the
    summary is the one a serial loop gives.
    """
    n_instances = check_integer("n_instances", n_instances, 1)
    # a failed gain condition or rank-deficient allocation fails before any instance runs
    predicted = predict(scenario.budget, scenario.gains)
    signals = scenario_signals(scenario)
    seeds = instance_seeds(scenario.seed, n_instances)
    w = min(n_instances, _available_cpus())
    bounds = [n_instances * i // w for i in range(w + 1)]
    children = []  # (pid, read end of its result pipe)
    try:
        for start, stop in zip(bounds[1:-1], bounds[2:]):
            children.append(_fork(partial(_run_instances, scenario, signals, seeds, start, stop)))
        results = _run_instances(scenario, signals, seeds, 0, bounds[1])
        for _, pipe in children:
            results += _receive(pipe)
    except BaseException:
        for pid, _ in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid, pipe in children:
            pipe.close()
            os.waitpid(pid, 0)
    return CampaignSummary(outcomes=results, seeds=seeds, predicted=predicted)


def verify(scenario: Scenario, n_instances: int, strict: bool = True) -> dict:
    """Predict bounds, run a campaign, and check the envelope property."""
    summary = run_campaign(scenario, n_instances)
    env = summary.envelope()
    report = {
        "scenario": scenario.name,
        "n_instances": len(summary.outcomes),
        "theta_bound_deg": env["theta_bound_deg"],
        "omega_bound_rad_s": env["omega_bound_rad_s"],
        "theta_tail_max_deg": summary.theta_e_max_deg,
        "omega_tail_max_rad_s": summary.omega_e_max,
        "qe_bound": env["qe_bound"],
        "qe_tail_max": summary.qe_vec_max,
        "theta_margin_ratio": env["theta_margin_ratio"],
        "omega_margin_ratio": env["omega_margin_ratio"],
        "roundoff_floor": ROUNDOFF_FLOOR,
        "failures": summary.failures,
        "passed": summary.passed,
    }
    if strict and not summary.passed:
        if summary.failures:
            raise BoundViolated(f"failed instances: {'; '.join(summary.failures)}")
        offenders = [f"instance {i} (seed {seed})" for i, (seed, ok)
                     in enumerate(zip(summary.seeds, summary.instance_pass, strict=True)) if not ok]
        raise BoundViolated(
            f"tail maxima exceed predicted bounds in {', '.join(offenders)}: "
            f"theta {summary.theta_e_max_deg:.4g} deg vs {env['theta_bound_deg']:.4g} deg, "
            f"omega {summary.omega_e_max:.4g} vs {env['omega_bound_rad_s']:.4g} rad/s"
        )
    return report


# ---------------------------------------------------------------------------
# persistence


def trace_columns(m: int) -> list[str]:
    return (
        ["t", "qe0", "qe1", "qe2", "qe3", "wex", "wey", "wez", "theta_e_deg", "snorm", "shatnorm"]
        + [f"tau_u{i + 1}" for i in range(m)]
        + ["qtilde_norm", "wtilde_norm"]
    )


def export_trace_csv(trace: RunTrace, path: str | Path):
    """Fixed-column CSV export of a run trace (13 + m columns). Every value is
    written as %.17g, which reads back as the same float; the bytes are those
    of np.savetxt with that format, written row block by row block."""
    m = trace.tau_u.shape[1]
    data = np.column_stack(
        [
            trace.t,
            trace.qe,
            trace.omega_e,
            trace.theta_e_deg,
            np.linalg.norm(trace.s, axis=1),
            np.linalg.norm(trace.s_hat, axis=1),
            trace.tau_u,
            trace.qtilde_norm,
            trace.wtilde_norm,
        ]
    )
    row = ",".join(["%.17g"] * data.shape[1]) + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(trace_columns(m)) + "\n")
        for rows in _row_blocks(len(data)):
            fh.writelines(map(row.__mod__, map(tuple, data[rows].tolist())))


def json_record(record: dict, **kwargs) -> str:
    """The JSON text of a record whose values are scalars or lists of them,
    each non-finite float written as null: strict parsers reject NaN and
    Infinity. A non-finite value anywhere else raises."""
    def finite(v):
        return None if isinstance(v, float) and not math.isfinite(v) else v
    return json.dumps({key: list(map(finite, v)) if isinstance(v, list) else finite(v)
                       for key, v in record.items()}, allow_nan=False, **kwargs)


def export_summary_jsonl(summary: CampaignSummary, path: str | Path):
    """One JSONL record per finished instance, labelled with its index and
    seed, plus a campaign-level record."""
    with open(path, "w") as fh:
        for idx, (outcome, seed, ok) in enumerate(
                zip(summary.outcomes, summary.seeds, summary.instance_pass, strict=True)):
            if isinstance(outcome, TailStats):
                fh.write(json_record({"instance": idx, "seed": seed, **outcome.__dict__,
                                      "passed": ok}) + "\n")
        env = summary.envelope()
        camp = {
            "campaign": True,
            "theta_e_max_deg": summary.theta_e_max_deg,
            "omega_e_max": summary.omega_e_max,
            "qe_vec_max": summary.qe_vec_max,
            "qtilde_max": summary.qtilde_max,
            "wtilde_max": summary.wtilde_max,
            "failures": summary.failures,
            **{key: env[key] for key in ("theta_bound_deg", "omega_bound_rad_s", "qe_bound")},
        }
        fh.write(json_record(camp) + "\n")


def export_bound_trace_jsonl(trace: BoundTrace, path: str | Path):
    """One record per fixed-point iteration plus a summary record."""
    with open(path, "w") as fh:
        for i, (s, q) in enumerate(trace.loop1, start=1):
            fh.write(json_record({"loop": 1, "i": i, "s_bar": s, "q_bar": q}) + "\n")
        for i, (s, q) in enumerate(trace.loop2, start=1):
            fh.write(json_record({"loop": 2, "i": i, "s_bar": s, "q_bar": q}) + "\n")
        fh.write(
            json_record(
                {
                    "summary": True,
                    "eta": ETA,
                    "switch_index": trace.switch_index,
                    "total_iterations": trace.total_iterations,
                    "s_inf": trace.s_inf,
                    "q_inf": trace.q_inf,
                    "s_inf_prime": trace.s_inf_prime,
                    "q_inf_prime": trace.q_inf_prime,
                    "q_bound": trace.q_final,
                    "omega_bound_rad_s": trace.omega_bound,
                    "theta_bound_rad": trace.theta_bound,
                }
            )
            + "\n"
        )
