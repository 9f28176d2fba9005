"""Closed-loop simulation, Monte Carlo campaigns, steady-state statistics,
predicted-vs-simulated verification, and trace persistence."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import repeat
from pathlib import Path

import numpy as np

from . import kernel
from .actuation import allocation_matrix
from .bounds import BoundTrace, RobustCoefficients, predict, robust_coefficients
from .config import zero_budget
from .dynamics import SpacecraftState
from .errors import BoundViolated, EmptyTail, NonFiniteState
from .estimation import SyntheticErrorProfile, random_unit_vector
from .kernel import ROW_BLOCK
from .scenario import Scenario
from .so3 import quat_from_axis_angle


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
    scenario_name: str = ""
    dt: float = 0.0


@dataclass
class TailStats:
    """Maxima over the final tail window of a run."""

    theta_e_max_deg: float
    omega_e_max: float
    qe_vec_max: float
    s_max: float
    qtilde_max: float
    wtilde_max: float


@dataclass
class CampaignSummary:
    """Per-instance tail statistics and campaign-wide maxima."""

    instances: list[TailStats]
    seeds: list[int]
    failures: list[str]
    theta_e_max_deg: float
    omega_e_max: float
    qe_vec_max: float
    qtilde_max: float
    wtilde_max: float
    predicted: BoundTrace | None = None
    instance_pass: list[bool] = field(default_factory=list)


def _initial_state(scenario: Scenario, rng: np.random.Generator) -> SpacecraftState:
    init = scenario.init
    if init.kind == "fixed":
        return SpacecraftState(q=np.asarray(init.q0, dtype=float),
                               omega=np.asarray(init.omega0, dtype=float))
    omega0 = rng.uniform(-init.omega_abs_max, init.omega_abs_max, size=3)
    theta0 = rng.uniform(0.0, init.theta_max)
    q0 = quat_from_axis_angle(random_unit_vector(rng), theta0)
    return SpacecraftState(q=q0, omega=omega0)


def _row_blocks(n: int):
    """Slices of ROW_BLOCK rows that cover range(n)."""
    return (slice(i, min(i + ROW_BLOCK, n)) for i in range(0, n, ROW_BLOCK))


@dataclass
class ScenarioSignals:
    """What the closed loop needs that does not depend on the instance, on the
    step grid of one scenario. Built once by scenario_signals and shared by
    every instance of a campaign; run_scenario reads it in row blocks."""

    scenario: Scenario
    coeffs: RobustCoefficients
    t: np.ndarray  # (n,) step start times
    qd: np.ndarray  # (n, 4) reference attitude at each step start
    omega_d: np.ndarray  # (n, 3)
    omega_d_dot: np.ndarray  # (n, 3)
    tau_d: np.ndarray  # (n, 3) disturbance at each step midpoint
    health: np.ndarray  # (n, m) true health indicators
    alloc: np.ndarray  # (k, m, 3) allocation matrix of each distinct health-estimate row
    alloc_index: np.ndarray  # (n,) row of alloc used at each step
    qtilde_inv: np.ndarray | None = None  # (n, 4) synthetic observer qtilde(t)^-1
    omega_tilde: np.ndarray | None = None  # (n, 3) synthetic observer omega_tilde(t)

    def steps(self):
        """Per step: t, qd, omega_d, omega_d_dot, tau_d, health, allocation
        rows, qtilde^-1 and omega_tilde (None unless synthetic), as floats.

        The allocation rows are converted once per call for each distinct
        matrix, as a tuple of row tuples, and every step that uses that
        matrix gets the same object: they are shared, not copied."""
        alloc = [tuple(map(tuple, a)) for a in self.alloc.tolist()]
        for rows in _row_blocks(len(self.t)):
            obs = [repeat(None) if a is None else a[rows].tolist()
                   for a in (self.qtilde_inv, self.omega_tilde)]
            yield from zip(
                self.t[rows].tolist(), self.qd[rows].tolist(), self.omega_d[rows].tolist(),
                self.omega_d_dot[rows].tolist(), self.tau_d[rows].tolist(),
                self.health[rows].tolist(),
                map(alloc.__getitem__, self.alloc_index[rows].tolist()), *obs)


def scenario_signals(scenario: Scenario) -> ScenarioSignals:
    """Evaluate the scenario's reference, disturbance, health and synthetic
    observer signals on the step grid, integrate the reference attitude and
    build the allocation matrices. Raises RankDeficient when the health
    estimate loses full actuation anywhere on the grid."""
    dt = scenario.dt
    n = scenario.n_steps
    budget = scenario.budget
    if budget is None:
        budget = zero_budget(scenario.estimates.J_hat_norm)
    t = dt * np.arange(n)
    wd0 = scenario.omega_d(t)
    wdh = scenario.omega_d(t + 0.5 * dt)
    wdf = scenario.omega_d(t + dt)

    # reference attitude: RK4 of the kinematics through the reference rates
    qd = np.empty((n, 4))
    q = tuple(scenario.qd0.tolist())
    for rows in _row_blocks(n):
        block = []
        for w1, w2, w4 in zip(wd0[rows].tolist(), wdh[rows].tolist(), wdf[rows].tolist()):
            block.append(q)
            q = kernel.kinematics_rk4(q, w1, w2, w4, dt)
        qd[rows] = block
    del wdh, wdf

    # allocation matrices, computed once per distinct health-estimate row
    rows, runs, starts = scenario.health_estimate_runs()
    alloc = np.array([allocation_matrix(scenario.bank, e) for e in rows])

    qtilde_inv = omega_tilde = None
    spec = scenario.observer
    if spec.kind == "synthetic":
        synth = SyntheticErrorProfile(
            amp_q=spec.amp_q,
            amp_w=spec.amp_w,
            freq_q=spec.freq_q,
            freq_w=spec.freq_w,
            phase_q=spec.phase_q,
            phase_w=spec.phase_w,
        )
        qtilde_inv = synth.qtilde(t) * np.array([1.0, -1.0, -1.0, -1.0])
        omega_tilde = synth.omega_tilde(t)

    return ScenarioSignals(
        scenario=scenario,
        coeffs=robust_coefficients(budget, scenario.gains.k),
        t=t,
        qd=qd,
        omega_d=wd0,
        omega_d_dot=scenario.omega_d.derivative(t),
        tau_d=scenario.disturbance(t + 0.5 * dt),
        health=scenario.health(t),
        alloc=alloc,
        alloc_index=np.repeat(runs, np.diff(starts, append=n)),
        qtilde_inv=qtilde_inv,
        omega_tilde=omega_tilde,
    )


def run_scenario(
    scenario: Scenario, seed: int | None = None, signals: ScenarioSignals | None = None
) -> RunTrace:
    """Propagate the full closed loop truth -> observer -> controller ->
    actuators -> dynamics at fixed dt.

    signals, from scenario_signals(scenario), lets the instances of a
    campaign share one precompute; it is built here when not given."""
    seed = scenario.seed if seed is None else seed
    if signals is None:
        signals = scenario_signals(scenario)
    elif signals.scenario is not scenario:
        raise ValueError("signals were built for a different scenario")
    rng = np.random.default_rng(seed)
    dt = scenario.dt
    n = scenario.n_steps
    dec = scenario.record_decimation
    m = scenario.bank.m
    k = scenario.gains.k

    control = kernel.control_law(scenario.gains, scenario.estimates, signals.coeffs,
                                 scenario.bank.tau_max)
    plant = kernel.plant_step(scenario.J, dt)
    state = _initial_state(scenario, rng)
    q, w = tuple(state.q.tolist()), tuple(state.omega.tolist())
    spec = scenario.observer
    if spec.kind == "perfect":
        observe = kernel.perfect_observe
    elif spec.kind == "synthetic":
        observe = kernel.synthetic_observe
    else:  # bias observer fed by noisy sensors, drawing after the initial state
        observe = kernel.bias_observer(scenario.noise, spec.k_o, spec.k_b, dt, rng)
    D = scenario.bank.D.T.tolist()  # thruster-pair torque directions

    # recorded fields and their widths, in the column order of a recorded row
    widths = {"t": 1, "qe": 4, "omega_e": 3, "s": 3, "s_hat": 3, "theta_e_deg": 1,
              "tau_u": m, "qtilde_norm": 1, "wtilde_norm": 1}
    n_rec = (n + dec - 1) // dec
    rec = {name: np.empty((n_rec, wn) if wn > 1 else n_rec) for name, wn in widths.items()}
    rows: list[tuple] = []
    r = 0

    def flush():
        nonlocal r
        block = np.array(rows)
        c = 0
        for name, wn in widths.items():
            rec[name][r:r + len(rows)] = block[:, c:c + wn] if wn > 1 else block[:, c]
            c += wn
        r += len(rows)
        rows.clear()

    for i, (t, qd, wd, wdd, taud, e, alloc, qti, wt) in enumerate(signals.steps()):
        qh, wh = observe(q, w, qti, wt)
        tau_u, s_hat = control(qh, wh, qd, wd, wdd, alloc)
        if i % dec == 0:
            *errors, theta, qtn, wtn = kernel.tracking_record(q, w, qd, wd, qh, wh, k)
            rows.append((t, *errors, *s_hat, theta, *tau_u, qtn, wtn))
            if len(rows) == ROW_BLOCK:
                flush()
        # realized torque D * E * tau_u, plus the disturbance
        cx = cy = cz = 0.0
        for (dx, dy, dz), ej, tj in zip(D, e, tau_u):
            p = ej * tj
            cx += dx * p
            cy += dy * p
            cz += dz * p
        try:
            q, w = plant(q, w, (cx + taud[0], cy + taud[1], cz + taud[2]))
        except NonFiniteState:
            raise NonFiniteState(f"non-finite state at step {i} (t={t:.3f} s)") from None
    if rows:
        flush()

    return RunTrace(
        **rec,
        seed=int(seed) if np.isscalar(seed) else -1,
        scenario_name=scenario.name,
        dt=dt * dec,
    )


def steady_state_stats(trace: RunTrace, tail_fraction: float = 0.2) -> TailStats:
    """Maxima over the final tail_fraction of recorded samples."""
    if not 0.0 < tail_fraction <= 1.0:
        raise ValueError("tail_fraction must be in (0, 1]")
    n = len(trace.t)
    start = n - max(1, int(round(tail_fraction * n)))
    if n == 0 or start >= n:
        raise EmptyTail("tail window has no samples")
    sl = slice(start, n)
    return TailStats(
        theta_e_max_deg=float(np.max(trace.theta_e_deg[sl])),
        omega_e_max=float(np.max(np.linalg.norm(trace.omega_e[sl], axis=1))),
        qe_vec_max=float(np.max(np.linalg.norm(trace.qe[sl, 1:], axis=1))),
        s_max=float(np.max(np.linalg.norm(trace.s[sl], axis=1))),
        qtilde_max=float(np.max(trace.qtilde_norm[sl])),
        wtilde_max=float(np.max(trace.wtilde_norm[sl])),
    )


def instance_seeds(campaign_seed: int, n: int) -> list[int]:
    """Deterministic per-instance seeds derived from the campaign seed."""
    ss = np.random.SeedSequence(campaign_seed)
    return [int(child.generate_state(1)[0]) for child in ss.spawn(n)]


def run_campaign(scenario: Scenario, n_instances: int, eta: float = 1e-6) -> CampaignSummary:
    """Run n independent instances; aggregate tail statistics.

    The bound prediction (when the scenario has a budget) and the shared
    precompute come first. Per-instance failures are recorded and the
    campaign continues.
    """
    if n_instances < 1:
        raise ValueError("n_instances must be >= 1")
    # a failed gain condition or rank-deficient allocation fails before any instance runs
    predicted = None
    if scenario.budget is not None:
        predicted = predict(scenario.budget, scenario.gains, eta=eta)
    signals = scenario_signals(scenario)
    seeds = instance_seeds(scenario.seed, n_instances)
    instances: list[TailStats] = []
    failures: list[str] = []
    for idx, seed in enumerate(seeds):
        try:
            trace = run_scenario(scenario, seed=seed, signals=signals)
            instances.append(steady_state_stats(trace, scenario.tail_fraction))
        except NonFiniteState as exc:
            failures.append(f"instance {idx} (seed {seed}): {exc}")

    instance_pass: list[bool] = []
    if predicted is not None:
        theta_bound_deg = math.degrees(predicted.theta_bound)
        instance_pass = [
            st.theta_e_max_deg <= theta_bound_deg and st.omega_e_max <= predicted.omega_bound
            for st in instances
        ]

    def agg(attr):
        return max((getattr(st, attr) for st in instances), default=math.nan)

    return CampaignSummary(
        instances=instances,
        seeds=seeds,
        failures=failures,
        theta_e_max_deg=agg("theta_e_max_deg"),
        omega_e_max=agg("omega_e_max"),
        qe_vec_max=agg("qe_vec_max"),
        qtilde_max=agg("qtilde_max"),
        wtilde_max=agg("wtilde_max"),
        predicted=predicted,
        instance_pass=instance_pass,
    )


def verify(scenario: Scenario, n_instances: int, eta: float = 1e-6, strict: bool = True) -> dict:
    """Predict bounds, run a campaign, and check the envelope property."""
    if scenario.budget is None:
        raise ValueError("scenario has no uncertainty budget")
    summary = run_campaign(scenario, n_instances, eta=eta)
    predicted = summary.predicted
    theta_bound_deg = math.degrees(predicted.theta_bound)
    omega_bound = predicted.omega_bound
    report = {
        "scenario": scenario.name,
        "n_instances": n_instances,
        "theta_bound_deg": theta_bound_deg,
        "omega_bound_rad_s": omega_bound,
        "theta_tail_max_deg": summary.theta_e_max_deg,
        "omega_tail_max_rad_s": summary.omega_e_max,
        "qe_bound": predicted.q_final,
        "qe_tail_max": summary.qe_vec_max,
        "theta_margin_ratio": theta_bound_deg / summary.theta_e_max_deg
        if summary.theta_e_max_deg > 0
        else math.inf,
        "omega_margin_ratio": omega_bound / summary.omega_e_max
        if summary.omega_e_max > 0
        else math.inf,
        "failures": summary.failures,
        "passed": bool(
            not summary.failures
            and summary.theta_e_max_deg <= theta_bound_deg
            and summary.omega_e_max <= omega_bound
        ),
    }
    if strict and not report["passed"]:
        offenders = [i for i, ok in enumerate(summary.instance_pass) if not ok]
        raise BoundViolated(
            f"tail maxima exceed predicted bounds (instances {offenders}): "
            f"theta {summary.theta_e_max_deg:.4g} deg vs {theta_bound_deg:.4g} deg, "
            f"omega {summary.omega_e_max:.4g} vs {omega_bound:.4g} rad/s"
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


def export_summary_jsonl(summary: CampaignSummary, path: str | Path):
    """One JSONL record per instance plus a campaign-level record."""
    with open(path, "w") as fh:
        for idx, (st, seed) in enumerate(zip(summary.instances, summary.seeds)):
            rec = {"instance": idx, "seed": seed, **st.__dict__}
            if summary.instance_pass:
                rec["passed"] = summary.instance_pass[idx]
            fh.write(json.dumps(rec) + "\n")
        camp = {
            "campaign": True,
            "theta_e_max_deg": summary.theta_e_max_deg,
            "omega_e_max": summary.omega_e_max,
            "qe_vec_max": summary.qe_vec_max,
            "qtilde_max": summary.qtilde_max,
            "wtilde_max": summary.wtilde_max,
            "failures": summary.failures,
        }
        if summary.predicted is not None:
            camp["theta_bound_deg"] = math.degrees(summary.predicted.theta_bound)
            camp["omega_bound_rad_s"] = summary.predicted.omega_bound
            camp["qe_bound"] = summary.predicted.q_final
        fh.write(json.dumps(camp) + "\n")


def export_bound_trace_jsonl(trace: BoundTrace, path: str | Path):
    """One record per fixed-point iteration plus a summary record."""
    with open(path, "w") as fh:
        for i, (s, q) in enumerate(trace.loop1, start=1):
            fh.write(json.dumps({"loop": 1, "i": i, "s_bar": s, "q_bar": q}) + "\n")
        for i, (s, q) in enumerate(trace.loop2, start=1):
            fh.write(json.dumps({"loop": 2, "i": i, "s_bar": s, "q_bar": q}) + "\n")
        fh.write(
            json.dumps(
                {
                    "summary": True,
                    "eta": trace.eta,
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
