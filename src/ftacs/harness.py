"""Closed-loop simulation, Monte Carlo campaigns, predicted-vs-simulated
verification, and trace persistence.

An instance is one call of the compiled kernel (kernel.ClosedLoop), which
closed_loop binds once per scenario. The kernel forms the instance record,
the tail maxima and command peaks, from the rows it records, so a campaign
keeps no record table: run_instance draws the initial state, makes the call
and names the record's floats. run_scenario also passes the kernel a table
for the rows, which its RunTrace views."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import kernel
from .actuation import allocation_matrix
from .bounds import ETA, BoundTrace, predict, robust_coefficients
from .config import check_integer
from .errors import BoundViolated, NonFiniteState
from .estimation import random_unit_vector
from .scenario import Scenario


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
    dt: float = 0.0
    record: dict | None = None  # the instance record of the run (run_instance)

    @classmethod
    def from_rows(cls, rec: np.ndarray, dt: float, record: dict) -> "RunTrace":
        """The trace whose fields view the kernel's recorded rows, rec."""
        m = rec.shape[1] - 17
        return cls(t=rec[:, 0], qe=rec[:, 1:5], omega_e=rec[:, 5:8], s=rec[:, 8:11],
                   s_hat=rec[:, 11:14], theta_e_deg=rec[:, 14], tau_u=rec[:, 15:15 + m],
                   qtilde_norm=rec[:, 15 + m], wtilde_norm=rec[:, 16 + m], dt=dt, record=record)


@dataclass(frozen=True)
class CampaignSummary:
    """The outcome of each instance in seed order, the instance record of an
    instance that finished (see run_instance) or the failure line of one
    whose state went non-finite, beside its seed, and the predicted bounds.
    Everything else is read from the outcomes; record() gathers it."""

    outcomes: list[dict | str]
    seeds: list[int]
    predicted: BoundTrace

    @property
    def instances(self) -> list[dict]:
        return [r for r in self.outcomes if isinstance(r, dict)]

    @property
    def failures(self) -> list[str]:
        return [r for r in self.outcomes if isinstance(r, str)]

    @property
    def instance_pass(self) -> list[bool]:
        """Per instance in seed order: it finished inside both predicted
        bounds, up to ROUNDOFF_FLOOR. A failed instance does not pass."""
        theta_limit = math.degrees(self.predicted.theta_bound) + ROUNDOFF_FLOOR
        omega_limit = self.predicted.omega_bound + ROUNDOFF_FLOOR
        return [isinstance(r, dict) and r["theta_tail_max_deg"] <= theta_limit
                and r["omega_tail_max_rad_s"] <= omega_limit for r in self.outcomes]

    @property
    def passed(self) -> bool:
        """Every instance finished inside both predicted bounds."""
        return all(self.instance_pass)

    def record(self) -> dict:
        """The campaign record that verify reports and the campaign line of
        the JSONL holds: the instance count; the predicted bounds (theta in
        degrees, omega in rad/s, |qe|); the tail maxima over the finished
        instances, NaN when none finished; the margin ratios bound/max of
        theta and omega, inf when the maximum is 0 and NaN when no instance
        finished; the round-off floor, the failure lines and the verdict."""
        p = self.predicted
        bounds = {"theta_bound_deg": math.degrees(p.theta_bound),
                  "omega_bound_rad_s": p.omega_bound, "qe_bound": p.q_final}
        maxima = {key: max((st[key] for st in self.instances), default=math.nan)
                  for key in ("theta_tail_max_deg", "omega_tail_max_rad_s", "qe_tail_max",
                              "qtilde_tail_max", "wtilde_tail_max")}

        def margin(bound, peak):
            return bound / peak if peak > 0 else math.inf if peak == 0 else math.nan

        return {
            "n_instances": len(self.outcomes),
            **bounds,
            **maxima,
            "theta_margin_ratio": margin(bounds["theta_bound_deg"], maxima["theta_tail_max_deg"]),
            "omega_margin_ratio": margin(p.omega_bound, maxima["omega_tail_max_rad_s"]),
            "roundoff_floor": ROUNDOFF_FLOOR,
            "failures": self.failures,
            "passed": self.passed,
        }


def _initial_state(scenario: Scenario, rng: np.random.Generator) -> tuple[tuple, tuple]:
    """(q, omega) as float tuples, q normalized."""
    init = scenario.init
    if init.kind == "fixed":
        return kernel.unit_quaternion(init.q0), init.omega0
    omega0 = tuple(rng.uniform(-init.omega_abs_max, init.omega_abs_max, size=3).tolist())
    h = 0.5 * rng.uniform(0.0, init.theta_max)
    s = math.sin(h)
    x, y, z = random_unit_vector(rng).tolist()
    q = kernel.unit_quaternion((math.cos(h), s * x, s * y, s * z))
    # the axis-angle quaternion normalized twice: once gives other bits on about 2 % of draws
    return kernel.unit_quaternion(q), omega0


def closed_loop(scenario: Scenario) -> kernel.ClosedLoop:
    """The closed loop that every instance of scenario shares, on its step
    table (kernel.step_table), the allocation matrix of each distinct
    health-estimate row and the kernel's packed constants."""
    rows, runs, starts = scenario.health_estimate_runs
    constants, pairs = kernel.constants(scenario, robust_coefficients(scenario.budget,
                                                                      scenario.gains.k))
    return kernel.ClosedLoop(
        scenario, constants, pairs, kernel.step_table(scenario),
        np.array([allocation_matrix(scenario.bank, e_hat) for e_hat in rows]),
        np.repeat(runs, np.diff(starts, append=scenario.n_steps)).astype(np.int64, copy=False))


# the keys of the instance record, in the order of the kernel's stats; each
# pair's command peak, tau_u_peak, follows them
INSTANCE_KEYS = ("theta_tail_max_deg", "omega_tail_max_rad_s", "qe_tail_max", "s_tail_max",
                 "qtilde_tail_max", "wtilde_tail_max")


def run_instance(loop: kernel.ClosedLoop, seed: int, rec: np.ndarray | None = None) -> dict:
    """Run the instance of loop's scenario from seed, which also fills rec
    when given, and return the instance record: the maxima over the final
    max(1, round(tail_fraction*n)) of the n recorded samples, under the
    campaign record's keys, and tau_u_peak, per thruster pair the max
    |tau_u,i| over the whole recorded run, not only the tail."""
    rng = np.random.default_rng(seed)
    q, w = _initial_state(loop.scenario, rng)  # a bias observer draws its noise after it
    *_, stats = loop(q, w, rng, rec)
    return dict(zip(INSTANCE_KEYS, stats), tau_u_peak=stats[len(INSTANCE_KEYS):])


def run_scenario(scenario: Scenario) -> RunTrace:
    """Propagate the full closed loop truth -> observer -> controller ->
    actuators -> dynamics at fixed dt, from the scenario's own seed, and
    return its recorded rows and its instance record."""
    loop = closed_loop(scenario)
    rec = np.empty(loop.rec_shape)  # one recorded row per loop.record_every steps
    record = run_instance(loop, scenario.seed, rec)
    return RunTrace.from_rows(rec, scenario.dt * loop.record_every, record)


def instance_seeds(campaign_seed: int, n: int) -> list[int]:
    """Deterministic per-instance seeds derived from the campaign seed."""
    ss = np.random.SeedSequence(campaign_seed)
    return [int(child.generate_state(1)[0]) for child in ss.spawn(n)]


def run_campaign(scenario: Scenario, n_instances: int) -> CampaignSummary:
    """Run n independent instances in seed order, in this process, and keep
    the outcome of each.

    The bound prediction and the closed loop that the instances share come
    first; each instance is then run_instance on its own seed, with no
    record table. An instance whose state goes non-finite is recorded as
    failed, by a line naming its index and seed, and the campaign continues;
    any other exception ends it."""
    n_instances = check_integer("n_instances", n_instances, 1)
    # a failed gain condition or rank-deficient allocation fails before any instance runs
    predicted = predict(scenario.budget, scenario.gains)
    loop = closed_loop(scenario)
    seeds = instance_seeds(scenario.seed, n_instances)
    outcomes: list[dict | str] = []
    for idx, seed in enumerate(seeds):
        try:
            outcomes.append(run_instance(loop, seed))
        except NonFiniteState as exc:
            outcomes.append(f"instance {idx} (seed {seed}): {exc}")
    return CampaignSummary(outcomes=outcomes, seeds=seeds, predicted=predicted)


def verify(scenario: Scenario, n_instances: int, strict: bool = True) -> dict:
    """Predict bounds, run a campaign, and check the envelope property. The
    report is the campaign record, labelled with the scenario name."""
    summary = run_campaign(scenario, n_instances)
    report = {"scenario": scenario.name, **summary.record()}
    if strict and not report["passed"]:
        if report["failures"]:
            raise BoundViolated(f"failed instances: {'; '.join(report['failures'])}")
        offenders = [f"instance {i} (seed {seed})" for i, (seed, ok)
                     in enumerate(zip(summary.seeds, summary.instance_pass, strict=True)) if not ok]
        raise BoundViolated(
            f"tail maxima exceed predicted bounds in {', '.join(offenders)}: "
            f"theta {report['theta_tail_max_deg']:.4g} deg vs {report['theta_bound_deg']:.4g} deg, "
            f"omega {report['omega_tail_max_rad_s']:.4g} vs {report['omega_bound_rad_s']:.4g} rad/s"
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
    of np.savetxt with that format, written by kernel.format_rows one
    ROW_BLOCK of rows at a time through one buffer, which holds
    kernel.VALUE_BYTES per value; rows that do not fit in it raise
    RuntimeError rather than write what the buffer held before."""
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
    buf = np.empty(kernel.VALUE_BYTES * kernel.ROW_BLOCK * data.shape[1], dtype=np.uint8)
    with open(path, "wb") as fh:
        fh.write((",".join(trace_columns(m)) + "\n").encode())
        for i in range(0, len(data), kernel.ROW_BLOCK):
            block = data[i:i + kernel.ROW_BLOCK]
            size = kernel.format_rows(block, buf)
            if size < 0:
                raise RuntimeError(f"rows {i} to {i + len(block) - 1} of the trace do not fit "
                                   f"in the {buf.size}-byte CSV buffer")
            fh.write(buf[:size])


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
    seed, then the campaign record, labelled "campaign": true."""
    with open(path, "w") as fh:
        for idx, (outcome, seed, ok) in enumerate(
                zip(summary.outcomes, summary.seeds, summary.instance_pass, strict=True)):
            if isinstance(outcome, dict):
                fh.write(json_record({"instance": idx, "seed": seed, **outcome,
                                      "passed": ok}) + "\n")
        fh.write(json_record({"campaign": True, **summary.record()}) + "\n")


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
