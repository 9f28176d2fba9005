"""The three benchmark workloads.

Each workload builds its inputs from the run seed (setup), turns a unit index
into the inputs of one unit (prepare, untimed), runs the unit (body, the only
timed part), and checks the unit's outputs (check, untimed). Every unit gets
inputs drawn from its own seed, in new objects: a new campaign scenario, a new
gain grid with new budgets, or a new --seed for `ftacs simulate`. The one
input that repeats is the simulate scenario's YAML file, which every unit
loads again, as each `ftacs simulate` call does.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import ftacs.bounds as bounds
import ftacs.cli as cli
import ftacs.controller as controller
import ftacs.harness as harness
from ftacs.config import ControllerGains
from ftacs.errors import GainConditionViolated, NotContractive
from ftacs.scenario import (
    ObserverSpec,
    paper_budget,
    paper_fault_free,
    paper_faulty,
    paper_gains,
    save_scenario,
)

HERE = Path(__file__).resolve().parent

# Published predictions (PAPER.md): iterations, theta bound (deg), omega bound (deg/s).
PUBLISHED = {0.0: (10, 0.0382, 0.0076), 0.08: (17, 0.0878, 0.0176)}


# Fixed Python and small-array numpy work of the same kind as the closed
# loop's, calling nothing in ftacs. Timed next to every unit, it measures how
# fast the machine runs at that moment; unit times are reported in multiples
# of it as well as in seconds.
_REF_MATRIX = np.array([[8.0, 0.15, -0.27], [0.15, 6.75, -0.1], [-0.27, -0.1, 6.25]])
REF_ITERATIONS = 4000


def reference_kernel() -> float:
    v = np.array([1.0, 2.0, 3.0])
    acc = 0.0
    for _ in range(REF_ITERATIONS):
        w = _REF_MATRIX @ v
        n = math.sqrt(w[0] * w[0] + w[1] * w[1] + w[2] * w[2])
        acc += n
        v = np.array([w[1], w[2], w[0]]) / n
    return acc


def unit_seed(seed: int, r: int) -> int:
    """Seed of unit r of a run, derived from the run seed."""
    return int(np.random.SeedSequence([seed, r]).generate_state(1)[0])


def digest(obj) -> str:
    return hashlib.sha256(obj if isinstance(obj, bytes) else repr(obj).encode()).hexdigest()


def matches_published(trace, rho_E: float) -> bool:
    iterations, theta_deg, omega_deg = PUBLISHED[rho_E]
    return (trace.total_iterations == iterations
            and round(math.degrees(trace.theta_bound), 4) == theta_deg
            and round(math.degrees(trace.omega_bound), 4) == omega_deg)


@dataclass
class Check:
    """Outcome of checking one unit."""

    attempted: int
    failed: int
    digest: str
    notes: list[str] = field(default_factory=list)
    op_times: list[float] | None = None  # seconds per op, where ops are timed one by one
    export_bytes: int = 0
    outcomes: dict[str, int] = field(default_factory=dict)  # valid outcomes by kind


class CampaignFaulty:
    """harness.verify on paper-faulty: predict, run_campaign, envelope comparison."""

    name = "campaign-faulty"
    op = "instance-step"
    HORIZON_S = 3.0
    DECIMATION = 10
    N_INSTANCES = 10
    # Tail maxima of the campaign at this scenario seed are recorded in
    # reference.json; the warm-up unit runs it and compares.
    REFERENCE_SEED = 20190430
    REFERENCE_RTOL = 1e-10

    def setup(self, seed: int, out_dir: Path):
        self.seed = seed
        self.first = self._scenario(self.REFERENCE_SEED)

    def _scenario(self, seed: int):
        return paper_faulty(seed=seed, duration=self.HORIZON_S,
                            record_decimation=self.DECIMATION)

    def prepare(self, r: int):
        return self._scenario(unit_seed(self.seed, r))

    def body(self, scenario):
        return harness.verify(scenario, self.N_INSTANCES, strict=False)

    def attempts(self, scenario) -> int:
        return self.N_INSTANCES

    def steps(self, scenario) -> int:
        return self.N_INSTANCES * scenario.n_steps

    ops = steps

    def warm_up(self) -> tuple[dict[str, bool], Check]:
        trace = bounds.predict(paper_budget(0.08), paper_gains())
        self.theta_bound_deg = math.degrees(trace.theta_bound)
        self.omega_bound = trace.omega_bound
        report = self.body(self.first)
        ref = json.loads((HERE / "reference.json").read_text())[self.name]
        checks = {
            "published_bounds_17_iterations": matches_published(trace, 0.08),
            "reference_tail_maxima": all(
                math.isclose(report[key], ref[key], rel_tol=self.REFERENCE_RTOL, abs_tol=0.0)
                for key in ("theta_tail_max_deg", "omega_tail_max_rad_s", "qe_tail_max")),
        }
        return checks, self.check(self.first, report)

    def check(self, scenario, report) -> Check:
        # Problems with the campaign as a whole fail all its instances.
        notes = []
        tails = [report[k] for k in ("theta_tail_max_deg", "omega_tail_max_rad_s", "qe_tail_max")]
        if not all(math.isfinite(v) and v >= 0.0 for v in tails):
            notes.append(f"tail maxima not finite: {tails}")
        if (report["theta_bound_deg"], report["omega_bound_rad_s"]) != (
                self.theta_bound_deg, self.omega_bound):
            notes.append("predicted bounds differ from predict() on the same budget")
        if report["n_instances"] != self.N_INSTANCES:
            notes.append(f"ran {report['n_instances']} instances")
        # "passed" is not checked: a shortened horizon neither passes nor
        # fails the 600 s envelope.
        failed = self.N_INSTANCES if notes else len(report["failures"])
        notes += [f"instance failure: {f}" for f in report["failures"]]
        return Check(self.N_INSTANCES, failed, digest(json.dumps(report, sort_keys=True)), notes)


EXPECTED_COLUMNS = ("t,qe0,qe1,qe2,qe3,wex,wey,wez,theta_e_deg,snorm,shatnorm,"
                    "{tau},qtilde_norm,wtilde_norm")


class SimulateBias:
    """`ftacs simulate` on one instance with the bias observer and noisy sensors."""

    name = "simulate-bias"
    op = "instance-step"
    HORIZON_S = 10.0

    def setup(self, seed: int, out_dir: Path):
        self.seed = seed
        self.out_dir = out_dir
        self.scenario = paper_fault_free(
            observer=ObserverSpec(kind="bias", k_o=1.0, k_b=0.1),
            duration=self.HORIZON_S, seed=seed)
        # Loose bounds on the observer's tail errors. The attitude error stays
        # within a few sensor-noise angles. The rate error is the bias-estimate
        # error plus gyro noise; while the bias estimate converges it cannot
        # exceed the initial bias, so a diverging estimator fails this bound.
        noise = self.scenario.noise
        self.qtilde_max = 6.0 * noise.sigma_theta
        self.wtilde_max = float(np.linalg.norm(noise.b0)) + 10.0 * noise.sigma_u
        self.yaml = out_dir / "simulate-bias.yaml"
        save_scenario(self.scenario, self.yaml)

    def open(self):
        """Keep the trace cli.main simulates, to compare the CSV against it."""
        original = cli.run_scenario
        self.last_trace = None

        @functools.wraps(original)
        def keep(*args, **kwargs):
            self.last_trace = original(*args, **kwargs)
            return self.last_trace

        self._original = original
        cli.run_scenario = keep

    def close(self):
        cli.run_scenario = self._original

    def prepare(self, r: int):
        return ["simulate", "--scenario", str(self.yaml), "--seed", str(unit_seed(self.seed, r)),
                "--out", str(self.out_dir)]

    def body(self, argv):
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def attempts(self, argv) -> int:
        return 1

    def steps(self, argv) -> int:
        return self.scenario.n_steps

    ops = steps

    def warm_up(self) -> tuple[dict[str, bool], Check]:
        argv = self.prepare(0)
        return {}, self.check(argv, self.body(argv))

    def check(self, argv, rc) -> Check:
        self.last_trace, trace = None, self.last_trace
        notes = []
        seed = argv[argv.index("--seed") + 1]
        path = self.out_dir / f"{self.scenario.name}-seed{seed}.csv"
        if rc != 0 or trace is None or not path.exists():
            return Check(1, 1, "", [f"simulate exited {rc}"])
        data = path.read_bytes()
        path.unlink()
        m = trace.tau_u.shape[1]
        header = data.split(b"\n", 1)[0].decode()
        columns = EXPECTED_COLUMNS.format(tau=",".join(f"tau_u{i + 1}" for i in range(m)))
        if header != columns:
            notes.append(f"CSV header {header!r}")
        table = np.loadtxt(io.BytesIO(data), delimiter=",", skiprows=1, ndmin=2)
        expected = np.column_stack([
            trace.t, trace.qe, trace.omega_e, trace.theta_e_deg,
            np.linalg.norm(trace.s, axis=1), np.linalg.norm(trace.s_hat, axis=1),
            trace.tau_u, trace.qtilde_norm, trace.wtilde_norm])
        if table.shape != (self.scenario.n_steps, 13 + m):
            notes.append(f"CSV shape {table.shape}")
        elif not np.array_equal(table, expected):
            notes.append("CSV does not read back equal to the trace")
        tail = slice(len(trace.t) - max(1, round(self.scenario.tail_fraction * len(trace.t))), None)
        for label, values, bound in (("qtilde", trace.qtilde_norm, self.qtilde_max),
                                     ("wtilde", trace.wtilde_norm, self.wtilde_max)):
            if not np.all(np.isfinite(values)) or values[tail].max() >= bound:
                notes.append(f"{label} tail max {values[tail].max():.3g} not below {bound:g}")
        return Check(1, int(bool(notes)), digest(data), notes, export_bytes=len(data))


@dataclass
class Grid:
    """Inputs of one sweep pass: gain sets, budgets, and the sampled subset
    that is compared with bounds.gain_sweep."""

    gains: list[ControllerGains]
    budgets: tuple
    subset: np.ndarray


class GainSweep:
    """bounds.predict and controller.check_gain_conditions over a random gain grid."""

    name = "gain-sweep"
    op = "gain point"
    GAINS_PER_PASS = 1000
    SUBSET = 16
    OUTCOMES = ("converged", "GainConditionViolated", "NotContractive")

    def setup(self, seed: int, out_dir: Path):
        self.seed = seed
        self.first = self.prepare(0)

    def prepare(self, r: int) -> Grid:
        """A new grid and new budget objects for every pass."""
        rng = np.random.default_rng(unit_seed(self.seed, r))
        base = paper_gains()
        n = self.GAINS_PER_PASS
        # Log-uniform factors around the paper gains for k, K11, K22, K33,
        # epsilon and gamma, drawn as a Latin hypercube so that every pass
        # has nearly the same mix of converging and failing points.
        spread = np.array([1.0, 1.5, 1.5, 1.5, 1.0, 1.0])
        centre = np.array([base.k, *np.diag(base.K), base.epsilon, base.gamma])
        strata = np.column_stack([rng.permutation(n) for _ in spread])
        u = (strata + rng.uniform(size=(n, 6))) / n
        params = centre * 2.0 ** (spread * (2.0 * u - 1.0))
        gains = [ControllerGains(k=p[0], K=np.diag(p[1:4]), epsilon=p[4], gamma=p[5])
                 for p in params]
        return Grid(gains, (paper_budget(0.0), paper_budget(0.08)),
                    rng.choice(n, size=self.SUBSET, replace=False))

    @staticmethod
    def point(gains, budget) -> tuple:
        try:
            report = controller.check_gain_conditions(
                gains, bounds.robust_coefficients(budget, gains.k), budget)
            try:
                trace = bounds.predict(budget, gains)
            except (GainConditionViolated, NotContractive) as exc:
                return (report.k_condition, type(exc).__name__, 0, math.inf, math.inf, math.inf)
            return (report.k_condition, "", trace.total_iterations, trace.q_final,
                    trace.omega_bound, trace.theta_bound)
        except Exception as exc:  # an unexpected error fails this point only
            return (None, f"error: {exc!r}", 0, math.nan, math.nan, math.nan)

    def body(self, grid: Grid):
        clock = time.perf_counter
        rows, times = [], []
        for gains in grid.gains:
            for budget in grid.budgets:
                t0 = clock()
                rows.append(self.point(gains, budget))
                times.append(clock() - t0)
        return rows, times

    def attempts(self, grid: Grid) -> int:
        return len(grid.gains) * len(grid.budgets)

    def steps(self, grid: Grid) -> int:
        return 0

    ops = attempts

    def warm_up(self) -> tuple[dict[str, bool], Check]:
        checks = {f"published_bounds_rho_E_{rho_E}": matches_published(
            bounds.predict(paper_budget(rho_E), paper_gains()), rho_E) for rho_E in PUBLISHED}
        return checks, self.check(self.first, self.body(self.first))

    def _differs_from_gain_sweep(self, grid: Grid, rows) -> set[int]:
        """Indices of the subset's rows that differ from bounds.gain_sweep."""
        nb = len(grid.budgets)
        subset = [grid.gains[i] for i in grid.subset]
        differ = set()
        for b, budget in enumerate(grid.budgets):
            swept = {(r["k"], r["epsilon"], r["gamma"], r["lambda_min_K"]): r
                     for r in bounds.gain_sweep(budget, subset)}
            for i, gains in zip(grid.subset, subset):
                row = swept[(gains.k, gains.epsilon, gains.gamma, gains.lambda_min_K)]
                _, reason, iterations, q, omega, theta = rows[i * nb + b]
                if (row["reason"], row["iterations"], row["q_bound"], row["omega_bound"],
                        row["theta_bound"]) != (reason, iterations, q, omega, theta):
                    differ.add(int(i) * nb + b)
        return differ

    def check(self, grid: Grid, out) -> Check:
        rows, times = out
        differ = self._differs_from_gain_sweep(grid, rows)
        notes = []
        failed = 0
        outcomes = dict.fromkeys(self.OUTCOMES, 0)
        for i, row in enumerate(rows):
            k_condition, reason = row[0], row[1]
            # GainConditionViolated and NotContractive are valid outcomes;
            # kappa <= 0 must coincide with the failed lambda_min(K) condition.
            bad = (reason.startswith("error")
                   or (reason == "GainConditionViolated") == bool(k_condition)
                   or i in differ)
            if bad:
                failed += 1
                if len(notes) < 5:
                    notes.append(f"point {i}: {row}")
            else:
                outcomes[reason or "converged"] += 1
        return Check(len(rows), failed, digest(rows), notes, op_times=times, outcomes=outcomes)


WORKLOADS = {w.name: w for w in (CampaignFaulty, SimulateBias, GainSweep)}
