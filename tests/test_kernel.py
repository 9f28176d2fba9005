"""The compiled closed-loop kernel against the float kernel it replaced
(float_kernel.py), with == on every recorded field; against the numpy
reference (reference.py), one step at a time through the function the
simulator runs, kernel.closed_loop; and against traces recorded before the
float kernel replaced the numpy step loop. The float kernel's written-out
products and its bias observer's draw order are checked against the
reference helpers. The CSV formatter, kernel.format_rows, is held to
Python's "%.17g" % value with == on over a million doubles."""

import math
import re
from dataclasses import fields, replace
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest

from ftacs.actuation import ActuatorBank, allocation_matrix
from ftacs.bounds import robust_coefficients
from ftacs.config import ModelEstimates
from ftacs.errors import NonFiniteState
from ftacs.estimation import NoiseParams, SyntheticErrorProfile
from ftacs import kernel
from ftacs.harness import RunTrace, ScenarioSignals, run_scenario, scenario_signals
from ftacs.scenario import (
    PAPER_D,
    PAPER_J,
    PAPER_J_HAT,
    ObserverSpec,
    nominal_exact,
    paper_budget,
    paper_fault_free,
    paper_faulty,
    paper_gains,
)
from float_kernel import (
    ROW_BLOCK,
    bias_observer,
    closed_loop,
    float_signals,
    kinematics_rk4,
    steps,
    synthetic_observe,
)
from float_kernel import run_scenario as float_run_scenario
from reference import (
    DesiredState,
    ObserverOutput,
    SpacecraftState,
    _qmul,
    _rotate,
    bias_observer_step,
    control_step,
    effective_torque,
    estimation_error,
    normalize,
    quat_from_axis_angle,
    rk4_step,
    sensor_sample,
    synthetic_observer,
    tracking_errors,
)

# Every RunTrace field of 5 s runs. The three full-rate runs were recorded
# with run_scenario at commit bf60fc0, whose step loop was written with numpy
# arrays; the decimated run at commit 9b0f93f, whose harness recorded every
# record_decimation-th step of the kernel's step functions.
GOLDEN = Path(__file__).parent / "data" / "golden_traces.npz"
GOLDEN_CASES = {
    "paper_faulty": lambda: paper_faulty(duration=5.0),
    "paper_fault_free_bias": lambda: paper_fault_free(
        duration=5.0, observer=ObserverSpec(kind="bias", k_o=1.0, k_b=0.1)
    ),
    "nominal_exact": lambda: nominal_exact(duration=5.0),
    "paper_faulty_decimated": lambda: paper_faulty(duration=5.0, record_decimation=10, seed=7),
}
TRACE_FIELDS = ("t", "qe", "omega_e", "s", "s_hat", "theta_e_deg", "tau_u", "qtilde_norm",
                "wtilde_norm")
TOL = 1e-12


def random_quat(rng):
    v = rng.standard_normal(3)
    return quat_from_axis_angle(v / np.linalg.norm(v), rng.uniform(0.0, np.pi))


@pytest.mark.parametrize("case", sorted(GOLDEN_CASES))
def test_golden_traces(case):
    golden = np.load(GOLDEN)
    sc = GOLDEN_CASES[case]()
    trace = run_scenario(sc)
    assert sc.seed == golden[f"{case}.seed"]
    assert trace.dt == golden[f"{case}.dt"]
    for name in TRACE_FIELDS:
        np.testing.assert_allclose(getattr(trace, name), golden[f"{case}.{name}"],
                                   rtol=0.0, atol=TOL, err_msg=f"{case}.{name}")


OBSERVER_SPECS = {
    "perfect": ObserverSpec(kind="perfect"),
    "synthetic": ObserverSpec(kind="synthetic"),
    "bias": ObserverSpec(kind="bias", k_o=1.0, k_b=0.1),
}


def preset_case(make, kind):
    """A 20 s run of a preset with the given observer. The paper presets run
    their own synthetic observer; nominal-exact's zero budget admits one of
    zero amplitude only."""
    if kind == "synthetic" and make is not nominal_exact:
        return lambda: make(duration=20.0)
    return lambda: make(duration=20.0, observer=OBSERVER_SPECS[kind])


PRESET_CASES = {f"{make.__name__}_{kind}": preset_case(make, kind)
                for make in (paper_faulty, paper_fault_free, nominal_exact)
                for kind in OBSERVER_SPECS}


@pytest.mark.parametrize("case", sorted(GOLDEN_CASES) + sorted(PRESET_CASES))
def test_compiled_kernel_equals_the_float_kernel(case):
    sc = {**GOLDEN_CASES, **PRESET_CASES}[case]()
    signals = scenario_signals(sc)
    # the compiled reference attitude equals the float kernel's
    assert np.array_equal(signals.table, float_signals(sc).table)
    compiled, oracle = run_scenario(sc, signals), float_run_scenario(sc, signals)
    for f in fields(RunTrace):
        a, b = getattr(compiled, f.name), getattr(oracle, f.name)
        assert np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b, f"{case}.{f.name}"


@pytest.mark.parametrize("decimation", [1, 3])
def test_diverging_run_names_its_step_and_time(decimation):
    # the gain conditions hold, but 20 s steps with unlimited torque diverge
    sc = paper_fault_free(dt=20.0, duration=400.0, record_decimation=decimation,
                          bank=ActuatorBank(D=PAPER_D, tau_max=math.inf))
    with pytest.raises(NonFiniteState, match=r"^non-finite state at step 7 \(t=140\.000 s\)$"):
        run_scenario(sc)


BANK = ActuatorBank(D=PAPER_D.copy(), tau_max=0.02)


def one_step(q, w, observed, step, dt, est, coeffs):
    """One step of the float kernel's advance from (q, w) with the paper
    gains, bank and inertia, step being the step's (row, alloc) and observed
    what the observer returns: the new state and the recorded row."""
    rec = np.empty((1, 17 + BANK.m))
    advance = closed_loop(paper_gains(), est, coeffs, BANK, PAPER_J, dt, lambda *_: observed)
    q, w = advance(q, w, [step], rec, 1)
    return q, w, tuple(rec[0].tolist())


def compiled_step(sc, coeffs, q, w, row, alloc):
    """One step of kernel.closed_loop from (q, w) with the scenario's gains,
    estimates, bank, inertia, dt and observer on one table row and its
    allocation matrix: the new state and the recorded row."""
    constants, pairs = kernel.constants(sc, coeffs)
    signals = ScenarioSignals(scenario=sc, constants=constants, pairs=pairs,
                              table=np.array([row]), alloc=np.array([alloc]),
                              alloc_index=np.zeros(1, dtype=np.int64))
    rec = np.empty((1, 17 + sc.bank.m))
    q, w = kernel.closed_loop(sc, signals, q, w, np.random.default_rng(5), rec, 1)
    return q, w, rec[0]


@pytest.mark.parametrize("dt", [0.01, 0.5])
def test_closed_loop_step_matches_the_reference_chain(dt):
    # control_step -> effective_torque + tau_d -> rk4_step, and the recorded
    # tracking_errors, s_hat, tau_u and estimation errors; the synthetic
    # observer's error columns carry the estimate
    rng = np.random.default_rng(7)
    gains = paper_gains()
    coeffs = robust_coefficients(paper_budget(0.08), gains.k)
    est = ModelEstimates(J_hat=PAPER_J_HAT, tau_d_hat=rng.standard_normal(3) * 1e-6)
    sc = paper_faulty(estimates=est, bank=BANK, dt=dt, duration=10 * dt)
    assert sc.observer.kind == "synthetic" and np.array_equal(sc.J, PAPER_J)
    seen = set()
    for i in range(200):
        state = SpacecraftState(q=random_quat(rng), omega=rng.standard_normal(3) * 0.02)
        desired = DesiredState(qd=random_quat(rng), omega_d=rng.standard_normal(3) * 2e-3,
                               omega_d_dot=rng.standard_normal(3) * 2e-6)
        qti = random_quat(rng)  # qtilde^-1
        obs = ObserverOutput(q_hat=normalize(np.array(_qmul(tuple(state.q), tuple(qti)))),
                             omega_hat=rng.standard_normal(3) * 0.02)
        # true health: a dead pair, one fading pair among healthy ones, or all fading
        e = rng.uniform(0.3, 1.0, 4)
        if i % 3 == 0:
            e[i % 4] = 0.0
        elif i % 3 == 1:
            e = np.where(np.arange(4) == i % 4, 0.5, 1.0)
        # odd cases estimate the health exactly, a dead pair included
        e_hat = e.copy() if i % 2 else np.clip(e + rng.uniform(-0.1, 0.1, 4), 0.2, 1.0)
        if i % 4 < 2:  # small rate error: s_hat inside the boundary layer
            _, _, ref = control_step(obs, desired, gains, est, coeffs, BANK, e_hat)
            obs.omega_hat = obs.omega_hat - ref.s_hat + rng.standard_normal(3) * 1e-3
        tau_u, _, diag = control_step(obs, desired, gains, est, coeffs, BANK, e_hat)
        tau_c, tau_d = effective_torque(BANK, e, tau_u), rng.standard_normal(3) * 3e-6
        ref = rk4_step(state, PAPER_J, lambda t, s: tau_c, lambda t: tau_d, 0.0, dt)
        err = tracking_errors(state, desired, gains.k)
        expected = [5.0, *err.qe, *err.omega_e, *err.s, *diag.s_hat,
                    np.degrees(2.0 * np.arccos(min(abs(err.qe[0]), 1.0))), *tau_u,
                    np.linalg.norm(estimation_error(obs.q_hat, state.q)[1:]),
                    np.linalg.norm(obs.omega_hat - state.omega)]
        row = [5.0, *np.concatenate((desired.qd, desired.omega_d, desired.omega_d_dot, tau_d,
                                     e, qti, obs.omega_hat - state.omega))]
        q, w, row = compiled_step(sc, coeffs, tuple(state.q.tolist()),
                                  tuple(state.omega.tolist()), row, allocation_matrix(BANK, e_hat))
        # theta_e_deg is in degrees, up to 180
        np.testing.assert_allclose(row, expected, rtol=0.0, atol=TOL)
        np.testing.assert_allclose(q, ref.q, rtol=0.0, atol=TOL)
        np.testing.assert_allclose(w, ref.omega, rtol=0.0, atol=TOL)
        raw = np.abs(diag.tau_u_raw)
        seen.add("inside" if diag.inside_boundary_layer else "outside")
        seen.add("saturated" if raw.max() > BANK.tau_max else "unsaturated")
        seen.update({"dead"} if (e == 0.0).any() else ())
        seen.update({"fading"} if ((0.0 < e) & (e < 1.0)).any() else ())
    assert seen == {"inside", "outside", "saturated", "unsaturated", "dead", "fading"}


COLUMN_CASES = {
    "paper_faulty_synthetic": lambda: paper_faulty(duration=1.0),
    "paper_fault_free_bias": lambda: paper_fault_free(
        duration=1.0, observer=ObserverSpec(kind="bias", k_o=1.0, k_b=0.1)
    ),
}


@pytest.mark.parametrize("case", sorted(COLUMN_CASES))
def test_kernel_reads_the_columns_scenario_signals_writes(case):
    # scenario_signals writes the row layout and the compiled kernel reads
    # it: the first step of the table against the reference chain fed from
    # the scenario's named signals
    sc = COLUMN_CASES[case]()
    signals = scenario_signals(sc)
    coeffs = robust_coefficients(sc.budget, sc.gains.k)
    rng = np.random.default_rng(11)
    state = SpacecraftState(q=random_quat(rng), omega=rng.standard_normal(3) * 0.02)
    q, w = tuple(state.q.tolist()), tuple(state.omega.tolist())
    spec = sc.observer
    if spec.kind == "synthetic":
        obs = synthetic_observer(state, spec, 0.0)
    else:  # the float kernel's bias observer on the draws the compiled step gets
        observe = bias_observer(sc.noise, spec.k_o, spec.k_b, sc.dt, np.random.default_rng(5))
        q_hat, w_hat = observe(q, w, [])
        obs = ObserverOutput(q_hat=np.array(q_hat), omega_hat=np.array(w_hat))
    desired = DesiredState(qd=sc.qd0, omega_d=sc.omega_d(0.0),
                           omega_d_dot=sc.omega_d.derivative(0.0))
    tau_u, _, diag = control_step(obs, desired, sc.gains, sc.estimates, coeffs, sc.bank,
                                  sc.health_estimate(0.0))
    tau_c, tau_d = effective_torque(sc.bank, sc.health(0.0), tau_u), sc.disturbance(0.5 * sc.dt)
    ref = rk4_step(state, sc.J, lambda t, s: tau_c, lambda t: tau_d, 0.0, sc.dt)
    err = tracking_errors(state, desired, sc.gains.k)
    expected = [0.0, *err.qe, *err.omega_e, *err.s, *diag.s_hat,
                np.degrees(2.0 * np.arccos(min(abs(err.qe[0]), 1.0))), *tau_u,
                np.linalg.norm(estimation_error(obs.q_hat, state.q)[1:]),
                np.linalg.norm(obs.omega_hat - state.omega)]

    q, w, row = compiled_step(sc, coeffs, q, w, signals.table[0],
                              signals.alloc[signals.alloc_index[0]])
    np.testing.assert_allclose(row, expected, rtol=0.0, atol=TOL)
    np.testing.assert_allclose(q, ref.q, rtol=0.0, atol=TOL)
    np.testing.assert_allclose(w, ref.omega, rtol=0.0, atol=TOL)


@pytest.mark.parametrize("name, value", [("constants", np.zeros(47)), ("pairs", np.zeros((3, 3)))])
def test_closed_loop_rejects_packed_constants_of_another_shape(name, value):
    # C reads 48 constants and m rows of D.T, past the end of a shorter array
    sc = paper_faulty(duration=1.0)
    signals = replace(scenario_signals(sc), **{name: value})
    rec = np.empty((sc.n_steps, 17 + sc.bank.m))
    with pytest.raises(ValueError, match=f"^{name} has shape"):
        kernel.closed_loop(sc, signals, (1.0, 0.0, 0.0, 0.0), (0.0, 0.0, 0.0),
                           np.random.default_rng(1), rec, 1)


def test_reference_attitude_at_constant_rate_matches_rk4_step():
    # a rigid body spinning about a principal axis keeps its rate, so the
    # rigid-body attitude step and the compiled kinematics step at that rate
    # coincide
    rng = np.random.default_rng(3)
    J = np.diag([8.0, 7.0, 6.0])
    zero = np.zeros(3)
    for axis in np.eye(3):
        state = SpacecraftState(q=random_quat(rng), omega=axis * 0.03)
        ref = rk4_step(state, J, lambda t, s: zero, lambda t: zero, 0.0, 0.01)
        np.testing.assert_allclose(ref.omega, state.omega, rtol=0.0, atol=TOL)
        table = np.zeros((2, 14))
        table[:, 5:8] = state.omega
        w = np.tile(state.omega, (2, 1))
        kernel.reference_attitude(state.q, table, w, w, 0.01)
        assert np.array_equal(table[0, 1:5], state.q)
        np.testing.assert_allclose(table[1, 1:5], ref.q, rtol=0.0, atol=TOL)


def test_synthetic_observer_matches_library():
    rng = np.random.default_rng(9)
    profile = SyntheticErrorProfile(amp_q=2e-3, amp_w=1e-3)
    for t in rng.uniform(0.0, 600.0, 50):
        state = SpacecraftState(q=random_quat(rng), omega=rng.standard_normal(3) * 0.02)
        ref = synthetic_observer(state, profile, t)
        qti = profile.qtilde(t) * np.array([1.0, -1.0, -1.0, -1.0])
        q_hat, w_hat = synthetic_observe(tuple(state.q), tuple(state.omega),
                                         (*qti, *profile.omega_tilde(t)))
        np.testing.assert_allclose(q_hat, ref.q_hat, rtol=0.0, atol=TOL)
        np.testing.assert_allclose(w_hat, ref.omega_hat, rtol=0.0, atol=TOL)


def test_written_out_products_equal_the_helpers_bit_for_bit():
    rng = np.random.default_rng(13)
    k = paper_gains().k
    est = ModelEstimates(J_hat=PAPER_J_HAT)
    coeffs = robust_coefficients(paper_budget(0.08), k)
    alloc = allocation_matrix(BANK, np.ones(4)).tolist()
    for _ in range(200):
        q, qd, qh, qti = (tuple(random_quat(rng).tolist()) for _ in range(4))
        w, wd, wh, wt = (tuple((rng.standard_normal(3) * 0.02).tolist()) for _ in range(4))
        assert synthetic_observe(q, w, (*qti, *wt))[0] == _qmul(q, qti)
        step = ([0.0, *qd, *wd, *wd, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0], alloc)
        _, _, row = one_step(q, w, (qh, wh), step, 0.01, est, coeffs)
        qd_inv = (qd[0], -qd[1], -qd[2], -qd[3])
        qe, qhe = _qmul(qd_inv, q), _qmul(qd_inv, qh)
        b, bh = _rotate(qe, wd), _rotate(qhe, wd)
        assert row[1:8] == (*qe, *(w[i] - b[i] for i in range(3)))
        assert row[11:14] == tuple(wh[i] - bh[i] + k * qhe[i + 1] for i in range(3))
        _, t1, t2, t3 = _qmul((qh[0], -qh[1], -qh[2], -qh[3]), q)
        assert row[-2] == math.sqrt(t1 * t1 + t2 * t2 + t3 * t3)


def assert_bias_observer_matches_library(noise, n_steps, rng_ref, rng_kernel):
    """Run bias_observer and sensor_sample + bias_observer_step on the same
    normal draws and true states; compare every step."""
    dt, k_o, k_b = 0.01, 1.0, 0.1
    observe = bias_observer(noise, k_o, k_b, dt, rng_kernel)
    state_rng = np.random.default_rng(4)
    bias, q_hat, b_hat = noise.b0.copy(), None, np.zeros(3)
    for _ in range(n_steps):
        state = SpacecraftState(q=random_quat(state_rng), omega=state_rng.standard_normal(3) * 0.02)
        sample, bias = sensor_sample(state, bias, noise, rng_ref, dt)
        if q_hat is None:
            q_hat = sample.qm.copy()
        q_hat, b_hat, ref = bias_observer_step(q_hat, b_hat, sample, k_o, k_b, dt)
        got_q, got_w = observe(tuple(state.q), tuple(state.omega), [])
        np.testing.assert_allclose(got_q, ref.q_hat, rtol=0.0, atol=TOL)
        np.testing.assert_allclose(got_w, ref.omega_hat, rtol=0.0, atol=TOL)


def test_bias_observer_matches_library_with_the_same_draws():
    noise = NoiseParams(b0=np.radians(np.array([-5.0, 15.0, -10.0]) / 3600.0))
    assert_bias_observer_matches_library(noise, 300, np.random.default_rng(21),
                                         np.random.default_rng(21))


def test_bias_observer_matches_library_across_noise_blocks():
    # 1000 steps cross three boundaries of the observer's noise blocks; a
    # large bias walk shows a walk that is not carried across a boundary
    assert ROW_BLOCK == 256
    noise = NoiseParams(sigma_u=1e-4, sigma_v=1e-4, b0=np.array([2e-3, -1e-3, 5e-4]))
    assert_bias_observer_matches_library(noise, 1000, np.random.default_rng(22),
                                         np.random.default_rng(22))


def scalar_bias_observer(noise, k_o, k_b, dt, rng):
    """The bias observer one step at a time on floats, drawing each step's
    normals when it runs: the reference for bias_observer's block path."""
    sigma_theta, sigma_u = float(noise.sigma_theta), float(noise.sigma_u)
    walk = noise.sigma_v * math.sqrt(dt)
    bias, q_hat, b_hat = noise.b0.tolist(), None, (0.0, 0.0, 0.0)

    def observe(q, w):
        nonlocal bias, q_hat, b_hat
        z, ax, ay, az = rng.standard_normal(4).tolist()
        norm = math.sqrt(ax * ax + ay * ay + az * az)
        while norm < 1e-12:
            ax, ay, az = rng.standard_normal(3).tolist()
            norm = math.sqrt(ax * ax + ay * ay + az * az)
        half = 0.5 * (sigma_theta * z)
        sh = math.sin(half)
        qt = (math.cos(half), sh * (ax / norm), sh * (ay / norm), sh * (az / norm))
        n = math.sqrt(qt[0] * qt[0] + qt[1] * qt[1] + qt[2] * qt[2] + qt[3] * qt[3])
        qm = _qmul(q, (qt[0] / n, -qt[1] / n, -qt[2] / n, -qt[3] / n))
        ux, uy, uz, vx, vy, vz = rng.standard_normal(6).tolist()
        wm = (w[0] + bias[0] + sigma_u * ux, w[1] + bias[1] + sigma_u * uy,
              w[2] + bias[2] + sigma_u * uz)
        bias = (bias[0] + walk * vx, bias[1] + walk * vy, bias[2] + walk * vz)
        if q_hat is None:
            q_hat = qm
        r0, r1, r2, r3 = _qmul((q_hat[0], -q_hat[1], -q_hat[2], -q_hat[3]), qm)
        ko, kb = (-k_o, -k_b) if r0 < 0 else (k_o, k_b)
        bx, by, bz = b_hat
        wc = ((wm[0] - bx) + ko * r1, (wm[1] - by) + ko * r2, (wm[2] - bz) + ko * r3)
        q_hat = kinematics_rk4(q_hat, wc, wc, wc, dt)
        b_hat = (bx - kb * r1 * dt, by - kb * r2 * dt, bz - kb * r3 * dt)
        return q_hat, (wm[0] - b_hat[0], wm[1] - b_hat[1], wm[2] - b_hat[2])

    return observe


def test_bias_observer_equals_the_scalar_path_bit_for_bit():
    # the block path changes where the noise is computed, not its arithmetic
    noise = NoiseParams(sigma_v=1e-5, b0=np.radians(np.array([-5.0, 15.0, -10.0]) / 3600.0))
    dt, k_o, k_b = 0.01, 1.0, 0.1
    observe = bias_observer(noise, k_o, k_b, dt, np.random.default_rng(24))
    reference = scalar_bias_observer(noise, k_o, k_b, dt, np.random.default_rng(24))
    state_rng = np.random.default_rng(6)
    for _ in range(3 * ROW_BLOCK):
        q = tuple(random_quat(state_rng).tolist())
        w = tuple((state_rng.standard_normal(3) * 0.02).tolist())
        assert observe(q, w, []) == reference(q, w)


class StreamGenerator:
    """standard_normal that hands out a fixed stream in order, as a
    numpy Generator hands out its normal draws."""

    def __init__(self, stream):
        self.stream = stream
        self.pos = 0

    def standard_normal(self, size=None):
        n = 1 if size is None else size
        if self.pos + n > len(self.stream):
            raise AssertionError("stream exhausted")
        out = self.stream[self.pos:self.pos + n].copy()
        self.pos += n
        return out[0] if size is None else out


def short_axis_stream():
    """A stream of normals with short axes (norm below 1e-12) in front of the
    axis of step 3 (two in a row), of step 255 (the last of the first noise
    block) and of step 256 (the first of the second), and the number of
    draws inserted. It is long enough for 4 whole noise blocks."""
    stream = list(np.random.default_rng(23).standard_normal(10 * 4 * ROW_BLOCK + 100))
    zero, tiny = [0.0, 0.0, 0.0], [1e-13, -2e-13, 3e-13]
    inserted = 0
    for step, short in ((3, zero + tiny), (255, tiny), (256, zero)):
        at = 10 * step + 1 + inserted
        stream[at:at] = short
        inserted += len(short)
    return np.array(stream), inserted


def test_bias_observer_redraws_short_axes_as_the_library_does():
    # Each step draws 10 normals (angle, axis, gyro noise, bias walk); both
    # observers must skip the short axes. The float kernel draws 4 whole
    # blocks.
    stream, inserted = short_axis_stream()
    noise = NoiseParams(b0=np.radians(np.array([-5.0, 15.0, -10.0]) / 3600.0))
    rng_ref, rng_kernel = StreamGenerator(stream), StreamGenerator(stream)
    assert_bias_observer_matches_library(noise, 900, rng_ref, rng_kernel)
    assert rng_ref.pos == 10 * 900 + inserted


def test_compiled_bias_observer_redraws_short_axes_as_the_float_kernel_does():
    # 900 steps of a bias-observer scenario from the same state on the same
    # stream: kernel.bias_noise takes the draws in the float kernel's order
    sc = paper_fault_free(duration=9.0, observer=ObserverSpec(kind="bias", k_o=1.0, k_b=0.1))
    signals = scenario_signals(sc)
    assert len(signals.table) == 900
    stream, inserted = short_axis_stream()
    q, w = (0.5, 0.5, -0.5, 0.5), (0.01, -0.02, 0.005)
    rng_float, rng_compiled = StreamGenerator(stream), StreamGenerator(stream)
    observe = bias_observer(sc.noise, sc.observer.k_o, sc.observer.k_b, sc.dt, rng_float)
    advance = closed_loop(sc.gains, sc.estimates, robust_coefficients(sc.budget, sc.gains.k),
                          sc.bank, sc.J, sc.dt, observe)
    expected, rec = np.empty((900, 21)), np.empty((900, 21))
    state = advance(q, w, steps(signals), expected, 1)
    assert kernel.closed_loop(sc, signals, q, w, rng_compiled, rec, 1) == state
    assert np.array_equal(rec, expected)
    assert rng_compiled.pos == rng_float.pos == 10 * 4 * ROW_BLOCK + inserted


# ---------------------------------------------------------------------------
# the CSV formatter, against Python's "%.17g" % value

def python_rows(rows: np.ndarray) -> bytes:
    """The rows as the Python loop of np.savetxt(fmt="%.17g", delimiter=",")
    writes them."""
    line = ",".join(["%.17g"] * rows.shape[1]) + "\n"
    return "".join(map(line.__mod__, map(tuple, rows.tolist()))).encode()


def format_rows(rows: np.ndarray) -> bytes:
    buf = np.empty(kernel.VALUE_BYTES * rows.size, dtype=np.uint8)
    return buf[:kernel.format_rows(rows, buf)].tobytes()


def powers_of_ten_and_neighbours() -> list[float]:
    """10^k, the double nearest 1e{k} and the largest double below it, and
    9.9999999999999999e{k} and 9.99999999999999995e{k}, each with its
    5 neighbours on either side, for k in [-25, 20]."""
    values = []
    for k in range(-25, 21):
        for x in {10.0**k, float(f"1e{k}"), float(f"9.9999999999999999e{k}"),
                  float(f"9.99999999999999995e{k}")}:
            for _ in range(5):
                x = math.nextafter(x, 0.0)
            for _ in range(11):
                values.append(x)
                x = math.nextafter(x, math.inf)
    return values


def rounding_up_to_powers_of_ten() -> list[float]:
    """The largest double below 10^k, for k in [-300, 300], where its 17
    digits round up to 10^k: 13 values, one of them on the exact integer
    path, below 1e-14."""
    values = []
    for k in range(-300, 301):
        x = float(Decimal(10) ** k)
        while Decimal(x) >= Decimal(10) ** k:
            x = math.nextafter(x, 0.0)
        if re.fullmatch(r"(0\.0*)?10*(e[-+]\d+)?", "%.17g" % x):
            values.append(x)
    return values


def exact_ties(rng: np.random.Generator) -> list[float]:
    """Doubles m * 2^-s, m odd, whose exact decimal m * 5^s has 18 digits,
    the last a 5: each lies halfway between two 17-digit decimals. For each
    s, the 200 smallest and largest such m and about 3,000 drawn between them."""
    ties = []
    for s in range(2, 26):
        lo, hi = -(-10**17 // 5**s), min((10**18 - 1) // 5**s, 2**53 - 1)
        ms = {*range(lo, lo + 400), *range(hi - 400, hi + 1),
              *(rng.integers(lo, hi + 1, 3000) | 1).tolist()}
        ties += [m * 2.0**-s for m in ms if m % 2 and lo <= m <= hi]
    return ties


def test_format_rows_writes_python_percent_17g_byte_for_byte():
    rng = np.random.default_rng(34)
    bits = rng.integers(0, 2**64, 650_000, dtype=np.uint64)  # every binary exponent
    subnormal = (rng.integers(1, 2**52, 50_000, dtype=np.uint64)
                 | rng.integers(0, 2, 50_000, dtype=np.uint64) << np.uint64(63))
    # the exponents of a trace, [1e-24, 1e18]: the exact integer path
    moderate = (rng.integers(1023 - 80, 1023 + 60, 300_000).astype(np.uint64) << np.uint64(52)
                | rng.integers(0, 2**52, 300_000, dtype=np.uint64))
    special = np.array([0x0, 0x8000000000000000,  # +-0
                        0x7FF0000000000000, 0xFFF0000000000000,  # +-inf
                        0x7FF8000000000000, 0xFFF8000000000000,  # NaN of either sign
                        0x7FF0000000000001, 0xFFFFFFFFFFFFFFFF], dtype=np.uint64)
    ties = exact_ties(rng)
    near = powers_of_ten_and_neighbours()
    rounding_up = rounding_up_to_powers_of_ten()
    values = np.concatenate([bits.view(np.float64), subnormal.view(np.float64),
                             moderate.view(np.float64), special.view(np.float64),
                             ties, near, rounding_up, -np.array(near + rounding_up)])
    assert len(values) >= 10**6 and len(ties) > 50_000
    assert any(1e-22 < x < 1e17 for x in rounding_up)  # on the exact integer path
    rows = values[: len(values) // 8 * 8].reshape(-1, 8)
    got, expected = format_rows(rows), python_rows(rows)
    if got != expected:
        wrong = [(v, text) for v, text in zip(rows.ravel().tolist(), got.decode().replace("\n", ",")
                                              .split(",")) if text != "%.17g" % v]
        raise AssertionError(f"{len(wrong)} values differ from Python's, first {wrong[:5]}")
    tail = values[len(rows.ravel()):].reshape(-1, 1)
    assert format_rows(tail) == python_rows(tail)


def test_format_rows_returns_minus_1_when_cap_is_too_small_and_writes_no_further():
    rows = np.array([[1.5, -2.0], [-1.2345678901234567e-300, math.nan]])
    text = python_rows(rows)
    assert len(text) == 7 + 29 and format_rows(rows) == text
    for cap in (0, 3, 6, 7, 8, len(text) - 1, len(text)):
        buf = np.full(len(text) + 8, 0xAA, dtype=np.uint8)
        written = kernel.library().ftacs_format_rows(rows, *rows.shape, buf, cap)
        assert written == (len(text) if cap == len(text) else -1)
        assert (buf[cap:] == 0xAA).all()
    assert buf[:written].tobytes() == text
    with pytest.raises(ValueError, match="fewer than the 100"):
        kernel.format_rows(rows, np.empty(99, dtype=np.uint8))
