"""The closed loop of an instance, run by the compiled kernel in kernel.c.

ClosedLoop binds the kernel to one scenario and the arrays that
harness.closed_loop precomputes for it: it checks their shapes once and
passes their addresses to every call, which runs every step of an instance:
observer, control law, per-pair allocation and saturation, faulty actuators,
plant RK4, the recorded row and the non-finite check. The kernel forms the
instance record, the tail maxima and each pair's command peak, from the
recorded rows as it goes, and writes the rows into a float table, whose
columns harness.RunTrace views, only when it is given one; a campaign's
instances have none.
step_table writes the step table of a ClosedLoop in one C call: the
scenario's signals on the step grid, each value formed by the expression of
the numpy method that defines it (SignalSpec, VectorSignal, HealthProfile,
SyntheticErrorProfile), and the reference-attitude RK4 through them.
format_rows writes rows of floats as the text of harness.export_trace_csv.

The C source writes each vector and quaternion operation once, as a small
inlined helper in the operand order and association of the float kernel it
replaced, so its results are bit for bit those of the same arithmetic on
Python floats; tests/float_kernel.py keeps that float kernel as the oracle,
and tests/test_kernel.py holds the two equal with == and one compiled step
to the numpy reference chain of tests/reference.py within 1e-12.

The library is built with the platform's C compiler (COMPILE) the first time
a simulation needs it, into __pycache__/ beside kernel.c, under a name keyed
on the source and the command, and loaded through ctypes. Importing this
module builds and loads nothing. A missing compiler or an unwritable
directory raises OSError naming the command or the directory.

The bias observer's sensor noise does not depend on the state: bias_noise
shapes the noise of every step in numpy in one pass, from normals consumed in
the order the reference's sensor_sample draws them, an axis redraw included,
and the kernel reads 10 floats per step. ROW_BLOCK sizes the buffer through
which harness.export_trace_csv formats the rows of a CSV.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import math
import os
import shlex
import subprocess
import tempfile
from pathlib import Path

import numpy as np

from .errors import NonFiniteState
from .estimation import AXIS_Q, AXIS_W, NoiseParams

# Rows of an exported CSV formatted at a time, through one buffer
ROW_BLOCK = 256
# the most bytes format_rows writes per value: "-1.2345678901234567e-308"
# and its separator, kernel.c's VALUE_BYTES
VALUE_BYTES = 25

C_SOURCE = Path(__file__).with_name("kernel.c")
# -ffp-contract=off and no -ffast-math or -march keep every operation a
# separately rounded IEEE double operation, as on Python floats
COMPILE = ("cc", "-O2", "-fPIC", "-shared", "-ffp-contract=off")
# the observer numbers of kernel.c
OBSERVERS = {"perfect": 0, "synthetic": 1, "bias": 2}
# the signal kind numbers of kernel.c, the first column of a spec row
SIGNALS = {"const": 0, "sin": 1, "cos": 2, "abs_sin": 3}


def square_norm(q) -> float:
    """The sum of squares of a quaternion, in the order of every renormalization."""
    q0, q1, q2, q3 = q
    return q0 * q0 + q1 * q1 + q2 * q2 + q3 * q3


def unit_quaternion(q) -> tuple:
    """q rescaled to unit norm, as a tuple of floats."""
    n = math.sqrt(square_norm(q))
    return (q[0] / n, q[1] / n, q[2] / n, q[3] / n)


def library_path(source: Path) -> Path:
    """Where the library built from source by COMPILE lives: __pycache__/
    beside source, named after the sha256 of the source and the command."""
    key = hashlib.sha256(source.read_bytes() + b"\0" + shlex.join(COMPILE).encode())
    return source.parent / "__pycache__" / f"{source.stem}-{key.hexdigest()[:16]}.so"


def build(source: Path) -> Path:
    """The library built from source, compiled unless it is there already.
    The compiler writes a temporary file in the same directory, which
    os.replace moves into place, so concurrent first builds are safe."""
    path = library_path(source)
    if path.exists():
        return path
    try:
        path.parent.mkdir(exist_ok=True)
        fd, tmp = tempfile.mkstemp(suffix=".so", prefix=f".{path.stem}-", dir=path.parent)
        os.close(fd)
    except OSError as exc:
        raise OSError(f"cannot write the compiled kernel into {path.parent}: "
                      f"{exc.strerror or exc}") from None
    command = [*COMPILE, "-o", tmp, str(source), "-lm"]
    try:
        try:
            proc = subprocess.run(command, capture_output=True, text=True)
        except OSError as exc:
            raise OSError(f"cannot run the C compiler: {shlex.join(command)}: "
                          f"{exc.strerror or exc}") from None
        if proc.returncode:
            raise OSError(f"the C compiler failed (exit {proc.returncode}): "
                          f"{shlex.join(command)}\n{proc.stderr.strip()}")
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return path


_double = np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS")
_bytes = np.ctypeslib.ndpointer(np.uint8, flags="C_CONTIGUOUS,WRITEABLE")
_i64 = ctypes.c_int64
_ptr = ctypes.c_void_p


@functools.cache
def library() -> ctypes.CDLL:
    """kernel.c's library, built on first use and loaded once per process."""
    lib = ctypes.CDLL(str(build(C_SOURCE)))
    lib.ftacs_step_table.argtypes = (_ptr, _i64, _i64, _ptr, _ptr, ctypes.c_double, _i64, _ptr)
    lib.ftacs_step_table.restype = None
    # addresses checked and taken once per ClosedLoop
    lib.ftacs_closed_loop.argtypes = (_ptr, _ptr, _i64, _ptr, _i64, _i64, _ptr, _ptr, _i64, _i64,
                                      _i64, _ptr, _ptr, _ptr, _ptr)
    lib.ftacs_closed_loop.restype = _i64
    lib.ftacs_format_rows.argtypes = (_double, _i64, _i64, _bytes, _i64)
    lib.ftacs_format_rows.restype = _i64
    return lib


def _require(name: str, array: np.ndarray, shape: tuple, dtype=np.float64):
    if array.shape != shape:
        raise ValueError(f"{name} has shape {array.shape}, expected {shape}")
    if array.dtype != dtype or not array.flags.c_contiguous:
        raise ValueError(f"{name} must be a C-contiguous {np.dtype(dtype)} array")


# the directions of the synthetic observer's errors, as step_table passes them
AXES = np.concatenate((AXIS_Q, AXIS_W))


def step_table(scenario) -> np.ndarray:
    """The (n_steps, 14 + m) step table of a ClosedLoop, with 7 more
    columns for a synthetic observer, written by one C call: for step i
    at t = dt * i, t, qd (4), omega_d(t), omega_d.derivative(t),
    disturbance(t + 0.5 * dt) and health(t), then the synthetic observer's
    qtilde(t) * (1, -1, -1, -1) and omega_tilde(t). qd is qd0 at the first
    step, then RK4 of the kinematics qdot = 0.5*[-qv.w; q0*w + qv x w]
    through omega_d at the step start, its midpoint (stages 2 and 3) and its
    end, renormalized after each step.

    Each signal crosses as the row (SIGNALS[kind], offset, scale, freq,
    phase) of its SignalSpec; a synthetic observer adds the rows of its
    sines, (sin, 0, amp, freq, phase) for qtilde and for omega_tilde, whose
    offsets the kernel does not read."""
    w, d, obs = scenario.omega_d, scenario.disturbance, scenario.observer
    rows = [(SIGNALS[s.kind], s.offset, s.scale, s.freq, s.phase)
            for s in (w.x, w.y, w.z, d.x, d.y, d.z, *scenario.health.profiles)]
    synthetic = obs.kind == "synthetic"
    if synthetic:
        rows += [(SIGNALS["sin"], 0.0, obs.amp_q, obs.freq_q, obs.phase_q),
                 (SIGNALS["sin"], 0.0, obs.amp_w, obs.freq_w, obs.phase_w)]
    specs = np.array(rows, dtype=np.float64)
    qd0 = np.ascontiguousarray(scenario.qd0, dtype=np.float64)
    n, m = scenario.n_steps, scenario.bank.m
    table = np.empty((n, 14 + m + 7 * synthetic))
    library().ftacs_step_table(specs.ctypes.data, m, synthetic, AXES.ctypes.data,
                               qd0.ctypes.data, scenario.dt, n, table.ctypes.data)
    return table


def format_rows(rows: np.ndarray, buf: np.ndarray) -> int:
    """Write the (n, cols) float rows into buf, a uint8 array of at least
    VALUE_BYTES bytes per value, as np.savetxt(fmt="%.17g", delimiter=",")
    writes them, and return the number of bytes. Each value is written as
    Python's "%.17g" % value writes it, NaN as nan whatever its sign bit."""
    if rows.ndim != 2:
        raise ValueError(f"rows has shape {rows.shape}, expected (n, cols)")
    if buf.size < VALUE_BYTES * rows.size:
        raise ValueError(f"buf holds {buf.size} bytes, fewer than the {VALUE_BYTES * rows.size} "
                         f"that {rows.size} values may take")
    return library().ftacs_format_rows(rows, *rows.shape, buf, buf.size)


def bias_noise(noise: NoiseParams, dt: float, rng: np.random.Generator, n: int) -> np.ndarray:
    """The bias observer's sensor noise of n steps, (n, 10): qtilde_m^-1 (4),
    the gyro bias (3) and sigma_u * eta_u (3) of each step, as the
    reference's sensor_sample forms them (tests/reference.py).

    Each step takes 10 normal draws from rng, in the order sensor_sample
    draws them: the angle, the axis, the gyro noise, the bias walk. An axis
    whose norm is below 1e-12 is dropped and the draws after it move up,
    with 3 new draws at the end, so the next 3 draws are the axis, as
    random_unit_vector redraws it. The bias walk is summed in sequence."""
    walk = noise.sigma_v * math.sqrt(dt)
    draws = rng.standard_normal(10 * n)
    while True:
        x, y, z = draws.reshape(n, 10)[:, 1:4].T
        norm = np.sqrt(x * x + y * y + z * z)
        short = np.flatnonzero(norm < 1e-12)
        if not short.size:
            break
        i = 10 * short[0] + 1
        draws = np.concatenate((draws[:i], draws[i + 3:], rng.standard_normal(3)))
    draws = draws.reshape(n, 10)
    half = 0.5 * (noise.sigma_theta * draws[:, 0])
    sh = np.sin(half)
    c0, c1, c2, c3 = np.cos(half), sh * (x / norm), sh * (y / norm), sh * (z / norm)
    m = np.sqrt(c0 * c0 + c1 * c1 + c2 * c2 + c3 * c3)
    walked = np.cumsum(np.concatenate((noise.b0.reshape(1, 3), walk * draws[:, 7:10])), axis=0)
    return np.column_stack((c0 / m, -c1 / m, -c2 / m, -c3 / m, walked[:-1],
                            noise.sigma_u * draws[:, 4:7]))


# the length of par, whose layout constants() defines beside kernel.c's P_* offsets
N_CONSTANTS = 48


def constants(scenario, coeffs) -> tuple[np.ndarray, np.ndarray]:
    """What ClosedLoop passes to the kernel that does not depend on the
    instance: par, the scenario's constants at kernel.c's P_* offsets (k, K,
    J_hat, tau_d_hat, the robust coefficients a0 and a1 of coeffs, gamma,
    epsilon, tau_max, J, inv(J), dt, and a bias observer's k_o and k_b, 0
    for another observer), and pairs, the bank's (m, 3) rows of D.T."""
    gains, est, spec = scenario.gains, scenario.estimates, scenario.observer
    ko, kb = (spec.k_o, spec.k_b) if spec.kind == "bias" else (0.0, 0.0)
    par = np.array([gains.k, *gains.K.ravel(), *est.J_hat.ravel(), *est.tau_d_hat,
                    coeffs.a0, coeffs.a1, gains.gamma, gains.epsilon, scenario.bank.tau_max,
                    *scenario.J.ravel(), *np.linalg.inv(scenario.J).ravel(), scenario.dt,
                    ko, kb], dtype=np.float64)
    return par, np.ascontiguousarray(scenario.bank.D.T, dtype=np.float64)


class ClosedLoop:
    """The closed loop of the instances of scenario, on its packed constants
    and bank rows (constants()), its step table (step_table), the (k, m, 3)
    allocation matrices alloc of its distinct health-estimate rows and
    alloc_index, the (n,) int64 index into alloc of each row of table.

    The shapes, dtypes and layout of the arrays are checked here, once, and
    the kernel's arguments are bound to their addresses; the object keeps
    the arrays alive. Each call is one C call from the state (q, w), over
    the rows of table. A step observes the state, applies the reference's
    control_step (tests/reference.py) to the estimates, realizes
    D*E*tau_u + tau_d and takes RK4 of the rigid body, q renormalized once.
    A bias observer draws its sensor noise from rng (bias_noise) before the
    first step.

    Every record_every-th step, from the first, forms the recorded row (t,
    qe, omega_e, s, s_hat, theta_e_deg, tau_u, |qtilde_v|, |omega_tilde|) of
    17 + m floats, written into rec, from its top, when rec is given.
    record_every is the scenario's record_decimation clamped to the rows of
    table, so that it crosses into C as a 64-bit integer: a larger one
    records the same one row. The instance record is formed from the same
    rows, rec or not, over the scenario's tail_fraction of them (__call__)."""

    def __init__(self, scenario, constants: np.ndarray, pairs: np.ndarray, table: np.ndarray,
                 alloc: np.ndarray, alloc_index: np.ndarray):
        spec = scenario.observer
        n, m = len(table), scenario.bank.m
        if not n:  # the tail has a row
            raise ValueError("table must have at least one row")
        _require("constants", constants, (N_CONSTANTS,))
        _require("pairs", pairs, (m, 3))
        _require("table", table, (n, 14 + m + (7 if spec.kind == "synthetic" else 0)))
        _require("alloc_index", alloc_index, (n,), np.int64)
        _require("alloc", alloc, (len(alloc), m, 3))
        if not 0 <= alloc_index.min() <= alloc_index.max() < len(alloc):
            raise ValueError(f"alloc_index must index the {len(alloc)} allocation matrices")
        self.scenario = scenario
        # the arrays whose addresses _bound holds, alive as long as the loop is
        self.constants, self.pairs, self.table = constants, pairs, table
        self.alloc, self.alloc_index = alloc, alloc_index
        self.record_every = min(scenario.record_decimation, n)
        self.rec_shape = (-(-n // self.record_every), 17 + m)
        # Python's round, half to even, is the one rounding of the tail window
        tail_start = self.rec_shape[0] - max(1, round(scenario.tail_fraction * self.rec_shape[0]))
        self._bound = (constants.ctypes.data, pairs.ctypes.data, m, table.ctypes.data,
                       table.shape[1], n, alloc.ctypes.data, alloc_index.ctypes.data,
                       OBSERVERS[spec.kind], self.record_every, tail_start)
        self._stats = ctypes.c_double * (6 + m)
        self._call = library().ftacs_closed_loop

    def __call__(self, q: tuple, w: tuple, rng: np.random.Generator,
                 rec: np.ndarray | None = None) -> tuple[tuple, tuple, list]:
        """Run the steps from the state (q, w) and return the final state
        and stats, the instance record as floats: the maxima of
        theta_e_deg, |omega_e|, |qe_v|, |s|, |qtilde_v| and |omega_tilde|
        over the final max(1, round(tail_fraction * rows)) of the recorded
        rows, then each pair's max |tau_u,j| over all of them. A non-finite
        state raises NonFiniteState naming the step."""
        if rec is not None:
            _require("rec", rec, self.rec_shape)
            if not rec.flags.writeable:
                raise ValueError("rec must be writeable")
        noise = address = None
        sc = self.scenario
        if sc.observer.kind == "bias":  # noise is held here until the call returns
            noise = bias_noise(sc.noise, sc.dt, rng, len(self.table))
            address = noise.ctypes.data
        state, stats = (ctypes.c_double * 7)(*q, *w), self._stats()
        step = self._call(*self._bound, address, state, None if rec is None else rec.ctypes.data,
                          stats)
        if step >= 0:
            raise NonFiniteState(f"non-finite state at step {step} "
                                 f"(t={self.table[step, 0]:.3f} s)")
        return tuple(state[:4]), tuple(state[4:]), stats[:]
