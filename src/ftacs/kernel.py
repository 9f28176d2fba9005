"""The closed loop of an instance, run by the compiled kernel in kernel.c.

closed_loop runs every step of an instance in one call: observer, control
law, per-pair allocation and saturation, faulty actuators, plant RK4, the
recorded row and the non-finite check. It reads the precomputed
harness.ScenarioSignals table and packed constants in place and writes each
recorded sample as a row of one preallocated float table, whose columns
harness.RunTrace views.
reference_attitude runs the reference-attitude RK4 of scenario_signals.
format_rows writes rows of floats as the text of harness.export_trace_csv.

The C source keeps the operation order of the float kernel it replaced, so
its results are bit for bit those of the same arithmetic on Python floats;
tests/float_kernel.py keeps that float kernel as the oracle, and
tests/test_kernel.py holds the two equal with == and one compiled step to the
numpy reference chain of tests/reference.py within 1e-12.

The library is built with the platform's C compiler (COMPILE) the first time
a simulation needs it, into __pycache__/ beside kernel.c, under a name keyed
on the source and the command, and loaded through ctypes. Importing this
module builds and loads nothing. A missing compiler or an unwritable
directory raises OSError naming the command or the directory.

The bias observer's sensor noise does not depend on the state: bias_noise
shapes it in numpy per block of ROW_BLOCK steps, from normals consumed in the
order the reference's sensor_sample draws them, an axis redraw included, and
the kernel reads 10 floats per step.
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
from .estimation import NoiseParams

# Steps handled at a time as one numpy block: the bias observer's sensor
# noise, and the rows of an exported CSV.
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
_out = np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS,WRITEABLE")
_int64 = np.ctypeslib.ndpointer(np.int64, flags="C_CONTIGUOUS")
_bytes = np.ctypeslib.ndpointer(np.uint8, flags="C_CONTIGUOUS,WRITEABLE")
_i64 = ctypes.c_int64


@functools.cache
def library() -> ctypes.CDLL:
    """kernel.c's library, built on first use and loaded once per process."""
    lib = ctypes.CDLL(str(build(C_SOURCE)))
    lib.ftacs_reference_attitude.argtypes = (_double, _out, _i64, _i64, _double, _double,
                                             ctypes.c_double)
    lib.ftacs_reference_attitude.restype = None
    lib.ftacs_closed_loop.argtypes = (_double, _double, _i64, _double, _i64, _i64, _double,
                                      _int64, _i64, _double, _out, _out, _i64)
    lib.ftacs_closed_loop.restype = _i64
    lib.ftacs_format_rows.argtypes = (_double, _i64, _i64, _bytes, _i64)
    lib.ftacs_format_rows.restype = _i64
    return lib


def _require(name: str, array: np.ndarray, shape: tuple):
    if array.shape != shape:
        raise ValueError(f"{name} has shape {array.shape}, expected {shape}")


def reference_attitude(qd0: np.ndarray, table: np.ndarray, w_mid: np.ndarray,
                       w_end: np.ndarray, dt: float):
    """Fill table[:, 1:5] with the reference attitude of each step: qd0 at
    the first, then RK4 of the kinematics qdot = 0.5*[-qv.w; q0*w + qv x w]
    through omega_d at the step start (table[:, 5:8]), w_mid at its midpoint
    (stages 2 and 3) and w_end at its end, renormalized after each step."""
    n = len(table)
    _require("qd0", qd0, (4,))
    for name, w in (("w_mid", w_mid), ("w_end", w_end)):
        _require(name, w, (n, 3))
    if table.ndim != 2 or table.shape[1] < 8:
        raise ValueError(f"table has shape {table.shape}, expected (n, 8 or more)")
    library().ftacs_reference_attitude(qd0, table, table.shape[1], n, w_mid, w_end, dt)


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

    The noise is shaped ROW_BLOCK steps at a time. Each block takes 10 normal
    draws per step from rng, in the order sensor_sample draws them: the
    angle, the axis, the gyro noise, the bias walk. An axis whose norm is
    below 1e-12 is dropped from the block and the draws after it move up,
    with 3 new draws at the end, so the next 3 draws are the axis, as
    random_unit_vector redraws it. The bias walk is summed in sequence and
    carried across blocks."""
    walk = noise.sigma_v * math.sqrt(dt)
    bias = noise.b0.reshape(1, 3)
    blocks = []
    for _ in range(-(-n // ROW_BLOCK)):
        draws = rng.standard_normal(10 * ROW_BLOCK)
        while True:
            x, y, z = draws.reshape(ROW_BLOCK, 10)[:, 1:4].T
            norm = np.sqrt(x * x + y * y + z * z)
            short = np.flatnonzero(norm < 1e-12)
            if not short.size:
                break
            i = 10 * short[0] + 1
            draws = np.concatenate((draws[:i], draws[i + 3:], rng.standard_normal(3)))
        draws = draws.reshape(ROW_BLOCK, 10)
        half = 0.5 * (noise.sigma_theta * draws[:, 0])
        sh = np.sin(half)
        c0, c1, c2, c3 = np.cos(half), sh * (x / norm), sh * (y / norm), sh * (z / norm)
        m = np.sqrt(c0 * c0 + c1 * c1 + c2 * c2 + c3 * c3)
        walked = np.cumsum(np.concatenate((bias, walk * draws[:, 7:10])), axis=0)
        bias = walked[-1:]
        blocks.append(np.column_stack((c0 / m, -c1 / m, -c2 / m, -c3 / m, walked[:-1],
                                       noise.sigma_u * draws[:, 4:7])))
    return np.concatenate(blocks)[:n] if blocks else np.empty((0, 10))


# the length of par, whose layout constants() defines beside kernel.c's P_* offsets
N_CONSTANTS = 48


def constants(scenario, coeffs) -> tuple[np.ndarray, np.ndarray]:
    """What closed_loop passes to the kernel that does not depend on the
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


def closed_loop(scenario, signals, q: tuple, w: tuple, rng: np.random.Generator,
                rec: np.ndarray, record_every: int) -> tuple[tuple, tuple]:
    """Run the steps of signals (a harness.ScenarioSignals) from the state
    (q, w) with its packed constants (constants()) and the scenario's
    observer, and return the final state. A step observes the state, applies
    the reference's control_step (tests/reference.py) to the estimates,
    realizes D*E*tau_u + tau_d and takes RK4 of the rigid body, q
    renormalized once. A bias observer draws its sensor noise from rng
    (bias_noise) before the first step.

    Every record_every-th step, from the first, records the row (t, qe,
    omega_e, s, s_hat, theta_e_deg, tau_u, |qtilde_v|, |omega_tilde|) of
    17 + m floats into rec, from its top. record_every crosses into C as a
    64-bit integer, so it must be at most the number of steps; a larger
    decimation records the same one row. A non-finite state raises
    NonFiniteState naming the step."""
    spec = scenario.observer
    table, alloc, alloc_index = signals.table, signals.alloc, signals.alloc_index
    n, m = len(table), scenario.bank.m
    observer = OBSERVERS[spec.kind]
    if not 1 <= record_every <= max(n, 1):
        raise ValueError(f"record_every must be in [1, {n}], got {record_every}")
    _require("constants", signals.constants, (N_CONSTANTS,))
    _require("pairs", signals.pairs, (m, 3))
    _require("table", table, (n, 14 + m + (7 if spec.kind == "synthetic" else 0)))
    _require("alloc_index", alloc_index, (n,))
    _require("alloc", alloc, (len(alloc), m, 3))
    _require("rec", rec, (-(-n // record_every), 17 + m))
    if n and not 0 <= alloc_index.min() <= alloc_index.max() < len(alloc):
        raise ValueError(f"alloc_index must index the {len(alloc)} allocation matrices")
    noise = (bias_noise(scenario.noise, scenario.dt, rng, n) if spec.kind == "bias"
             else np.empty((0, 10)))
    state = np.array([*q, *w], dtype=np.float64)
    step = library().ftacs_closed_loop(
        signals.constants, signals.pairs, m, table, table.shape[1], n, alloc, alloc_index,
        observer, noise, state, rec, record_every)
    if step >= 0:
        raise NonFiniteState(f"non-finite state at step {step} (t={table[step, 0]:.3f} s)")
    return tuple(state[:4].tolist()), tuple(state[4:].tolist())
