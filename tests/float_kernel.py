"""The float kernel: the closed loop on Python floats that ftacs ran before
its step loop was compiled, kept unchanged as the oracle that the compiled
kernel (src/ftacs/kernel.c) must equal bit for bit.

closed_loop binds an instance's parameters once and returns advance, which
runs every step: observer, control law, saturated allocation, faulty
actuators, recorded errors, RK4. advance unpacks each step's row of the
step table of a kernel.ClosedLoop, which steps() yields beside the
allocation rows, and writes each recorded sample as a row of one
preallocated float table, whose columns harness.RunTrace views. Observers
take (q, w, errors), errors being the row's observer-error columns.
step_table builds the step table of harness.closed_loop in numpy, its
reference attitude by the reference-attitude RK4 loop reference_attitude,
and run_scenario runs an instance on the float kernel as harness.run_scenario
does on the compiled one, its instance record formed by the numpy oracle
reference.steady_state_stats.

The functions write out the quaternion product, the rotation and the
quaternion rate in place of calling helpers, since a Python call costs more
than the arithmetic. A written-out product or rotation keeps the expressions
of the reference's float helpers _qmul and _rotate in their operation order,
up to exact IEEE identities (x - (-y) == x + y, (-x) * y == -(x * y)), so
every result stays bit for bit that of the helper; tests/test_kernel.py
holds the written-out forms to the helpers.

The bias observer's sensor noise does not depend on the state: it is shaped
in numpy per block of ROW_BLOCK steps, from normals consumed in the order
the reference's sensor_sample draws them, an axis redraw included, and each
step reads its noise as floats.
"""

from __future__ import annotations

import math
from itertools import chain

import numpy as np

from ftacs.actuation import ActuatorBank
from ftacs.bounds import RobustCoefficients, robust_coefficients
from ftacs.config import ControllerGains, ModelEstimates
from ftacs.errors import NonFiniteState
from ftacs.estimation import NoiseParams
from ftacs.harness import RunTrace, _initial_state
from ftacs.kernel import ClosedLoop
from reference import steady_state_stats

# Steps handled at a time as Python floats: the bias observer's sensor noise,
# the rows of precomputed signals and of recorded samples. Long runs keep
# their arrays in numpy.
ROW_BLOCK = 256


def _row_blocks(n: int):
    """Slices of ROW_BLOCK rows that cover range(n)."""
    return (slice(i, min(i + ROW_BLOCK, n)) for i in range(0, n, ROW_BLOCK))


def steps(loop: ClosedLoop):
    """Per step, (row, alloc): the step's row of loop.table as a list of
    floats and its allocation rows, loop.alloc[loop.alloc_index[step]].

    Each block of ROW_BLOCK steps becomes one list of rows through a
    single tolist() of the table. The allocation rows are converted once
    per call for each distinct matrix, as a tuple of row tuples, and
    every step that uses that matrix gets the same object: they are
    shared, not copied."""
    alloc = [tuple(map(tuple, a)) for a in loop.alloc.tolist()]
    for rows in _row_blocks(len(loop.table)):
        yield from zip(loop.table[rows].tolist(),
                       map(alloc.__getitem__, loop.alloc_index[rows].tolist()))


def reference_attitude(scenario, table):
    """Fill table[:, 1:5] with the reference attitude: RK4 of the kinematics
    through the reference rates, from qd0."""
    dt = scenario.dt
    n = len(table)
    t = dt * np.arange(n)
    wdh = scenario.omega_d(t + 0.5 * dt)
    wdf = scenario.omega_d(t + dt)
    q = tuple(scenario.qd0.tolist())
    for rows in _row_blocks(n):
        block = []
        for w1, w2, w4 in zip(table[rows, 5:8].tolist(), wdh[rows].tolist(), wdf[rows].tolist()):
            block.append(q)
            q = kinematics_rk4(q, w1, w2, w4, dt)
        table[rows, 1:5] = block


def step_table(scenario) -> np.ndarray:
    """The step table of harness.closed_loop as ftacs built it before
    kernel.step_table wrote it: the scenario's signals evaluated by their
    numpy methods on the step grid, and the reference attitude integrated
    on the float kernel."""
    dt, n, e = scenario.dt, scenario.n_steps, 14 + scenario.bank.m
    synthetic = scenario.observer.kind == "synthetic"
    table = np.empty((n, e + 7 if synthetic else e))
    t = dt * np.arange(n)
    table[:, 0] = t
    table[:, 5:8] = scenario.omega_d(t)
    table[:, 8:11] = scenario.omega_d.derivative(t)
    table[:, 11:14] = scenario.disturbance(t + 0.5 * dt)
    table[:, 14:e] = scenario.health(t)
    if synthetic:
        table[:, e:e + 4] = scenario.observer.qtilde(t) * np.array([1.0, -1.0, -1.0, -1.0])
        table[:, e + 4:] = scenario.observer.omega_tilde(t)
    reference_attitude(scenario, table)
    return table


def run_scenario(loop: ClosedLoop) -> RunTrace:
    """harness.run_scenario of loop.scenario on the float kernel, over the
    step table and allocation matrices of loop."""
    scenario = loop.scenario
    rng = np.random.default_rng(scenario.seed)
    dt = scenario.dt
    dec = min(scenario.record_decimation, scenario.n_steps)
    m = scenario.bank.m

    q, w = _initial_state(scenario, rng)
    spec = scenario.observer
    if spec.kind == "perfect":
        observe = perfect_observe
    elif spec.kind == "synthetic":
        observe = synthetic_observe
    else:  # bias observer fed by noisy sensors, drawing after the initial state
        observe = bias_observer(scenario.noise, spec.k_o, spec.k_b, dt, rng)
    advance = closed_loop(scenario.gains, scenario.estimates,
                          robust_coefficients(scenario.budget, scenario.gains.k),
                          scenario.bank, scenario.J, dt, observe)

    # one recorded row per dec steps, in the column order of the RunTrace fields
    rec = np.empty((-(-scenario.n_steps // dec), 17 + m))
    advance(q, w, steps(loop), rec, dec)
    trace = RunTrace.from_rows(rec, dt * dec, None)
    trace.record = steady_state_stats(trace, scenario.tail_fraction)
    return trace


def kinematics_rk4(q, w1, w2, w4, dt):
    """RK4 step of the quaternion kinematics qdot = 0.5*[-qv.w; q0*w + qv x w]
    with the rate w1 at the start, w2 at the midpoint (stages 2 and 3) and w4
    at the end; renormalized."""
    h = 0.5 * dt
    q0, q1, q2, q3 = q
    wx, wy, wz = w1
    a0 = -0.5 * (q1 * wx + q2 * wy + q3 * wz)
    a1 = 0.5 * (q0 * wx + q2 * wz - q3 * wy)
    a2 = 0.5 * (q0 * wy + q3 * wx - q1 * wz)
    a3 = 0.5 * (q0 * wz + q1 * wy - q2 * wx)
    wx, wy, wz = w2
    r0, r1, r2, r3 = q0 + h * a0, q1 + h * a1, q2 + h * a2, q3 + h * a3
    b0 = -0.5 * (r1 * wx + r2 * wy + r3 * wz)
    b1 = 0.5 * (r0 * wx + r2 * wz - r3 * wy)
    b2 = 0.5 * (r0 * wy + r3 * wx - r1 * wz)
    b3 = 0.5 * (r0 * wz + r1 * wy - r2 * wx)
    r0, r1, r2, r3 = q0 + h * b0, q1 + h * b1, q2 + h * b2, q3 + h * b3
    c0 = -0.5 * (r1 * wx + r2 * wy + r3 * wz)
    c1 = 0.5 * (r0 * wx + r2 * wz - r3 * wy)
    c2 = 0.5 * (r0 * wy + r3 * wx - r1 * wz)
    c3 = 0.5 * (r0 * wz + r1 * wy - r2 * wx)
    wx, wy, wz = w4
    r0, r1, r2, r3 = q0 + dt * c0, q1 + dt * c1, q2 + dt * c2, q3 + dt * c3
    d0 = -0.5 * (r1 * wx + r2 * wy + r3 * wz)
    d1 = 0.5 * (r0 * wx + r2 * wz - r3 * wy)
    d2 = 0.5 * (r0 * wy + r3 * wx - r1 * wz)
    d3 = 0.5 * (r0 * wz + r1 * wy - r2 * wx)
    c = dt / 6.0
    p0 = q0 + c * (a0 + 2.0 * b0 + 2.0 * c0 + d0)
    p1 = q1 + c * (a1 + 2.0 * b1 + 2.0 * c1 + d1)
    p2 = q2 + c * (a2 + 2.0 * b2 + 2.0 * c2 + d2)
    p3 = q3 + c * (a3 + 2.0 * b3 + 2.0 * c3 + d3)
    n = math.sqrt(p0 * p0 + p1 * p1 + p2 * p2 + p3 * p3)
    return (p0 / n, p1 / n, p2 / n, p3 / n)


def closed_loop(gains: ControllerGains, est: ModelEstimates, coeffs: RobustCoefficients,
                bank: ActuatorBank, J: np.ndarray, dt: float, observe):
    """advance(q, w, steps, table, record_every) -> (q, w) runs the
    (row, alloc) pairs of steps() from the state (q, w). A step calls
    observe(q, w, errors) on the row's observer-error columns, applies the
    reference's control_step (tests/reference.py) to the estimates,
    realizes D*E*tau_u + tau_d and takes RK4 of the rigid body, q
    renormalized once. Every record_every-th step records the row (t, qe,
    omega_e, s, s_hat, theta_e_deg, tau_u, |qtilde_v|, |omega_tilde|) of
    17 + m floats; the recorded rows fill table, of at least that many rows,
    from its top, ROW_BLOCK rows at a time. A non-finite state raises
    NonFiniteState naming the step."""
    k = gains.k
    (K00, K01, K02), (K10, K11, K12), (K20, K21, K22) = gains.K.tolist()
    (J00, J01, J02), (J10, J11, J12), (J20, J21, J22) = est.J_hat.tolist()
    tdx, tdy, tdz = est.tau_d_hat.tolist()
    rob0, rob1 = coeffs.a0, coeffs.a1
    gamma, eps = gains.gamma, gains.epsilon
    c_qq = -0.5 * k * k
    c_g = 0.5 * k
    m = bank.m
    tau_max = bank.tau_max
    pairs = bank.D.T.tolist()  # torque direction of each thruster pair
    # the true inertia J as M and its inverse as I; J00..J22 are J_hat's
    (M00, M01, M02), (M10, M11, M12), (M20, M21, M22) = J.tolist()
    (I00, I01, I02), (I10, I11, I12), (I20, I21, I22) = np.linalg.inv(J).tolist()
    h = 0.5 * dt
    c = dt / 6.0

    def rates(q0, q1, q2, q3, wx, wy, wz, tx, ty, tz):
        # omega_dot = J^-1 (tau - omega x J omega)
        jx = M00 * wx + M01 * wy + M02 * wz
        jy = M10 * wx + M11 * wy + M12 * wz
        jz = M20 * wx + M21 * wy + M22 * wz
        fx = tx - (wy * jz - wz * jy)
        fy = ty - (wz * jx - wx * jz)
        fz = tz - (wx * jy - wy * jx)
        # qdot = 0.5*[-qv.w; q0*w + qv x w]
        return (-0.5 * (q1 * wx + q2 * wy + q3 * wz),
                0.5 * (q0 * wx + q2 * wz - q3 * wy),
                0.5 * (q0 * wy + q3 * wx - q1 * wz),
                0.5 * (q0 * wz + q1 * wy - q2 * wx),
                I00 * fx + I01 * fy + I02 * fz,
                I10 * fx + I11 * fy + I12 * fz,
                I20 * fx + I21 * fy + I22 * fz)

    def advance(q, w, steps, table, record_every):
        rows = []
        filled = 0  # rows of table written
        for i, (row, alloc) in enumerate(steps):
            # t, qd, omega_d, omega_d_dot, tau_d, then the health and the observer errors
            t, d0, d1, d2, d3, vx, vy, vz, vdx, vdy, vdz, taux, tauy, tauz, *rest = row
            qh, wh = observe(q, w, rest[m:])
            h0, h1, h2, h3 = qh
            # estimated error coordinates: qe = _qmul(qd^-1, q_hat)
            e0 = d0 * h0 + d1 * h1 + d2 * h2 + d3 * h3
            e1 = d0 * h1 - h0 * d1 - d2 * h3 + d3 * h2
            e2 = d0 * h2 - h0 * d2 - d3 * h1 + d1 * h3
            e3 = d0 * h3 - h0 * d3 - d1 * h2 + d2 * h1
            n = math.sqrt(e0 * e0 + e1 * e1 + e2 * e2 + e3 * e3)
            e0, e1, e2, e3 = e0 / n, e1 / n, e2 / n, e3 / n
            # omega_bar_hat_d = _rotate(qe, omega_d)
            e0x2 = 2.0 * e0
            cx = e2 * vz - e3 * vy
            cy = e3 * vx - e1 * vz
            cz = e1 * vy - e2 * vx
            bx = vx - e0x2 * cx + 2.0 * (e2 * cz - e3 * cy)
            by = vy - e0x2 * cy + 2.0 * (e3 * cx - e1 * cz)
            bz = vz - e0x2 * cz + 2.0 * (e1 * cy - e2 * cx)
            ox, oy, oz = wh[0] - bx, wh[1] - by, wh[2] - bz  # omega_hat_e
            sx, sy, sz = ox + k * e1, oy + k * e2, oz + k * e3  # s_hat

            # feedforward psi_hat = -k^2/2 qv x J qv + k/2 G(q) J omega_hat_e - k xi_d qv,
            # with G(q) x = q0 x + qv x x and xi_d qv = (J wb) x qv - wb x J qv - J (wb x qv)
            jqx = J00 * e1 + J01 * e2 + J02 * e3
            jqy = J10 * e1 + J11 * e2 + J12 * e3
            jqz = J20 * e1 + J21 * e2 + J22 * e3
            jbx = J00 * bx + J01 * by + J02 * bz
            jby = J10 * bx + J11 * by + J12 * bz
            jbz = J20 * bx + J21 * by + J22 * bz
            jox = J00 * ox + J01 * oy + J02 * oz
            joy = J10 * ox + J11 * oy + J12 * oz
            joz = J20 * ox + J21 * oy + J22 * oz
            cx, cy, cz = by * e3 - bz * e2, bz * e1 - bx * e3, bx * e2 - by * e1  # wb x qv
            xi_x = (jby * e3 - jbz * e2) - (by * jqz - bz * jqy) - (J00 * cx + J01 * cy + J02 * cz)
            xi_y = (jbz * e1 - jbx * e3) - (bz * jqx - bx * jqz) - (J10 * cx + J11 * cy + J12 * cz)
            xi_z = (jbx * e2 - jby * e1) - (bx * jqy - by * jqx) - (J20 * cx + J21 * cy + J22 * cz)
            px = (c_qq * (e2 * jqz - e3 * jqy) + c_g * (e0 * jox + (e2 * joz - e3 * joy))
                  - k * xi_x)
            py = (c_qq * (e3 * jqx - e1 * jqz) + c_g * (e0 * joy + (e3 * jox - e1 * joz))
                  - k * xi_y)
            pz = (c_qq * (e1 * jqy - e2 * jqx) + c_g * (e0 * joz + (e1 * joy - e2 * jox))
                  - k * xi_z)
            # psi_hat_d = wb x J wb + J R(q) omega_d_dot, with R(q) omega_d_dot = _rotate(qe, wdd)
            cx = e2 * vdz - e3 * vdy
            cy = e3 * vdx - e1 * vdz
            cz = e1 * vdy - e2 * vdx
            ax = vdx - e0x2 * cx + 2.0 * (e2 * cz - e3 * cy)
            ay = vdy - e0x2 * cy + 2.0 * (e3 * cx - e1 * cz)
            az = vdz - e0x2 * cz + 2.0 * (e1 * cy - e2 * cx)
            pdx = (by * jbz - bz * jby) + (J00 * ax + J01 * ay + J02 * az)
            pdy = (bz * jbx - bx * jbz) + (J10 * ax + J11 * ay + J12 * az)
            pdz = (bx * jby - by * jbx) + (J20 * ax + J21 * ay + J22 * az)

            # boundary-layer robust term
            mag = rob1 * (math.sqrt(e1 * e1 + e2 * e2 + e3 * e3) + gamma) + rob0
            s_norm = math.sqrt(sx * sx + sy * sy + sz * sz)
            g = -(mag / s_norm) if s_norm >= eps else -(mag / eps)

            # u = -K s_hat + u_s + psi_hat_d - psi_hat - tau_d_hat
            ux = -(K00 * sx + K01 * sy + K02 * sz) + g * sx + pdx - px - tdx
            uy = -(K10 * sx + K11 * sy + K12 * sz) + g * sy + pdy - py - tdy
            uz = -(K20 * sx + K21 * sy + K22 * sz) + g * sz + pdz - pz - tdz
            # each pair's saturated command and its realized torque D * E * tau_u
            # (the zip stops at the m allocation rows, so ej runs over the health)
            tau_u = []
            tx = ty = tz = 0.0
            for (r0, r1, r2), (dx, dy, dz), ej in zip(alloc, pairs, rest):
                r = r0 * ux + r1 * uy + r2 * uz
                tj = tau_max if r > tau_max else -tau_max if r < -tau_max else r
                tau_u.append(tj)
                p = ej * tj
                tx += dx * p
                ty += dy * p
                tz += dz * p

            q0, q1, q2, q3 = q
            wx, wy, wz = w
            if i % record_every == 0:
                # true errors: qe = _qmul(qd^-1, q), omega_bar_d = _rotate(qe, omega_d)
                e0 = d0 * q0 + d1 * q1 + d2 * q2 + d3 * q3
                e1 = d0 * q1 - q0 * d1 - d2 * q3 + d3 * q2
                e2 = d0 * q2 - q0 * d2 - d3 * q1 + d1 * q3
                e3 = d0 * q3 - q0 * d3 - d1 * q2 + d2 * q1
                n = math.sqrt(e0 * e0 + e1 * e1 + e2 * e2 + e3 * e3)
                e0, e1, e2, e3 = e0 / n, e1 / n, e2 / n, e3 / n
                e0x2 = 2.0 * e0
                cx = e2 * vz - e3 * vy
                cy = e3 * vx - e1 * vz
                cz = e1 * vy - e2 * vx
                bx = vx - e0x2 * cx + 2.0 * (e2 * cz - e3 * cy)
                by = vy - e0x2 * cy + 2.0 * (e3 * cx - e1 * cz)
                bz = vz - e0x2 * cz + 2.0 * (e1 * cy - e2 * cx)
                ox, oy, oz = wx - bx, wy - by, wz - bz
                # observer errors: qtilde = _qmul(q_hat^-1, q), of which the
                # vector part is recorded, and omega_hat - omega
                t0 = h0 * q0 + h1 * q1 + h2 * q2 + h3 * q3
                t1 = h0 * q1 - q0 * h1 - h2 * q3 + h3 * q2
                t2 = h0 * q2 - q0 * h2 - h3 * q1 + h1 * q3
                t3 = h0 * q3 - q0 * h3 - h1 * q2 + h2 * q1
                n = math.sqrt(t0 * t0 + t1 * t1 + t2 * t2 + t3 * t3)
                t1, t2, t3 = t1 / n, t2 / n, t3 / n
                fx, fy, fz = wh[0] - wx, wh[1] - wy, wh[2] - wz
                rows.append((t, e0, e1, e2, e3, ox, oy, oz, ox + k * e1, oy + k * e2, oz + k * e3,
                             sx, sy, sz, math.degrees(2.0 * math.acos(min(abs(e0), 1.0))),
                             *tau_u, math.sqrt(t1 * t1 + t2 * t2 + t3 * t3),
                             math.sqrt(fx * fx + fy * fy + fz * fz)))
                if len(rows) == ROW_BLOCK:
                    table[filled:filled + ROW_BLOCK] = rows
                    filled += ROW_BLOCK
                    rows = []

            # RK4 of the rigid body under tau_c + tau_d held over the step
            tx, ty, tz = tx + taux, ty + tauy, tz + tauz
            a0, a1, a2, a3, a4, a5, a6 = rates(q0, q1, q2, q3, wx, wy, wz, tx, ty, tz)
            b0, b1, b2, b3, b4, b5, b6 = rates(
                q0 + h * a0, q1 + h * a1, q2 + h * a2, q3 + h * a3,
                wx + h * a4, wy + h * a5, wz + h * a6, tx, ty, tz)
            m0, m1, m2, m3, m4, m5, m6 = rates(
                q0 + h * b0, q1 + h * b1, q2 + h * b2, q3 + h * b3,
                wx + h * b4, wy + h * b5, wz + h * b6, tx, ty, tz)
            d0, d1, d2, d3, d4, d5, d6 = rates(
                q0 + dt * m0, q1 + dt * m1, q2 + dt * m2, q3 + dt * m3,
                wx + dt * m4, wy + dt * m5, wz + dt * m6, tx, ty, tz)
            p0 = q0 + c * (a0 + 2 * b0 + 2 * m0 + d0)
            p1 = q1 + c * (a1 + 2 * b1 + 2 * m1 + d1)
            p2 = q2 + c * (a2 + 2 * b2 + 2 * m2 + d2)
            p3 = q3 + c * (a3 + 2 * b3 + 2 * m3 + d3)
            wx = wx + c * (a4 + 2 * b4 + 2 * m4 + d4)
            wy = wy + c * (a5 + 2 * b5 + 2 * m5 + d5)
            wz = wz + c * (a6 + 2 * b6 + 2 * m6 + d6)
            n = math.sqrt(p0 * p0 + p1 * p1 + p2 * p2 + p3 * p3)
            # x - x is 0.0 for every finite x and NaN otherwise
            if (n - n) + (wx - wx) + (wy - wy) + (wz - wz) != 0.0:
                raise NonFiniteState(f"non-finite state at step {i} (t={t:.3f} s)")
            q, w = (p0 / n, p1 / n, p2 / n, p3 / n), (wx, wy, wz)
        if rows:
            table[filled:filled + len(rows)] = rows
        return q, w

    return advance


def perfect_observe(q, w, errors):
    """The true state."""
    return q, w


def synthetic_observe(q, w, errors):
    """q (x) qtilde^-1 and omega + omega_tilde, errors holding qtilde^-1 (4)
    and omega_tilde (3)."""
    a0, a1, a2, a3 = q
    b0, b1, b2, b3, ux, uy, uz = errors
    p0 = a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3
    p1 = a0 * b1 + b0 * a1 + a2 * b3 - a3 * b2
    p2 = a0 * b2 + b0 * a2 + a3 * b1 - a1 * b3
    p3 = a0 * b3 + b0 * a3 + a1 * b2 - a2 * b1
    n = math.sqrt(p0 * p0 + p1 * p1 + p2 * p2 + p3 * p3)
    return (p0 / n, p1 / n, p2 / n, p3 / n), (w[0] + ux, w[1] + uy, w[2] + uz)


def bias_observer(noise: NoiseParams, k_o: float, k_b: float, dt: float,
                  rng: np.random.Generator):
    """observe(q, omega, errors) -> (q_hat, omega_hat), with the signature of
    perfect_observe and synthetic_observe, errors unused: the reference's
    sensor_sample followed by its bias_observer_step (tests/reference.py),
    the first estimate being the first measurement.

    The sensor noise does not depend on the state, so it is shaped in numpy,
    ROW_BLOCK steps at a time. Each block takes 10 normal draws per step from
    rng, in the order sensor_sample draws them: the angle, the axis, the gyro
    noise, the bias walk. An axis whose norm is below 1e-12 is dropped from
    the block and the draws after it move up, with 3 new draws at the end, so
    the next 3 draws are the axis, as random_unit_vector redraws it. The
    block gives qtilde_m^-1, the bias (the walk summed in sequence, carried
    across blocks) and sigma_u * eta_u of every step; a step reads these 10
    floats and forms the measurement and the filter update.
    """
    if dt <= 0:  # ObserverSpec checks the gains
        raise ValueError("dt must be positive")
    walk = noise.sigma_v * math.sqrt(dt)
    bias = noise.b0.reshape(1, 3)
    q_hat = None
    b_hat = (0.0, 0.0, 0.0)

    def noise_block():
        nonlocal bias
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
        n = np.sqrt(c0 * c0 + c1 * c1 + c2 * c2 + c3 * c3)
        walked = np.cumsum(np.concatenate((bias, walk * draws[:, 7:10])), axis=0)
        bias = walked[-1:]
        return np.column_stack((c0 / n, -c1 / n, -c2 / n, -c3 / n, walked[:-1],
                                noise.sigma_u * draws[:, 4:7])).tolist()

    # the 10 floats of the next step, from one block after another
    sample = chain.from_iterable(iter(noise_block, None)).__next__

    def observe(q, w, errors):
        nonlocal q_hat, b_hat
        c0, c1, c2, c3, bx, by, bz, ux, uy, uz = sample()
        # sensor sample: q_m = _qmul(q, qtilde_m^-1), omega_m = (omega + b) + sigma_u * eta_u
        a0, a1, a2, a3 = q
        p0 = a0 * c0 - a1 * c1 - a2 * c2 - a3 * c3
        p1 = a0 * c1 + c0 * a1 + a2 * c3 - a3 * c2
        p2 = a0 * c2 + c0 * a2 + a3 * c1 - a1 * c3
        p3 = a0 * c3 + c0 * a3 + a1 * c2 - a2 * c1
        n = math.sqrt(p0 * p0 + p1 * p1 + p2 * p2 + p3 * p3)
        m0, m1, m2, m3 = p0 / n, p1 / n, p2 / n, p3 / n
        mx = w[0] + bx + ux
        my = w[1] + by + uy
        mz = w[2] + bz + uz

        # complementary filter with gyro-bias estimation
        if q_hat is None:
            q_hat = (m0, m1, m2, m3)
        h0, h1, h2, h3 = q_hat
        # r = _qmul(q_hat^-1, q_m)
        r0 = h0 * m0 + h1 * m1 + h2 * m2 + h3 * m3
        r1 = h0 * m1 - m0 * h1 - h2 * m3 + h3 * m2
        r2 = h0 * m2 - m0 * h2 - h3 * m1 + h1 * m3
        r3 = h0 * m3 - m0 * h3 - h1 * m2 + h2 * m1
        n = math.sqrt(r0 * r0 + r1 * r1 + r2 * r2 + r3 * r3)
        r1, r2, r3 = r1 / n, r2 / n, r3 / n
        sgn = -1.0 if r0 / n < 0 else 1.0
        ko, kb = k_o * sgn, k_b * sgn
        bx, by, bz = b_hat
        wc = ((mx - bx) + ko * r1, (my - by) + ko * r2, (mz - bz) + ko * r3)
        q_hat = kinematics_rk4(q_hat, wc, wc, wc, dt)
        b_hat = (bx - kb * r1 * dt, by - kb * r2 * dt, bz - kb * r3 * dt)
        return q_hat, (mx - b_hat[0], my - b_hat[1], mz - b_hat[2])

    return observe
