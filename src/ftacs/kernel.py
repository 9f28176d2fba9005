"""The closed-loop step on Python floats.

harness.run_scenario advances an instance with the functions built here:
the observer, the control law (estimated error coordinates, feedforward,
robust term, virtual control, allocation, saturation), the plant RK4 step and
the recorded tracking errors. The factories control_law, plant_step and
bias_observer bind their parameters once and return the function that runs
every step.

Vectors are tuples or lists of floats. Quaternions are scalar-first with the
Hamilton product, as in so3, and every product is renormalized. The numpy
functions of controller, dynamics and estimation define the same math;
tests/test_kernel.py holds the two within 1e-12 of each other.

The functions that run every step (control, the plant's rates and step,
kinematics_rk4, synthetic_observe) write out the quaternion product, the
rotation and the quaternion rate in place of calling _qmul and _rotate, since
a Python call costs more than the arithmetic. A written-out helper keeps the
helper's expressions in the helper's operation order, up to exact IEEE
identities (x - (-y) == x + y, (-x) * y == -(x * y)), so every result stays
bit for bit that of the helper.
"""

from __future__ import annotations

import math

import numpy as np

from .bounds import RobustCoefficients
from .config import ControllerGains, ModelEstimates
from .dynamics import inertia_inverse
from .errors import NonFiniteState
from .estimation import NoiseParams

# Normal draws taken from the generator at a time by the bias observer.
DRAW_BLOCK = 4096


def _qmul(a, b):
    """Hamilton product a (x) b, renormalized."""
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    p0 = a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3
    p1 = a0 * b1 + b0 * a1 + a2 * b3 - a3 * b2
    p2 = a0 * b2 + b0 * a2 + a3 * b1 - a1 * b3
    p3 = a0 * b3 + b0 * a3 + a1 * b2 - a2 * b1
    n = math.sqrt(p0 * p0 + p1 * p1 + p2 * p2 + p3 * p3)
    return (p0 / n, p1 / n, p2 / n, p3 / n)


def _rotate(q, v):
    """R(q) v = v - 2*q0*(qv x v) + 2*qv x (qv x v)."""
    q0, q1, q2, q3 = q
    vx, vy, vz = v
    cx = q2 * vz - q3 * vy
    cy = q3 * vx - q1 * vz
    cz = q1 * vy - q2 * vx
    return (
        vx - 2.0 * q0 * cx + 2.0 * (q2 * cz - q3 * cy),
        vy - 2.0 * q0 * cy + 2.0 * (q3 * cx - q1 * cz),
        vz - 2.0 * q0 * cz + 2.0 * (q1 * cy - q2 * cx),
    )


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


def control_law(gains: ControllerGains, est: ModelEstimates, coeffs: RobustCoefficients,
                tau_max: float):
    """control(q_hat, omega_hat, qd, omega_d, omega_d_dot, alloc) -> (tau_u, s_hat).

    The law of controller.control_step, with the m x 3 allocation matrix
    given as m rows."""
    k = float(gains.k)
    (K00, K01, K02), (K10, K11, K12), (K20, K21, K22) = gains.K.tolist()
    (J00, J01, J02), (J10, J11, J12), (J20, J21, J22) = est.J_hat.tolist()
    tdx, tdy, tdz = est.tau_d_hat.tolist()
    a0, a1 = float(coeffs.a0), float(coeffs.a1)
    gamma, eps = float(gains.gamma), float(gains.epsilon)
    tmax = float(tau_max)
    c_qq = -0.5 * k * k
    c_g = 0.5 * k

    def control(qh, wh, qd, wd, wdd, alloc):
        d0, d1, d2, d3 = qd
        h0, h1, h2, h3 = qh
        # estimated error coordinates: qe = _qmul(qd^-1, q_hat)
        e0 = d0 * h0 + d1 * h1 + d2 * h2 + d3 * h3
        e1 = d0 * h1 - h0 * d1 - d2 * h3 + d3 * h2
        e2 = d0 * h2 - h0 * d2 - d3 * h1 + d1 * h3
        e3 = d0 * h3 - h0 * d3 - d1 * h2 + d2 * h1
        n = math.sqrt(e0 * e0 + e1 * e1 + e2 * e2 + e3 * e3)
        e0, e1, e2, e3 = e0 / n, e1 / n, e2 / n, e3 / n
        # omega_bar_hat_d = _rotate(qe, omega_d)
        vx, vy, vz = wd
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
        vx, vy, vz = wdd
        cx = e2 * vz - e3 * vy
        cy = e3 * vx - e1 * vz
        cz = e1 * vy - e2 * vx
        ax = vx - e0x2 * cx + 2.0 * (e2 * cz - e3 * cy)
        ay = vy - e0x2 * cy + 2.0 * (e3 * cx - e1 * cz)
        az = vz - e0x2 * cz + 2.0 * (e1 * cy - e2 * cx)
        pdx = (by * jbz - bz * jby) + (J00 * ax + J01 * ay + J02 * az)
        pdy = (bz * jbx - bx * jbz) + (J10 * ax + J11 * ay + J12 * az)
        pdz = (bx * jby - by * jbx) + (J20 * ax + J21 * ay + J22 * az)

        # boundary-layer robust term
        mag = a1 * (math.sqrt(e1 * e1 + e2 * e2 + e3 * e3) + gamma) + a0
        s_norm = math.sqrt(sx * sx + sy * sy + sz * sz)
        g = -(mag / s_norm) if s_norm >= eps else -(mag / eps)

        # u = -K s_hat + u_s + psi_hat_d - psi_hat - tau_d_hat
        ux = -(K00 * sx + K01 * sy + K02 * sz) + g * sx + pdx - px - tdx
        uy = -(K10 * sx + K11 * sy + K12 * sz) + g * sy + pdy - py - tdy
        uz = -(K20 * sx + K21 * sy + K22 * sz) + g * sz + pdz - pz - tdz
        tau_u = []
        for r0, r1, r2 in alloc:
            r = r0 * ux + r1 * uy + r2 * uz
            tau_u.append(tmax if r > tmax else -tmax if r < -tmax else r)
        return tau_u, (sx, sy, sz)

    return control


def plant_step(J: np.ndarray, dt: float):
    """step(q, omega, tau) -> (q, omega): RK4 of the rigid body under a torque
    held constant over the step, q renormalized once; raises NonFiniteState."""
    (J00, J01, J02), (J10, J11, J12), (J20, J21, J22) = J.tolist()
    (I00, I01, I02), (I10, I11, I12), (I20, I21, I22) = inertia_inverse(J).tolist()
    h = 0.5 * dt
    c = dt / 6.0

    def rates(q0, q1, q2, q3, wx, wy, wz, tx, ty, tz):
        # omega_dot = J^-1 (tau - omega x J omega)
        jx = J00 * wx + J01 * wy + J02 * wz
        jy = J10 * wx + J11 * wy + J12 * wz
        jz = J20 * wx + J21 * wy + J22 * wz
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

    def step(q, w, tau):
        q0, q1, q2, q3 = q
        wx, wy, wz = w
        tx, ty, tz = tau
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
            raise NonFiniteState("non-finite state")
        return (p0 / n, p1 / n, p2 / n, p3 / n), (wx, wy, wz)

    return step


def tracking_record(q, w, qd, wd, qh, wh, k):
    """(qe0..3, omega_e, s, theta_e_deg, |qtilde_v|, |omega_tilde|): the true
    errors of dynamics.tracking_errors and the observer errors."""
    d0, d1, d2, d3 = qd
    qe = _qmul((d0, -d1, -d2, -d3), q)
    e0, e1, e2, e3 = qe
    bx, by, bz = _rotate(qe, wd)
    wx, wy, wz = w
    ox, oy, oz = wx - bx, wy - by, wz - bz
    h0, h1, h2, h3 = qh
    _, t1, t2, t3 = _qmul((h0, -h1, -h2, -h3), q)
    fx, fy, fz = wh[0] - wx, wh[1] - wy, wh[2] - wz
    return (e0, e1, e2, e3, ox, oy, oz, ox + k * e1, oy + k * e2, oz + k * e3,
            math.degrees(2.0 * math.acos(min(abs(e0), 1.0))),
            math.sqrt(t1 * t1 + t2 * t2 + t3 * t3),
            math.sqrt(fx * fx + fy * fy + fz * fz))


def perfect_observe(q, w, qti, wt):
    """The true state."""
    return q, w


def synthetic_observe(q, w, qti, wt):
    """q (x) qtilde^-1 and omega + omega_tilde."""
    a0, a1, a2, a3 = q
    b0, b1, b2, b3 = qti
    p0 = a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3
    p1 = a0 * b1 + b0 * a1 + a2 * b3 - a3 * b2
    p2 = a0 * b2 + b0 * a2 + a3 * b1 - a1 * b3
    p3 = a0 * b3 + b0 * a3 + a1 * b2 - a2 * b1
    n = math.sqrt(p0 * p0 + p1 * p1 + p2 * p2 + p3 * p3)
    return (p0 / n, p1 / n, p2 / n, p3 / n), (w[0] + wt[0], w[1] + wt[1], w[2] + wt[2])


def bias_observer(noise: NoiseParams, k_o: float, k_b: float, dt: float,
                  rng: np.random.Generator):
    """observe(q, omega, _, _) -> (q_hat, omega_hat), with the signature of
    perfect_observe and synthetic_observe: estimation.sensor_sample
    followed by estimation.bias_observer_step, the first estimate being the
    first measurement.

    Normal draws are taken from rng in blocks and consumed in the order
    sensor_sample draws them: the angle, the axis (redrawn while its norm is
    below 1e-12, as random_unit_vector does), the gyro noise, the bias walk.
    """
    if k_o <= 0 or k_b <= 0 or dt <= 0:
        raise ValueError("gains and dt must be positive")
    sigma_theta = float(noise.sigma_theta)
    sigma_u = float(noise.sigma_u)
    walk = noise.sigma_v * math.sqrt(dt)
    bias = noise.b0.tolist()
    q_hat = None
    b_hat = (0.0, 0.0, 0.0)
    draws: list[float] = []
    pos = 0

    def take(n):
        nonlocal draws, pos
        if pos + n > len(draws):
            draws = draws[pos:] + rng.standard_normal(DRAW_BLOCK).tolist()
            pos = 0
        pos += n
        return draws[pos - n:pos]

    def observe(q, w, qti, wt):
        nonlocal bias, q_hat, b_hat
        # sensor sample: q_m = q (x) qtilde_m^-1, omega_m = omega + b + eta_u
        z, ax, ay, az = take(4)
        norm = math.sqrt(ax * ax + ay * ay + az * az)
        while norm < 1e-12:
            ax, ay, az = take(3)
            norm = math.sqrt(ax * ax + ay * ay + az * az)
        half = 0.5 * (sigma_theta * z)
        sh = math.sin(half)
        qt = (math.cos(half), sh * (ax / norm), sh * (ay / norm), sh * (az / norm))
        n = math.sqrt(qt[0] * qt[0] + qt[1] * qt[1] + qt[2] * qt[2] + qt[3] * qt[3])
        qm = _qmul(q, (qt[0] / n, -qt[1] / n, -qt[2] / n, -qt[3] / n))
        ux, uy, uz, vx, vy, vz = take(6)
        mx = w[0] + bias[0] + sigma_u * ux
        my = w[1] + bias[1] + sigma_u * uy
        mz = w[2] + bias[2] + sigma_u * uz
        bias = (bias[0] + walk * vx, bias[1] + walk * vy, bias[2] + walk * vz)

        # complementary filter with gyro-bias estimation
        if q_hat is None:
            q_hat = qm
        h0, h1, h2, h3 = q_hat
        r0, r1, r2, r3 = _qmul((h0, -h1, -h2, -h3), qm)
        sgn = -1.0 if r0 < 0 else 1.0
        ko, kb = k_o * sgn, k_b * sgn
        bx, by, bz = b_hat
        wc = ((mx - bx) + ko * r1, (my - by) + ko * r2, (mz - bz) + ko * r3)
        q_hat = kinematics_rk4(q_hat, wc, wc, wc, dt)
        b_hat = (bx - kb * r1 * dt, by - kb * r2 * dt, bz - kb * r3 * dt)
        return q_hat, (mx - b_hat[0], my - b_hat[1], mz - b_hat[2])

    return observe
