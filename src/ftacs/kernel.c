/* The closed loop of one instance, compiled, and the writer of its CSV.

   kernel.py builds this file into a shared library the first time a
   simulation needs it and calls its three functions through ctypes:
   ftacs_reference_attitude fills the reference attitude of a step table,
   ftacs_closed_loop runs every step of an instance over that table, and
   ftacs_format_rows writes rows of doubles as the text of a trace CSV.

   Every expression keeps the operation order of the float kernel it
   replaced, on IEEE doubles, so the results are bit for bit those of the
   same arithmetic on Python floats. That holds only under the build
   command in kernel.py: -ffp-contract=off keeps a * b + c from becoming one
   fused multiply-add, and no -ffast-math lets the compiler reassociate.
   sqrt and acos are libm's, which CPython's math module calls too.

   Quaternions are scalar-first with the Hamilton product, and every product
   is renormalized. The rotation matrix is R(q) = I - 2*q0*qv^x + 2*qv^x*qv^x,
   so R(q_e) maps desired-frame vectors into the body frame. tests/reference.py
   defines the same math on numpy arrays, one function per equation.

   ftacs_format_rows forms the 17 digits of most values exactly in integer
   arithmetic on unsigned __int128, an extension of GCC and Clang. */

#include <math.h>
#include <stdint.h>
#include <stdio.h>
#include <string.h>

/* CPython's math.degrees(x) is x * (180.0 / Py_MATH_PI) */
static const double RAD_TO_DEG = 180.0 / 3.14159265358979323846;

/* Offsets into par, the instance's constants, as kernel.closed_loop packs
   them: matrices are row-major. */
enum {
    P_K = 0,          /* the error gain k */
    P_KM = 1,         /* K, 9 */
    P_JHAT = 10,      /* J_hat, 9 */
    P_TDHAT = 19,     /* tau_d_hat, 3 */
    P_A0 = 22,        /* robust coefficients a0, a1 */
    P_A1 = 23,
    P_GAMMA = 24,
    P_EPS = 25,
    P_TAU_MAX = 26,
    P_J = 27,         /* the true inertia J, 9 */
    P_JINV = 36,      /* its inverse, 9 */
    P_DT = 45,
    P_KO = 46,        /* bias observer gains */
    P_KB = 47,
};

/* Observers, as kernel.OBSERVERS numbers them */
enum { PERFECT = 0, SYNTHETIC = 1, BIAS = 2 };

/* RK4 step of the quaternion kinematics qdot = 0.5*[-qv.w; q0*w + qv x w]
   with the rate w1 at the start, w2 at the midpoint (stages 2 and 3) and w4
   at the end; q is renormalized in place. */
static void kinematics_rk4(double q[4], const double *w1, const double *w2, const double *w4,
                           double dt)
{
    double h = 0.5 * dt;
    double q0 = q[0], q1 = q[1], q2 = q[2], q3 = q[3];
    double wx = w1[0], wy = w1[1], wz = w1[2];
    double a0 = -0.5 * (q1 * wx + q2 * wy + q3 * wz);
    double a1 = 0.5 * (q0 * wx + q2 * wz - q3 * wy);
    double a2 = 0.5 * (q0 * wy + q3 * wx - q1 * wz);
    double a3 = 0.5 * (q0 * wz + q1 * wy - q2 * wx);
    wx = w2[0], wy = w2[1], wz = w2[2];
    double r0 = q0 + h * a0, r1 = q1 + h * a1, r2 = q2 + h * a2, r3 = q3 + h * a3;
    double b0 = -0.5 * (r1 * wx + r2 * wy + r3 * wz);
    double b1 = 0.5 * (r0 * wx + r2 * wz - r3 * wy);
    double b2 = 0.5 * (r0 * wy + r3 * wx - r1 * wz);
    double b3 = 0.5 * (r0 * wz + r1 * wy - r2 * wx);
    r0 = q0 + h * b0, r1 = q1 + h * b1, r2 = q2 + h * b2, r3 = q3 + h * b3;
    double c0 = -0.5 * (r1 * wx + r2 * wy + r3 * wz);
    double c1 = 0.5 * (r0 * wx + r2 * wz - r3 * wy);
    double c2 = 0.5 * (r0 * wy + r3 * wx - r1 * wz);
    double c3 = 0.5 * (r0 * wz + r1 * wy - r2 * wx);
    wx = w4[0], wy = w4[1], wz = w4[2];
    r0 = q0 + dt * c0, r1 = q1 + dt * c1, r2 = q2 + dt * c2, r3 = q3 + dt * c3;
    double d0 = -0.5 * (r1 * wx + r2 * wy + r3 * wz);
    double d1 = 0.5 * (r0 * wx + r2 * wz - r3 * wy);
    double d2 = 0.5 * (r0 * wy + r3 * wx - r1 * wz);
    double d3 = 0.5 * (r0 * wz + r1 * wy - r2 * wx);
    double c = dt / 6.0;
    double p0 = q0 + c * (a0 + 2.0 * b0 + 2.0 * c0 + d0);
    double p1 = q1 + c * (a1 + 2.0 * b1 + 2.0 * c1 + d1);
    double p2 = q2 + c * (a2 + 2.0 * b2 + 2.0 * c2 + d2);
    double p3 = q3 + c * (a3 + 2.0 * b3 + 2.0 * c3 + d3);
    double n = sqrt(p0 * p0 + p1 * p1 + p2 * p2 + p3 * p3);
    q[0] = p0 / n, q[1] = p1 / n, q[2] = p2 / n, q[3] = p3 / n;
}

/* The rigid body's rates at x = (q, omega) under the torque (tx, ty, tz):
   qdot into f[0:4] and omega_dot into f[4:7]. M is the true inertia J and I
   its inverse, both row-major. */
static void rates(const double *M, const double *I, const double x[7], double tx, double ty,
                  double tz, double f[7])
{
    const double q0 = x[0], q1 = x[1], q2 = x[2], q3 = x[3], wx = x[4], wy = x[5], wz = x[6];
    /* omega_dot = J^-1 (tau - omega x J omega) */
    const double jx = M[0] * wx + M[1] * wy + M[2] * wz;
    const double jy = M[3] * wx + M[4] * wy + M[5] * wz;
    const double jz = M[6] * wx + M[7] * wy + M[8] * wz;
    const double fx = tx - (wy * jz - wz * jy);
    const double fy = ty - (wz * jx - wx * jz);
    const double fz = tz - (wx * jy - wy * jx);
    /* qdot = 0.5*[-qv.w; q0*w + qv x w] */
    f[0] = -0.5 * (q1 * wx + q2 * wy + q3 * wz);
    f[1] = 0.5 * (q0 * wx + q2 * wz - q3 * wy);
    f[2] = 0.5 * (q0 * wy + q3 * wx - q1 * wz);
    f[3] = 0.5 * (q0 * wz + q1 * wy - q2 * wx);
    f[4] = I[0] * fx + I[1] * fy + I[2] * fz;
    f[5] = I[3] * fx + I[4] * fy + I[5] * fz;
    f[6] = I[6] * fx + I[7] * fy + I[8] * fz;
}

/* The reference attitude of every step: table[i, 1:5] is qd at step i,
   starting from qd0 and advanced by kinematics_rk4 through omega_d at the
   step start (table[i, 5:8]), w_mid at its midpoint and w_end at its end,
   both (n, 3). table has n rows of ncols columns. */
void ftacs_reference_attitude(const double *qd0, double *table, int64_t ncols, int64_t n,
                              const double *w_mid, const double *w_end, double dt)
{
    double q[4] = {qd0[0], qd0[1], qd0[2], qd0[3]};
    for (int64_t i = 0; i < n; i++) {
        double *row = table + i * ncols;
        row[1] = q[0], row[2] = q[1], row[3] = q[2], row[4] = q[3];
        kinematics_rk4(q, row + 5, w_mid + 3 * i, w_end + 3 * i, dt);
    }
}

/* Run the n steps of table from the state (q, omega) in state[0:7], which
   holds the final state on return. A step observes the state, applies the
   control law to the estimates, realizes D*E*tau_u + tau_d through the m
   thruster pairs and takes RK4 of the rigid body, q renormalized once.

   table has n rows of ncols columns: t, qd (4), omega_d (3), omega_d_dot
   (3), tau_d (3), the true health (m), then a synthetic observer's
   qtilde^-1 (4) and omega_tilde (3). Step i allocates through the (m, 3)
   matrix alloc[alloc_index[i]]; pairs (m, 3) holds each pair's torque
   direction. The bias observer reads its sensor noise from noise, 10
   floats per step: qtilde_m^-1 (4), the gyro bias (3) and sigma_u * eta_u
   (3).

   Every dec-th step from the first writes the row (t, qe, omega_e, s,
   s_hat, theta_e_deg, tau_u, |qtilde_v|, |omega_tilde|) of 17 + m floats
   into rec, one row after another. Returns -1, or the first step whose new
   state is not finite, where the run stops. */
int64_t ftacs_closed_loop(const double *par, const double *pairs, int64_t m,
                          const double *table, int64_t ncols, int64_t n,
                          const double *alloc, const int64_t *alloc_index,
                          int64_t observer, const double *noise,
                          double *state, double *rec, int64_t dec)
{
    const double k = par[P_K];
    const double *K = par + P_KM, *Jh = par + P_JHAT, *M = par + P_J, *I = par + P_JINV;
    const double tdx = par[P_TDHAT], tdy = par[P_TDHAT + 1], tdz = par[P_TDHAT + 2];
    const double rob0 = par[P_A0], rob1 = par[P_A1], gamma = par[P_GAMMA], eps = par[P_EPS];
    const double tau_max = par[P_TAU_MAX], dt = par[P_DT];
    const double c_qq = -0.5 * k * k;
    const double c_g = 0.5 * k;
    const double h = 0.5 * dt;
    const double c = dt / 6.0;
    const int64_t width = 17 + m;

    double q0 = state[0], q1 = state[1], q2 = state[2], q3 = state[3];
    double wx = state[4], wy = state[5], wz = state[6];
    /* the bias observer's estimates; the first is the first measurement */
    double qhat[4] = {0.0, 0.0, 0.0, 0.0}, bhx = 0.0, bhy = 0.0, bhz = 0.0;

    for (int64_t i = 0; i < n; i++) {
        const double *row = table + i * ncols;
        const double t = row[0];
        const double d0 = row[1], d1 = row[2], d2 = row[3], d3 = row[4];
        const double vx = row[5], vy = row[6], vz = row[7];
        const double vdx = row[8], vdy = row[9], vdz = row[10];
        const double taux = row[11], tauy = row[12], tauz = row[13];
        const double *health = row + 14, *errors = row + 14 + m;
        double *out = i % dec == 0 ? rec + i / dec * width : 0;
        double h0, h1, h2, h3, whx, why, whz;
        double e0, e1, e2, e3, n2, cx, cy, cz;

        if (observer == SYNTHETIC) {
            /* q (x) qtilde^-1 and omega + omega_tilde */
            const double b0 = errors[0], b1 = errors[1], b2 = errors[2], b3 = errors[3];
            double p0 = q0 * b0 - q1 * b1 - q2 * b2 - q3 * b3;
            double p1 = q0 * b1 + b0 * q1 + q2 * b3 - q3 * b2;
            double p2 = q0 * b2 + b0 * q2 + q3 * b1 - q1 * b3;
            double p3 = q0 * b3 + b0 * q3 + q1 * b2 - q2 * b1;
            n2 = sqrt(p0 * p0 + p1 * p1 + p2 * p2 + p3 * p3);
            h0 = p0 / n2, h1 = p1 / n2, h2 = p2 / n2, h3 = p3 / n2;
            whx = wx + errors[4], why = wy + errors[5], whz = wz + errors[6];
        } else if (observer == BIAS) {
            /* sensor sample: q_m = _qmul(q, qtilde_m^-1), omega_m = (omega + b) + sigma_u * eta_u */
            const double *s = noise + 10 * i;
            const double s0 = s[0], s1 = s[1], s2 = s[2], s3 = s[3];
            double p0 = q0 * s0 - q1 * s1 - q2 * s2 - q3 * s3;
            double p1 = q0 * s1 + s0 * q1 + q2 * s3 - q3 * s2;
            double p2 = q0 * s2 + s0 * q2 + q3 * s1 - q1 * s3;
            double p3 = q0 * s3 + s0 * q3 + q1 * s2 - q2 * s1;
            n2 = sqrt(p0 * p0 + p1 * p1 + p2 * p2 + p3 * p3);
            const double m0 = p0 / n2, m1 = p1 / n2, m2 = p2 / n2, m3 = p3 / n2;
            const double mx = wx + s[4] + s[7];
            const double my = wy + s[5] + s[8];
            const double mz = wz + s[6] + s[9];
            /* complementary filter with gyro-bias estimation */
            if (i == 0)
                qhat[0] = m0, qhat[1] = m1, qhat[2] = m2, qhat[3] = m3;
            const double g0 = qhat[0], g1 = qhat[1], g2 = qhat[2], g3 = qhat[3];
            /* r = _qmul(q_hat^-1, q_m) */
            double r0 = g0 * m0 + g1 * m1 + g2 * m2 + g3 * m3;
            double r1 = g0 * m1 - m0 * g1 - g2 * m3 + g3 * m2;
            double r2 = g0 * m2 - m0 * g2 - g3 * m1 + g1 * m3;
            double r3 = g0 * m3 - m0 * g3 - g1 * m2 + g2 * m1;
            n2 = sqrt(r0 * r0 + r1 * r1 + r2 * r2 + r3 * r3);
            r1 = r1 / n2, r2 = r2 / n2, r3 = r3 / n2;
            const double sgn = r0 / n2 < 0 ? -1.0 : 1.0;
            const double ko = par[P_KO] * sgn, kb = par[P_KB] * sgn;
            const double wc[3] = {(mx - bhx) + ko * r1, (my - bhy) + ko * r2,
                                  (mz - bhz) + ko * r3};
            kinematics_rk4(qhat, wc, wc, wc, dt);
            bhx = bhx - kb * r1 * dt, bhy = bhy - kb * r2 * dt, bhz = bhz - kb * r3 * dt;
            h0 = qhat[0], h1 = qhat[1], h2 = qhat[2], h3 = qhat[3];
            whx = mx - bhx, why = my - bhy, whz = mz - bhz;
        } else {
            h0 = q0, h1 = q1, h2 = q2, h3 = q3;
            whx = wx, why = wy, whz = wz;
        }

        /* estimated error coordinates: qe = _qmul(qd^-1, q_hat) */
        e0 = d0 * h0 + d1 * h1 + d2 * h2 + d3 * h3;
        e1 = d0 * h1 - h0 * d1 - d2 * h3 + d3 * h2;
        e2 = d0 * h2 - h0 * d2 - d3 * h1 + d1 * h3;
        e3 = d0 * h3 - h0 * d3 - d1 * h2 + d2 * h1;
        n2 = sqrt(e0 * e0 + e1 * e1 + e2 * e2 + e3 * e3);
        e0 = e0 / n2, e1 = e1 / n2, e2 = e2 / n2, e3 = e3 / n2;
        /* omega_bar_hat_d = _rotate(qe, omega_d) */
        double e0x2 = 2.0 * e0;
        cx = e2 * vz - e3 * vy;
        cy = e3 * vx - e1 * vz;
        cz = e1 * vy - e2 * vx;
        const double bx = vx - e0x2 * cx + 2.0 * (e2 * cz - e3 * cy);
        const double by = vy - e0x2 * cy + 2.0 * (e3 * cx - e1 * cz);
        const double bz = vz - e0x2 * cz + 2.0 * (e1 * cy - e2 * cx);
        const double ox = whx - bx, oy = why - by, oz = whz - bz;      /* omega_hat_e */
        const double sx = ox + k * e1, sy = oy + k * e2, sz = oz + k * e3; /* s_hat */

        /* feedforward psi_hat = -k^2/2 qv x J qv + k/2 G(q) J omega_hat_e - k xi_d qv,
           with G(q) x = q0 x + qv x x and xi_d qv = (J wb) x qv - wb x J qv - J (wb x qv) */
        const double jqx = Jh[0] * e1 + Jh[1] * e2 + Jh[2] * e3;
        const double jqy = Jh[3] * e1 + Jh[4] * e2 + Jh[5] * e3;
        const double jqz = Jh[6] * e1 + Jh[7] * e2 + Jh[8] * e3;
        const double jbx = Jh[0] * bx + Jh[1] * by + Jh[2] * bz;
        const double jby = Jh[3] * bx + Jh[4] * by + Jh[5] * bz;
        const double jbz = Jh[6] * bx + Jh[7] * by + Jh[8] * bz;
        const double jox = Jh[0] * ox + Jh[1] * oy + Jh[2] * oz;
        const double joy = Jh[3] * ox + Jh[4] * oy + Jh[5] * oz;
        const double joz = Jh[6] * ox + Jh[7] * oy + Jh[8] * oz;
        cx = by * e3 - bz * e2, cy = bz * e1 - bx * e3, cz = bx * e2 - by * e1; /* wb x qv */
        const double xi_x = (jby * e3 - jbz * e2) - (by * jqz - bz * jqy)
                            - (Jh[0] * cx + Jh[1] * cy + Jh[2] * cz);
        const double xi_y = (jbz * e1 - jbx * e3) - (bz * jqx - bx * jqz)
                            - (Jh[3] * cx + Jh[4] * cy + Jh[5] * cz);
        const double xi_z = (jbx * e2 - jby * e1) - (bx * jqy - by * jqx)
                            - (Jh[6] * cx + Jh[7] * cy + Jh[8] * cz);
        const double px = c_qq * (e2 * jqz - e3 * jqy) + c_g * (e0 * jox + (e2 * joz - e3 * joy))
                          - k * xi_x;
        const double py = c_qq * (e3 * jqx - e1 * jqz) + c_g * (e0 * joy + (e3 * jox - e1 * joz))
                          - k * xi_y;
        const double pz = c_qq * (e1 * jqy - e2 * jqx) + c_g * (e0 * joz + (e1 * joy - e2 * jox))
                          - k * xi_z;
        /* psi_hat_d = wb x J wb + J R(q) omega_d_dot, with R(q) omega_d_dot = _rotate(qe, wdd) */
        cx = e2 * vdz - e3 * vdy;
        cy = e3 * vdx - e1 * vdz;
        cz = e1 * vdy - e2 * vdx;
        const double ax = vdx - e0x2 * cx + 2.0 * (e2 * cz - e3 * cy);
        const double ay = vdy - e0x2 * cy + 2.0 * (e3 * cx - e1 * cz);
        const double az = vdz - e0x2 * cz + 2.0 * (e1 * cy - e2 * cx);
        const double pdx = (by * jbz - bz * jby) + (Jh[0] * ax + Jh[1] * ay + Jh[2] * az);
        const double pdy = (bz * jbx - bx * jbz) + (Jh[3] * ax + Jh[4] * ay + Jh[5] * az);
        const double pdz = (bx * jby - by * jbx) + (Jh[6] * ax + Jh[7] * ay + Jh[8] * az);

        /* boundary-layer robust term */
        const double mag = rob1 * (sqrt(e1 * e1 + e2 * e2 + e3 * e3) + gamma) + rob0;
        const double s_norm = sqrt(sx * sx + sy * sy + sz * sz);
        const double g = s_norm >= eps ? -(mag / s_norm) : -(mag / eps);

        /* u = -K s_hat + u_s + psi_hat_d - psi_hat - tau_d_hat */
        const double ux = -(K[0] * sx + K[1] * sy + K[2] * sz) + g * sx + pdx - px - tdx;
        const double uy = -(K[3] * sx + K[4] * sy + K[5] * sz) + g * sy + pdy - py - tdy;
        const double uz = -(K[6] * sx + K[7] * sy + K[8] * sz) + g * sz + pdz - pz - tdz;
        /* each pair's saturated command and its realized torque D * E * tau_u */
        const double *A = alloc + alloc_index[i] * 3 * m;
        double tx = 0.0, ty = 0.0, tz = 0.0;
        for (int64_t j = 0; j < m; j++) {
            const double r = A[3 * j] * ux + A[3 * j + 1] * uy + A[3 * j + 2] * uz;
            const double tj = r > tau_max ? tau_max : r < -tau_max ? -tau_max : r;
            const double p = health[j] * tj;
            tx += pairs[3 * j] * p;
            ty += pairs[3 * j + 1] * p;
            tz += pairs[3 * j + 2] * p;
            if (out)
                out[15 + j] = tj;
        }

        if (out) {
            /* true errors: qe = _qmul(qd^-1, q), omega_bar_d = _rotate(qe, omega_d) */
            e0 = d0 * q0 + d1 * q1 + d2 * q2 + d3 * q3;
            e1 = d0 * q1 - q0 * d1 - d2 * q3 + d3 * q2;
            e2 = d0 * q2 - q0 * d2 - d3 * q1 + d1 * q3;
            e3 = d0 * q3 - q0 * d3 - d1 * q2 + d2 * q1;
            n2 = sqrt(e0 * e0 + e1 * e1 + e2 * e2 + e3 * e3);
            e0 = e0 / n2, e1 = e1 / n2, e2 = e2 / n2, e3 = e3 / n2;
            e0x2 = 2.0 * e0;
            cx = e2 * vz - e3 * vy;
            cy = e3 * vx - e1 * vz;
            cz = e1 * vy - e2 * vx;
            const double tbx = vx - e0x2 * cx + 2.0 * (e2 * cz - e3 * cy);
            const double tby = vy - e0x2 * cy + 2.0 * (e3 * cx - e1 * cz);
            const double tbz = vz - e0x2 * cz + 2.0 * (e1 * cy - e2 * cx);
            const double tox = wx - tbx, toy = wy - tby, toz = wz - tbz;
            /* observer errors: qtilde = _qmul(q_hat^-1, q), of which the vector
               part is recorded, and omega_hat - omega */
            const double t0 = h0 * q0 + h1 * q1 + h2 * q2 + h3 * q3;
            double t1 = h0 * q1 - q0 * h1 - h2 * q3 + h3 * q2;
            double t2 = h0 * q2 - q0 * h2 - h3 * q1 + h1 * q3;
            double t3 = h0 * q3 - q0 * h3 - h1 * q2 + h2 * q1;
            n2 = sqrt(t0 * t0 + t1 * t1 + t2 * t2 + t3 * t3);
            t1 = t1 / n2, t2 = t2 / n2, t3 = t3 / n2;
            const double fx = whx - wx, fy = why - wy, fz = whz - wz;
            /* Python's min(abs(e0), 1.0) is abs(e0) unless 1.0 < abs(e0), NaN included */
            const double a = fabs(e0);
            out[0] = t;
            out[1] = e0, out[2] = e1, out[3] = e2, out[4] = e3;
            out[5] = tox, out[6] = toy, out[7] = toz;
            out[8] = tox + k * e1, out[9] = toy + k * e2, out[10] = toz + k * e3;
            out[11] = sx, out[12] = sy, out[13] = sz;
            out[14] = 2.0 * acos(1.0 < a ? 1.0 : a) * RAD_TO_DEG;
            out[15 + m] = sqrt(t1 * t1 + t2 * t2 + t3 * t3);
            out[16 + m] = sqrt(fx * fx + fy * fy + fz * fz);
        }

        /* RK4 of the rigid body under tau_c + tau_d held over the step */
        tx = tx + taux, ty = ty + tauy, tz = tz + tauz;
        double a[7], b[7], mid[7], d[7];
        rates(M, I, (const double[7]){q0, q1, q2, q3, wx, wy, wz}, tx, ty, tz, a);
        rates(M, I, (const double[7]){q0 + h * a[0], q1 + h * a[1], q2 + h * a[2], q3 + h * a[3],
                                      wx + h * a[4], wy + h * a[5], wz + h * a[6]},
              tx, ty, tz, b);
        rates(M, I, (const double[7]){q0 + h * b[0], q1 + h * b[1], q2 + h * b[2], q3 + h * b[3],
                                      wx + h * b[4], wy + h * b[5], wz + h * b[6]},
              tx, ty, tz, mid);
        rates(M, I, (const double[7]){q0 + dt * mid[0], q1 + dt * mid[1], q2 + dt * mid[2],
                                      q3 + dt * mid[3], wx + dt * mid[4], wy + dt * mid[5],
                                      wz + dt * mid[6]},
              tx, ty, tz, d);
        const double p0 = q0 + c * (a[0] + 2 * b[0] + 2 * mid[0] + d[0]);
        const double p1 = q1 + c * (a[1] + 2 * b[1] + 2 * mid[1] + d[1]);
        const double p2 = q2 + c * (a[2] + 2 * b[2] + 2 * mid[2] + d[2]);
        const double p3 = q3 + c * (a[3] + 2 * b[3] + 2 * mid[3] + d[3]);
        wx = wx + c * (a[4] + 2 * b[4] + 2 * mid[4] + d[4]);
        wy = wy + c * (a[5] + 2 * b[5] + 2 * mid[5] + d[5]);
        wz = wz + c * (a[6] + 2 * b[6] + 2 * mid[6] + d[6]);
        n2 = sqrt(p0 * p0 + p1 * p1 + p2 * p2 + p3 * p3);
        /* x - x is 0.0 for every finite x and NaN otherwise */
        if ((n2 - n2) + (wx - wx) + (wy - wy) + (wz - wz) != 0.0)
            return i;
        q0 = p0 / n2, q1 = p1 / n2, q2 = p2 / n2, q3 = p3 / n2;
    }
    state[0] = q0, state[1] = q1, state[2] = q2, state[3] = q3;
    state[4] = wx, state[5] = wy, state[6] = wz;
    return -1;
}

/* The most bytes one value takes as %.17g, "-1.2345678901234567e-308", and
   its separator; kernel.VALUE_BYTES is the same number. */
enum { VALUE_BYTES = 25 };

typedef unsigned __int128 u128;

static const uint64_t POW10[20] = {
    1u, 10u, 100u, 1000u, 10000u, 100000u, 1000000u, 10000000u, 100000000u,
    1000000000u, 10000000000u, 100000000000u, 1000000000000u, 10000000000000u,
    100000000000000u, 1000000000000000u, 10000000000000000u, 100000000000000000u,
    1000000000000000000u, 10000000000000000000u,
};

/* 10^k for k in [0, 38], all below 2^128 */
static u128 pow10_128(int k)
{
    return k < 20 ? (u128)POW10[k] : (u128)POW10[19] * POW10[k - 19];
}

/* floor(m * 2^e * 10^k) for m < 2^53, 2^e * 10^k small enough that it is
   below 2^64, and k in [0, 38]; *round_up tells whether that integer rounds
   up to nearest, ties to even, on the exact remainder. The product m * 10^k
   is formed in three 64-bit limbs r, least significant first, below 2^180. */
static uint64_t scaled(uint64_t m, int e, int k, int *round_up)
{
    const u128 p = pow10_128(k);
    if (e >= 0) {  /* an integer already: m * 10^k * 2^e */
        *round_up = 0;
        return (uint64_t)((m * p) << e);
    }
    const u128 lo = (u128)m * (uint64_t)p, hi = (u128)m * (uint64_t)(p >> 64);
    const u128 mid = (lo >> 64) + (uint64_t)hi;
    const uint64_t r[3] = {(uint64_t)lo, (uint64_t)mid, (uint64_t)(hi >> 64) + (uint64_t)(mid >> 64)};
    /* the quotient r >> s, the half bit s - 1 and whether any bit below it is set */
    const int s = -e, w = s / 64, b = s % 64;
    uint64_t q = r[w] >> b;
    if (b && w < 2)
        q |= r[w + 1] << (64 - b);
    const int hw = (s - 1) / 64, hb = (s - 1) % 64;
    const int half = (int)((r[hw] >> hb) & 1);
    int below = (r[hw] & (((uint64_t)1 << hb) - 1)) != 0;
    for (int i = 0; i < hw; i++)
        below |= r[i] != 0;
    *round_up = half && (below || (q & 1));
    return q;
}

/* Write x as "%.17g" formats it into out, which holds VALUE_BYTES bytes, and
   return the number of bytes: the digits are those of Python's "%.17g" % x,
   which rounds the exact value to nearest, ties to even, and NaN is "nan"
   whatever its sign bit, as Python writes it. */
static int format_g17(double x, char *out)
{
    uint64_t bits;
    memcpy(&bits, &x, sizeof bits);
    const int neg = (int)(bits >> 63), biased = (int)((bits >> 52) & 0x7ff);
    const uint64_t frac = bits & (((uint64_t)1 << 52) - 1);
    char *p = out;
    if (biased == 0x7ff) {
        if (frac) {
            memcpy(out, "nan", 3);
            return 3;
        }
        if (neg)
            *p++ = '-';
        memcpy(p, "inf", 3);
        return (int)(p - out) + 3;
    }
    if (biased == 0 && frac == 0) {
        if (neg)
            *p++ = '-';
        *p++ = '0';
        return (int)(p - out);
    }
    /* x = m * 2^e and 10^E0 <= |x| < 10^(E0 + 2), so the power of 10 of its
       first digit, E, is E0 or E0 + 1 */
    const int E0 = (int)floor((biased - 1023) * 0.30102999566398120);
    if (biased == 0 || E0 < -22 || E0 > 15)  /* subnormal, or 10^(16 - E0) not below 2^128 */
        return snprintf(out, VALUE_BYTES, "%.17g", x);
    const uint64_t m = frac | (uint64_t)1 << 52;
    const int e = biased - 1075;
    int E = E0, round_up;
    uint64_t N = scaled(m, e, 16 - E, &round_up);
    if (N >= POW10[17]) {  /* |x| >= 10^(E0 + 1) */
        E = E0 + 1;
        N = scaled(m, e, 16 - E, &round_up);
    }
    N += round_up;
    if (N == POW10[17]) {  /* rounded up to the next power of 10 */
        N = POW10[16];
        E++;
    }

    /* the 17 digits of N, then %g's layout without trailing zeros */
    char d[17];
    uint32_t hi = (uint32_t)(N / 100000000u), lo = (uint32_t)(N % 100000000u);
    for (int i = 16; i >= 9; i--, lo /= 10)
        d[i] = (char)('0' + lo % 10);
    for (int i = 8; i >= 0; i--, hi /= 10)
        d[i] = (char)('0' + hi % 10);
    int nd = 17;
    while (d[nd - 1] == '0')
        nd--;
    if (neg)
        *p++ = '-';
    if (E < -4 || E >= 17) {
        *p++ = d[0];
        if (nd > 1) {
            *p++ = '.';
            memcpy(p, d + 1, nd - 1);
            p += nd - 1;
        }
        *p++ = 'e';
        *p++ = E < 0 ? '-' : '+';
        const int a = E < 0 ? -E : E;  /* below 100 here */
        *p++ = (char)('0' + a / 10);
        *p++ = (char)('0' + a % 10);
    } else if (E >= 0) {
        memcpy(p, d, E + 1);
        p += E + 1;
        if (nd > E + 1) {
            *p++ = '.';
            memcpy(p, d + E + 1, nd - E - 1);
            p += nd - E - 1;
        }
    } else {
        *p++ = '0';
        *p++ = '.';
        for (int i = 0; i < -E - 1; i++)
            *p++ = '0';
        memcpy(p, d, nd);
        p += nd;
    }
    return (int)(p - out);
}

/* Write the n rows of cols doubles of data, row after row, into buf as
   np.savetxt(fmt="%.17g", delimiter=",") writes them: each value as
   format_g17 writes it, a comma between values and a newline after each
   row. Returns the number of bytes written, or -1 when they do not fit in
   the cap bytes of buf; nothing is written past buf + cap. */
int64_t ftacs_format_rows(const double *data, int64_t n, int64_t cols, char *buf, int64_t cap)
{
    int64_t pos = 0;
    char tmp[VALUE_BYTES];
    for (int64_t i = 0; i < n; i++) {
        for (int64_t j = 0; j < cols; j++) {
            const double x = data[i * cols + j];
            int len;
            if (cap - pos >= VALUE_BYTES) {
                len = format_g17(x, buf + pos);
            } else {
                len = format_g17(x, tmp);
                if (cap - pos < len + 1)
                    return -1;
                memcpy(buf + pos, tmp, len);
            }
            pos += len;
            buf[pos++] = j + 1 < cols ? ',' : '\n';
        }
    }
    return pos;
}
