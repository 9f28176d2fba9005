/* The closed loop of one instance, compiled, and the writer of its CSV.

   kernel.py builds this file into a shared library the first time a
   simulation needs it and calls its three functions through ctypes:
   ftacs_step_table writes the table of a scenario's signals and reference
   attitude, one row per step, ftacs_closed_loop runs every step of an
   instance over that table and forms its instance record, and
   ftacs_format_rows writes rows of doubles as the text of a trace CSV.

   Each operation on vectors and quaternions is written once, as one of the
   small helpers below, in the operand order and association of the float
   kernel it replaced: the product and the rotation in those of
   tests/reference.py's _qmul and _rotate. The results are bit for bit those
   of the same arithmetic on Python floats, up to the exact IEEE identities
   x - (-y) == x + y, -x + y == y - x and x * y == y * x. That holds only
   under the build command in kernel.py: -ffp-contract=off keeps a * b + c
   from becoming one fused multiply-add, and no -ffast-math lets the
   compiler reassociate. sqrt, acos, sin and cos are libm's. CPython's math
   module calls the same functions, and numpy's float64 sin and cos, through
   which the scenario's signal methods evaluate, give the same doubles
   wherever tests/test_harness.py holds the step table to those methods
   byte for byte.

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

/* Offsets into par, the instance's constants, as kernel.constants packs
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

/* The helpers are inlined wherever they are called: gcc at -O2 keeps a
   function that passes a struct as large as body out of line otherwise. */
#define INLINE static inline __attribute__((always_inline))

typedef struct { double x, y, z; } vec;
typedef struct { double w, x, y, z; } quat;  /* scalar first */
typedef struct { quat q; vec w; } body;      /* attitude and body rate */

INLINE vec load(const double *p) { return (vec){p[0], p[1], p[2]}; }
INLINE void store(double *p, vec a) { p[0] = a.x, p[1] = a.y, p[2] = a.z; }
INLINE vec add(vec a, vec b) { return (vec){a.x + b.x, a.y + b.y, a.z + b.z}; }
INLINE vec sub(vec a, vec b) { return (vec){a.x - b.x, a.y - b.y, a.z - b.z}; }
INLINE vec scale(double s, vec a) { return (vec){s * a.x, s * a.y, s * a.z}; }
INLINE double dot(vec a, vec b) { return a.x * b.x + a.y * b.y + a.z * b.z; }
INLINE double norm(vec a) { return sqrt(dot(a, a)); }
INLINE vec cross(vec a, vec b)
{
    return (vec){a.y * b.z - a.z * b.y, a.z * b.x - a.x * b.z, a.x * b.y - a.y * b.x};
}
/* M a for the row-major 3x3 matrix M */
INLINE vec matvec(const double *M, vec a)
{
    return (vec){dot(load(M), a), dot(load(M + 3), a), dot(load(M + 6), a)};
}

INLINE quat qload(const double *p) { return (quat){p[0], p[1], p[2], p[3]}; }
INLINE void qstore(double *p, quat a) { p[0] = a.w, p[1] = a.x, p[2] = a.y, p[3] = a.z; }
INLINE vec vpart(quat a) { return (vec){a.x, a.y, a.z}; }
INLINE quat qadd(quat a, quat b) { return (quat){a.w + b.w, a.x + b.x, a.y + b.y, a.z + b.z}; }
INLINE quat qscale(double s, quat a) { return (quat){s * a.w, s * a.x, s * a.y, s * a.z}; }
INLINE double qnorm(quat a) { return sqrt(a.w * a.w + a.x * a.x + a.y * a.y + a.z * a.z); }
INLINE quat qdiv(quat a, double n) { return (quat){a.w / n, a.x / n, a.y / n, a.z / n}; }
INLINE quat unit(quat a) { return qdiv(a, qnorm(a)); }

/* a (x) b, renormalized */
INLINE quat mul(quat a, quat b)
{
    return unit((quat){a.w * b.w - a.x * b.x - a.y * b.y - a.z * b.z,
                       a.w * b.x + b.w * a.x + a.y * b.z - a.z * b.y,
                       a.w * b.y + b.w * a.y + a.z * b.x - a.x * b.z,
                       a.w * b.z + b.w * a.z + a.x * b.y - a.y * b.x});
}

/* a^-1 (x) b for a unit a, renormalized */
INLINE quat conj_mul(quat a, quat b) { return mul((quat){a.w, -a.x, -a.y, -a.z}, b); }

/* R(q) v = v - 2*q0*(qv x v) + 2*qv x (qv x v) */
INLINE vec rotate(quat q, vec v)
{
    const vec c = cross(vpart(q), v);
    return add(sub(v, scale(2.0 * q.w, c)), scale(2.0, cross(vpart(q), c)));
}

/* the kinematics qdot = 0.5*[-qv.w; q0*w + qv x w] */
INLINE quat qdot(quat q, vec w)
{
    return (quat){-0.5 * dot(vpart(q), w), 0.5 * (q.w * w.x + q.y * w.z - q.z * w.y),
                  0.5 * (q.w * w.y + q.z * w.x - q.x * w.z),
                  0.5 * (q.w * w.z + q.x * w.y - q.y * w.x)};
}

/* The rigid body's rates at x under the torque tau: qdot, and
   omega_dot = J^-1 (tau - omega x J omega) with M = J and I its inverse. */
INLINE body rates(const double *M, const double *I, body x, vec tau)
{
    return (body){qdot(x.q, x.w), matvec(I, sub(tau, cross(x.w, matvec(M, x.w))))};
}

/* x + s * f, and the RK4 sum k1 + 2 k2 + 2 k3 + k4 */
INLINE body advance(body x, double s, body f)
{
    return (body){qadd(x.q, qscale(s, f.q)), add(x.w, scale(s, f.w))};
}
INLINE quat qrk4(quat k1, quat k2, quat k3, quat k4)
{
    return qadd(qadd(qadd(k1, qscale(2.0, k2)), qscale(2.0, k3)), k4);
}
INLINE body rk4(body k1, body k2, body k3, body k4)
{
    return (body){qrk4(k1.q, k2.q, k3.q, k4.q),
                  add(add(add(k1.w, scale(2.0, k2.w)), scale(2.0, k3.w)), k4.w)};
}

/* the larger of a running maximum m and x, NaN once either is NaN */
INLINE double running_max(double m, double x) { return x > m || x != x ? x : m; }

/* RK4 step of the kinematics with the rate w1 at the start, w2 at the
   midpoint (stages 2 and 3) and w4 at the end, renormalized. */
INLINE quat kinematics_rk4(quat q, vec w1, vec w2, vec w4, double dt)
{
    const quat k1 = qdot(q, w1);
    const quat k2 = qdot(qadd(q, qscale(0.5 * dt, k1)), w2);
    const quat k3 = qdot(qadd(q, qscale(0.5 * dt, k2)), w2);
    const quat k4 = qdot(qadd(q, qscale(dt, k3)), w4);
    return unit(qadd(q, qscale(dt / 6.0, qrk4(k1, k2, k3, k4))));
}

/* Signal kinds, as kernel.SIGNALS numbers them. A spec is the row (kind,
   offset, scale, freq, phase) of a SignalSpec. */
enum { CONST = 0, SIN = 1, COS = 2, ABS_SIN = 3 };

/* x, or 0.0 when 0.0 > x: np.maximum(0.0, x), which keeps -0.0 and NaN */
INLINE double at_least_0(double x) { return 0.0 > x ? 0.0 : x; }

/* np.clip(x, 0.0, 1.0): at_least_0, then the smaller of that and 1.0 */
INLINE double clip01(double x)
{
    const double a = at_least_0(x);
    return 1.0 < a ? 1.0 : a;
}

/* np.sign(x): 1.0, -1.0, 0.0 for either zero, and NaN for NaN */
INLINE double sign(double x) { return x > 0.0 ? 1.0 : x < 0.0 ? -1.0 : x == 0.0 ? 0.0 : x; }

/* The spec s at t, as SignalSpec.__call__ forms it: the offset plus the
   scaled sin, cos or |sin| of freq * t + phase, or for a constant offset +
   0.0, which turns -0.0 into 0.0 as offset + np.zeros_like(t) does. */
INLINE double signal(const double *s, double t)
{
    if (s[0] == CONST)
        return s[1] + 0.0;
    const double x = s[3] * t + s[4];
    return s[1] + s[2] * (s[0] == SIN ? sin(x) : s[0] == COS ? cos(x) : fabs(sin(x)));
}

/* its time derivative, as SignalSpec.derivative forms it */
INLINE double derivative(const double *s, double t)
{
    if (s[0] == CONST)
        return 0.0;
    const double x = s[3] * t + s[4];
    if (s[0] == SIN)
        return s[2] * s[3] * cos(x);
    if (s[0] == COS)
        return -s[2] * s[3] * sin(x);
    return s[2] * s[3] * sign(sin(x)) * cos(x);
}

/* the three specs from s, as VectorSignal evaluates them */
INLINE vec vsignal(const double *s, double t)
{
    return (vec){signal(s, t), signal(s + 5, t), signal(s + 10, t)};
}

/* Write the n rows of the step table, each of 14 + m columns, then 7 more
   when synthetic is nonzero: for step i at t = dt * i, t, qd (4), omega_d
   and omega_d_dot at t (3 each), tau_d at t + 0.5 * dt (3), the true health
   clipped to [0, 1] (m), and a synthetic observer's qtilde^-1 (4) and
   omega_tilde (3) at t. specs holds the specs of omega_d (3), tau_d (3) and
   the health (m), then, for a synthetic observer, the amplitude, freq and
   phase of qtilde's and omega_tilde's sine in the scale, freq and phase of
   two more rows. axes holds their directions, AXIS_Q and AXIS_W. qd starts
   at qd0 and is advanced by kinematics_rk4 through omega_d at t, t + 0.5 * dt
   and t + dt. Each value is formed by the expression, in its operand order,
   of the numpy method the scenario's signals define. */
void ftacs_step_table(const double *specs, int64_t m, int64_t synthetic, const double *axes,
                      const double *qd0, double dt, int64_t n, double *table)
{
    const double *wd_spec = specs, *td_spec = specs + 15, *health = specs + 30;
    const double *q_spec = health + 5 * m, *w_spec = q_spec + 5;
    const int64_t e = 14 + m, ncols = synthetic ? e + 7 : e;
    const double h = 0.5 * dt;
    quat q = qload(qd0);
    for (int64_t i = 0; i < n; i++) {
        double *row = table + i * ncols;
        const double t = dt * (double)i;
        const vec wd = vsignal(wd_spec, t);
        row[0] = t;
        qstore(row + 1, q);
        store(row + 5, wd);
        row[8] = derivative(wd_spec, t);
        row[9] = derivative(wd_spec + 5, t);
        row[10] = derivative(wd_spec + 10, t);
        store(row + 11, vsignal(td_spec, t + h));
        for (int64_t j = 0; j < m; j++)
            row[14 + j] = clip01(signal(health + 5 * j, t));
        if (synthetic) {
            /* qtilde = (sqrt(max(0, 1 - |v|^2)), v) with v = amp_q sin(.) AXIS_Q,
               inverted as qtilde * (1, -1, -1, -1), and omega_tilde = amp_w sin(.) AXIS_W */
            const double a = q_spec[2] * sin(q_spec[3] * t + q_spec[4]);
            const vec v = {a * axes[0], a * axes[1], a * axes[2]};
            row[e] = sqrt(at_least_0(1.0 - dot(v, v)));
            store(row + e + 1, scale(-1.0, v));
            const double b = w_spec[2] * sin(w_spec[3] * t + w_spec[4]);
            store(row + e + 4, (vec){b * axes[3], b * axes[4], b * axes[5]});
        }
        q = kinematics_rk4(q, wd, vsignal(wd_spec, t + h), vsignal(wd_spec, t + dt), dt);
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

   Every dec-th step from the first forms the recorded row (t, qe, omega_e,
   s, s_hat, theta_e_deg, tau_u, |qtilde_v|, |omega_tilde|) of 17 + m
   floats, and writes it into rec, one row after another, unless rec is
   NULL. stats receives the instance record of those rows: the maxima of
   theta_e_deg, |omega_e|, |qe_v|, |s|, |qtilde_v| and |omega_tilde| over
   the rows from row tail_start on, then each pair's max |tau_u,j| over
   every row, 6 + m floats. Each is taken of the doubles the row holds, and
   a NaN among them makes the maximum NaN, as numpy's max does. Returns -1,
   or the first step whose new state is not finite, where the run stops. */
int64_t ftacs_closed_loop(const double *par, const double *pairs, int64_t m,
                          const double *table, int64_t ncols, int64_t n,
                          const double *alloc, const int64_t *alloc_index,
                          int64_t observer, int64_t dec, int64_t tail_start,
                          const double *noise, double *state, double *rec, double *stats)
{
    const double k = par[P_K];
    const double *K = par + P_KM, *Jh = par + P_JHAT, *M = par + P_J, *I = par + P_JINV;
    const vec td = load(par + P_TDHAT);
    const double rob0 = par[P_A0], rob1 = par[P_A1], gamma = par[P_GAMMA], eps = par[P_EPS];
    const double tau_max = par[P_TAU_MAX], dt = par[P_DT];
    const double c_qq = -0.5 * k * k;
    const double c_g = 0.5 * k;
    const double h = 0.5 * dt;
    const double c = dt / 6.0;
    const int64_t width = 17 + m;
    const int64_t tail_step = tail_start * dec;
    double *peak = stats + 6;
    for (int64_t j = 0; j < 6 + m; j++)
        stats[j] = -INFINITY;

    body x = {qload(state), load(state + 4)};
    /* the bias observer's estimates; the first is the first measurement */
    quat qhat = {0.0, 0.0, 0.0, 0.0};
    vec bhat = {0.0, 0.0, 0.0};

    for (int64_t i = 0; i < n; i++) {
        const double *row = table + i * ncols;
        const quat qd = qload(row + 1);
        const vec wd = load(row + 5), wdd = load(row + 8), tau_d = load(row + 11);
        const double *health = row + 14, *errors = row + 14 + m;
        const int recorded = i % dec == 0;
        double *out = recorded && rec ? rec + i / dec * width : 0;
        quat qh;
        vec wh;

        if (observer == SYNTHETIC) {
            /* q (x) qtilde^-1 and omega + omega_tilde */
            qh = mul(x.q, qload(errors));
            wh = add(x.w, load(errors + 4));
        } else if (observer == BIAS) {
            /* sensor sample: q_m = q (x) qtilde_m^-1, omega_m = (omega + b) + sigma_u * eta_u */
            const double *sample = noise + 10 * i;
            const quat qm = mul(x.q, qload(sample));
            const vec wm = add(add(x.w, load(sample + 4)), load(sample + 7));
            /* complementary filter with gyro-bias estimation on r = q_hat^-1 (x) q_m */
            if (i == 0)
                qhat = qm;
            const quat r = conj_mul(qhat, qm);
            const double sgn = r.w < 0 ? -1.0 : 1.0;
            const double ko = par[P_KO] * sgn, kb = par[P_KB] * sgn;
            const vec wc = add(sub(wm, bhat), scale(ko, vpart(r)));
            qhat = kinematics_rk4(qhat, wc, wc, wc, dt);
            bhat = sub(bhat, scale(dt, scale(kb, vpart(r))));
            qh = qhat;
            wh = sub(wm, bhat);
        } else {
            qh = x.q;
            wh = x.w;
        }

        /* estimated error coordinates: qe = qd^-1 (x) q_hat, omega_bar_hat_d =
           R(qe) omega_d, omega_hat_e and s_hat */
        const quat e = conj_mul(qd, qh);
        const vec ev = vpart(e), wb = rotate(e, wd);
        const vec o = sub(wh, wb);
        const vec s = add(o, scale(k, ev));

        /* feedforward psi_hat = -k^2/2 qv x J qv + k/2 G(q) J omega_hat_e - k xi_d qv,
           with G(q) x = q0 x + qv x x and xi_d qv = (J wb) x qv - wb x J qv - J (wb x qv) */
        const vec jq = matvec(Jh, ev), jb = matvec(Jh, wb), jo = matvec(Jh, o);
        const vec xi = sub(sub(cross(jb, ev), cross(wb, jq)), matvec(Jh, cross(wb, ev)));
        const vec psi = sub(add(scale(c_qq, cross(ev, jq)),
                                scale(c_g, add(scale(e.w, jo), cross(ev, jo)))),
                            scale(k, xi));
        /* psi_hat_d = wb x J wb + J R(qe) omega_d_dot */
        const vec psi_d = add(cross(wb, jb), matvec(Jh, rotate(e, wdd)));

        /* boundary-layer robust term */
        const double mag = rob1 * (norm(ev) + gamma) + rob0;
        const double s_norm = norm(s);
        const double g = s_norm >= eps ? -(mag / s_norm) : -(mag / eps);

        /* u = -K s_hat + u_s + psi_hat_d - psi_hat - tau_d_hat */
        const vec u = sub(sub(add(sub(scale(g, s), matvec(K, s)), psi_d), psi), td);
        /* each pair's saturated command and its realized torque D * E * tau_u */
        const double *A = alloc + alloc_index[i] * 3 * m;
        vec tau = {0.0, 0.0, 0.0};
        for (int64_t j = 0; j < m; j++) {
            const double r = dot(load(A + 3 * j), u);
            const double tj = r > tau_max ? tau_max : r < -tau_max ? -tau_max : r;
            tau = add(tau, scale(health[j] * tj, load(pairs + 3 * j)));
            if (recorded)
                peak[j] = running_max(peak[j], fabs(tj));
            if (out)
                out[15 + j] = tj;
        }

        if (recorded) {
            /* true errors qe = qd^-1 (x) q, omega_e = omega - R(qe) omega_d
               and s; observer errors qtilde = q_hat^-1 (x) q, of which the
               vector part is recorded, and omega_hat - omega */
            const quat te = conj_mul(qd, x.q);
            const vec to = sub(x.w, rotate(te, wd));
            const vec ts = add(to, scale(k, vpart(te)));
            /* Python's min(abs(e0), 1.0) is abs(e0) unless 1.0 < abs(e0), NaN included */
            const double a = fabs(te.w);
            const double theta = 2.0 * acos(1.0 < a ? 1.0 : a) * RAD_TO_DEG;
            const double qt = norm(vpart(conj_mul(qh, x.q))), wt = norm(sub(wh, x.w));
            if (out) {
                out[0] = row[0];
                qstore(out + 1, te);
                store(out + 5, to);
                store(out + 8, ts);
                store(out + 11, s);
                out[14] = theta;
                out[15 + m] = qt;
                out[16 + m] = wt;
            }
            if (i >= tail_step) {
                stats[0] = running_max(stats[0], theta);
                stats[1] = running_max(stats[1], norm(to));
                stats[2] = running_max(stats[2], norm(vpart(te)));
                stats[3] = running_max(stats[3], norm(ts));
                stats[4] = running_max(stats[4], qt);
                stats[5] = running_max(stats[5], wt);
            }
        }

        /* RK4 of the rigid body under tau_c + tau_d held over the step */
        tau = add(tau, tau_d);
        const body k1 = rates(M, I, x, tau);
        const body k2 = rates(M, I, advance(x, h, k1), tau);
        const body k3 = rates(M, I, advance(x, h, k2), tau);
        const body k4 = rates(M, I, advance(x, dt, k3), tau);
        const body p = advance(x, c, rk4(k1, k2, k3, k4));
        const double n2 = qnorm(p.q);
        /* x - x is 0.0 for every finite x and NaN otherwise */
        if ((n2 - n2) + (p.w.x - p.w.x) + (p.w.y - p.w.y) + (p.w.z - p.w.z) != 0.0)
            return i;
        x = (body){qdiv(p.q, n2), p.w};
    }
    qstore(state, x.q);
    store(state + 4, x.w);
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
   below 2^64, and k in [0, 38]. *half receives the bit of weight 1/2 of the
   exact remainder and *below whether any bit under it is set. The product
   m * 10^k is formed in three 64-bit limbs r, least significant first, below
   2^181. */
static uint64_t scaled(uint64_t m, int e, int k, int *half, int *below)
{
    const u128 p = pow10_128(k);
    if (e >= 0) {  /* an integer already: m * 10^k * 2^e */
        *half = *below = 0;
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
    *half = (int)((r[hw] >> hb) & 1);
    *below = (r[hw] & (((uint64_t)1 << hb) - 1)) != 0;
    for (int i = 0; i < hw; i++)
        *below |= r[i] != 0;
    return q;
}

/* "00", "01", ..., "99": the two digits of each number below 100 */
static const char DIGIT_PAIRS[200] =
    "0001020304050607080910111213141516171819"
    "2021222324252627282930313233343536373839"
    "4041424344454647484950515253545556575859"
    "6061626364656667686970717273747576777879"
    "8081828384858687888990919293949596979899";

/* the 8 digits of v < 10^8, two at a time */
static void digits8(uint32_t v, char *d)
{
    const uint32_t a = v / 10000, b = v % 10000;
    memcpy(d, DIGIT_PAIRS + 2 * (a / 100), 2);
    memcpy(d + 2, DIGIT_PAIRS + 2 * (a % 100), 2);
    memcpy(d + 4, DIGIT_PAIRS + 2 * (b / 100), 2);
    memcpy(d + 6, DIGIT_PAIRS + 2 * (b % 100), 2);
}

/* Write x as "%.17g" formats it into out, which holds VALUE_BYTES bytes, and
   return the number of bytes: the digits are those of Python's "%.17g" % x,
   which rounds the exact value to nearest, ties to even, and NaN is "nan"
   whatever its sign bit, as Python writes it.

   x = m * 2^e with 2^(b - 1023) <= |x| < 2^(b - 1022) for its biased
   exponent b, so E0 = floor((b - 1023) * log10(2)) gives
   10^E0 <= |x| < 10^(E0 + 2): the power of 10 of x's first digit, E, is E0
   or E0 + 1. One product, N = floor(|x| * 10^(16 - E0)), holds 17 digits
   when E = E0 and 18 when E = E0 + 1; then N / 10 is the 17, and its last
   digit N % 10 with the exact remainder below N decides the rounding.
   ((b - 1023) * 78913) >> 18 is that floor for every b in [1, 2046].
   Subnormal values, and those whose 10^(16 - E0) is not an integer below
   2^128, E0 outside [-22, 15], go through snprintf. */
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
    const int E0 = ((biased - 1023) * 78913) >> 18;
    if (biased == 0 || E0 < -22 || E0 > 15)
        return snprintf(out, VALUE_BYTES, "%.17g", x);
    int E = E0, half, below;
    uint64_t N = scaled(frac | (uint64_t)1 << 52, biased - 1075, 16 - E0, &half, &below);
    if (N >= POW10[17]) {  /* |x| >= 10^(E0 + 1): drop the last digit */
        const unsigned last = (unsigned)(N % 10);
        N /= 10;
        E++;
        N += last > 5 || (last == 5 && (half || below || (N & 1)));
    } else {
        N += half && (below || (N & 1));
    }
    if (N == POW10[17]) {  /* rounded up to the next power of 10 */
        N = POW10[16];
        E++;
    }

    /* the 17 digits of N, then %g's layout without trailing zeros */
    char d[17];
    const uint64_t rest = N % POW10[16];
    d[0] = (char)('0' + N / POW10[16]);
    digits8((uint32_t)(rest / 100000000u), d + 1);
    digits8((uint32_t)(rest % 100000000u), d + 9);
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
        memcpy(p, DIGIT_PAIRS + 2 * (E < 0 ? -E : E), 2);  /* |E| is below 100 here */
        p += 2;
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
