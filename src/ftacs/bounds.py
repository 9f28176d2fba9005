"""Steady-state tracking-error bound prediction.

Implements the uncertainty-to-coefficient mapping (rho_0, rho_s, a0..a3,
b0..b3, kappa, kappa'), the quadratic comparison functions phi1/phi2, and the
two-stage fixed-point iteration that produces a strictly decreasing sequence
of ultimate bounds on ||s||, ||q_e,vec|| and ||omega_e||. The comparison
functions are built once per prediction at the slack y = 0, so that each
iteration evaluates one quadratic in x; a call at another slack rebuilds them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

from .config import ControllerGains, UncertaintyBudget
from .errors import GainConditionViolated, NotContractive

ETA = 1e-6  # stopping tolerance of both fixed-point loops on |q_i - q_{i-1}|


@dataclass
class RobustCoefficients:
    """Polynomial coefficients bounding the lumped uncertainty torque, with
    the rho_0 they were computed from."""

    rho_0: float
    a0: float
    a1: float
    a2: float
    a3: float


def rho_zero(rho_q: float) -> float:
    """Ultimate bound sqrt(2*(1 - sqrt(1 - rho_q^2))) on ||M|| and ||E||."""
    return math.sqrt(2.0 * (1.0 - math.sqrt(1.0 - rho_q * rho_q)))


def robust_coefficients(budget: UncertaintyBudget, k: float) -> RobustCoefficients:
    """a0..a3 such that ||tau_r|| <= a3*||s|| + a2*||q_e||^2 + a1*||q_e|| + a0."""
    rho_q, rho_w, rho_J, rho_v = budget.rho_q, budget.rho_w, budget.rho_J, budget.rho_v
    rho_a, jn = budget.rho_a, budget.J_hat_norm
    r0 = rho_zero(rho_q)
    a3 = 0.5 * k * (r0 * jn + rho_J)
    a2 = 0.5 * k * k * rho_J
    a1 = k * k * r0 * jn + k * a3 + 3.0 * k * rho_v * (rho_J + 2.0 * rho_q * jn)
    a0 = (
        0.5 * k * k * r0 * r0 * jn
        + 0.5 * k * (rho_w + 2.0 * rho_q * rho_v) * jn
        + 3.0 * k * rho_v * r0 * jn
        + 4.0 * rho_q * (rho_v * rho_v) * jn
        + 2.0 * rho_q * rho_a * jn
        + rho_J * (rho_v * rho_v)
        + rho_J * rho_a
        + budget.rho_d
    )
    return RobustCoefficients(r0, a0, a1, a2, a3)


@dataclass
class BoundCoefficients(RobustCoefficients):
    """All scalars feeding the fixed-point bound iteration: rho_s, b0..b3
    such that ||H*u|| <= rho_E*(b3*||s|| + b2*||q_e||^2 + b1*||q_e|| + b0),
    the eigenvalue extremes of K, and kappa, kappa'."""

    rho_s: float
    b0: float
    b1: float
    b2: float
    b3: float
    lambda_min_K: float
    lambda_max_K: float
    kappa: float
    kappa_prime: float


def _complete(budget: UncertaintyBudget, gains: ControllerGains,
              a: RobustCoefficients) -> BoundCoefficients:
    """The BoundCoefficients of the gains on top of their robust coefficients;
    compute_coefficients and check_gain_conditions both come here."""
    rho_q, rho_w, rho_v, jn = budget.rho_q, budget.rho_w, budget.rho_v, budget.J_hat_norm
    k, gam, eps = gains.k, gains.gamma, gains.epsilon
    lmin, lmax = gains.lambda_min_K, gains.lambda_max_K
    r0, a0, a1, a2, a3 = a.rho_0, a.a0, a.a1, a.a2, a.a3
    rs = rho_w + 2.0 * rho_q * rho_v + k * r0  # bound on the s-estimation error
    b3 = 0.5 * k * jn + lmax
    b2 = 0.5 * k * k * jn
    b1 = 2.0 * b2 * r0 + 0.5 * k * k * jn + 3.0 * k * rho_v * jn + a1
    b0 = (
        b2 * r0 * r0
        + 0.5 * k * (rho_w + 2.0 * rho_q * rho_v) * jn
        + 3.0 * k * rho_v * r0 * jn
        + lmax * rs
        + a1 * (r0 + gam)
        + a0
        + ((rho_v * rho_v) + budget.rho_a) * jn
        + budget.rho_d_hat
    )
    kappa = lmin - a3 - budget.rho_E * b3
    return BoundCoefficients(r0, a0, a1, a2, a3, rs, b0, b1, b2, b3, lmin, lmax,
                             kappa, kappa + (a1 * gam + a0) / eps)


def compute_coefficients(budget: UncertaintyBudget, gains: ControllerGains) -> BoundCoefficients:
    return _complete(budget, gains, robust_coefficients(budget, gains.k))


def epsilon_condition(gains: ControllerGains, coeffs: BoundCoefficients) -> bool:
    """epsilon > rho_s: check_gain_conditions reports it, predict() tests it."""
    return gains.epsilon > coeffs.rho_s


PhiFn = Callable[[float, float], float]


def phi_functions(
    coeffs: BoundCoefficients, gains: ControllerGains, budget: UncertaintyBudget,
    y: float = 0.0,
) -> tuple[PhiFn, PhiFn, PhiFn]:
    """The comparison quadratics phi1 (outside the boundary layer), phi2
    (inside), and their pointwise max phi_bar.

    y is the vanishing slack of the ultimate-bound limits, 0 in predictions.
    Every term that does not depend on x is computed here, at y, in the order
    the full expression computes it: a call evaluates one quadratic in x and
    gives the full expression's value bit for bit. A call whose second
    argument is another slack builds the functions again at that slack; the
    identity test first lets the rebuilt functions take a NaN slack as theirs.
    """
    c = coeffs
    rE = budget.rho_E
    eps = gains.epsilon
    lmax = c.lambda_max_K
    a0, a1, rs = c.a0, c.a1, c.rho_s
    rs_y = rs + y
    m = a1 * (gains.gamma + c.rho_0 + y) + a0
    quad = c.a2 + rE * c.b2
    rE_b1, rE_b0 = rE * c.b1, rE * c.b0
    two_eps = 2.0 / eps
    slope1 = two_eps * a1 * rs_y + rE_b1
    const1 = two_eps * rs_y * m
    tail1 = (2.0 + lmax + a1) * y
    offset1 = a1 * gains.gamma - a1 * c.rho_0 - lmax * rs
    slope2 = a1 * rs_y / eps + a1 + rE_b1
    const2 = rs_y / eps * m
    lmax_rs = lmax * rs_y
    tail2 = 2.0 * y

    def phi1(x: float, slack: float = y) -> float:
        if slack is not y and slack != y:
            return phi_functions(coeffs, gains, budget, slack)[0](x)
        return quad * x * x + slope1 * x + const1 + rE_b0 + tail1 - offset1

    def phi2(x: float, slack: float = y) -> float:
        if slack is not y and slack != y:
            return phi_functions(coeffs, gains, budget, slack)[1](x)
        return quad * x * x + slope2 * x + const2 + a0 + rE_b0 + lmax_rs + tail2

    def phi_bar(x: float, slack: float = y) -> float:
        # phi1 and phi2 inlined, sharing x*x; the comparison is the one
        # max(phi1, phi2) makes
        if slack is not y and slack != y:
            return phi_functions(coeffs, gains, budget, slack)[2](x)
        quad_xx = quad * x * x
        p1 = quad_xx + slope1 * x + const1 + rE_b0 + tail1 - offset1
        p2 = quad_xx + slope2 * x + const2 + a0 + rE_b0 + lmax_rs + tail2
        return p2 if p2 > p1 else p1

    return phi1, phi2, phi_bar


@dataclass
class BoundTrace:
    """Iteration history and converged limits of the bound prediction."""

    loop1: list[tuple[float, float]] = field(default_factory=list)
    loop2: list[tuple[float, float]] = field(default_factory=list)
    switch_index: int | None = None
    s_inf: float = math.nan
    q_inf: float = math.nan
    s_inf_prime: float | None = None
    q_inf_prime: float | None = None

    @property
    def total_iterations(self) -> int:
        return len(self.loop1) + len(self.loop2)

    @property
    def s_final(self) -> float:
        return self.s_inf if self.s_inf_prime is None else self.s_inf_prime

    @property
    def q_final(self) -> float:
        return self.q_inf if self.q_inf_prime is None else self.q_inf_prime

    @property
    def omega_bound(self) -> float:
        """Ultimate bound on ||omega_e|| (rad/s): factor 2 since Lambda = k*I."""
        return 2.0 * self.s_final

    @property
    def theta_bound(self) -> float:
        """Ultimate bound on the principal rotation angle (rad)."""
        return 2.0 * math.asin(min(self.q_final, 1.0))


def _fixed_point(phi: PhiFn, kappa: float, q0: float, ratio: float, k: float,
                 history: list[tuple[float, float]], contract: bool = False) -> tuple[float, float]:
    """Iterate s_i = ratio*phi(q_{i-1})/kappa, q_i = s_i/k from q0, appending
    each (s_i, q_i) to history, until |q_i - q_{i-1}| <= ETA; returns the
    limit. With contract, a first iterate q_1 >= 1 raises NotContractive, and
    so does any iterate that is not finite: finite inputs whose coefficients
    overflow (inf * 0 = nan) would otherwise never meet the tolerance."""
    append, eta, isfinite = history.append, ETA, math.isfinite
    s_i = ratio * phi(q0) / kappa
    q_i = s_i / k
    append((s_i, q_i))
    if contract and q_i >= 1.0:
        raise NotContractive(f"q_bar_1 = {q_i} >= 1; sequence does not contract")
    q_prev = q0
    while isfinite(q_i):
        if abs(q_i - q_prev) <= eta:
            return s_i, q_i
        q_prev = q_i
        s_i = ratio * phi(q_i) / kappa
        q_i = s_i / k
        append((s_i, q_i))
    raise NotContractive(f"q_bar_{len(history)} = {q_i}; sequence does not contract")


def predict(budget: UncertaintyBudget, gains: ControllerGains) -> BoundTrace:
    """Run the two-stage bound prediction end to end.

    Loop 1 iterates phi_bar with kappa from q_bar_0 = 1. When the
    boundary-layer guard s_inf + rho_s < epsilon holds, loop 2 iterates phi2
    with kappa' from loop 1's limit; otherwise the loop-1 limits stand as final.
    """
    coeffs = compute_coefficients(budget, gains)
    if not coeffs.kappa > 0:  # the verdict of check_gain_conditions
        raise GainConditionViolated(f"kappa = {coeffs.kappa} <= 0")
    if not epsilon_condition(gains, coeffs):
        raise GainConditionViolated(f"epsilon = {gains.epsilon} <= rho_s = {coeffs.rho_s}")
    _, phi2, phi_bar = phi_functions(coeffs, gains, budget)
    ratio = math.sqrt(budget.lambda_r / budget.lambda_l)
    trace = BoundTrace()
    trace.s_inf, trace.q_inf = _fixed_point(
        phi_bar, coeffs.kappa, 1.0, ratio, gains.k, trace.loop1, contract=True
    )
    if trace.s_inf + coeffs.rho_s < gains.epsilon:
        trace.switch_index = len(trace.loop1)
        trace.s_inf_prime, trace.q_inf_prime = _fixed_point(
            phi2, coeffs.kappa_prime, trace.q_inf, ratio, gains.k, trace.loop2
        )
    return trace


def gain_sweep(budget: UncertaintyBudget, gain_grid: list[ControllerGains]) -> list[dict]:
    """Evaluate predict() over a grid of gains; rows sorted by q-bound.

    Failing grid points (gain condition or non-contraction) are flagged with
    ok=False and sorted last, never dropped.
    """
    if not gain_grid:
        raise ValueError("gain grid must be nonempty")
    rows = []
    for gains in gain_grid:
        row = {
            "k": gains.k,
            "lambda_min_K": gains.lambda_min_K,
            "lambda_max_K": gains.lambda_max_K,
            "epsilon": gains.epsilon,
            "gamma": gains.gamma,
        }
        try:
            trace = predict(budget, gains)
        except (GainConditionViolated, NotContractive) as exc:
            row.update(ok=False, reason=type(exc).__name__, q_bound=math.inf,
                       omega_bound=math.inf, theta_bound=math.inf, iterations=0)
        else:
            row.update(
                ok=True,
                reason="",
                q_bound=trace.q_final,
                omega_bound=trace.omega_bound,
                theta_bound=trace.theta_bound,
                iterations=trace.total_iterations,
            )
        rows.append(row)
    rows.sort(key=lambda r: (not r["ok"], r["q_bound"]))
    return rows
