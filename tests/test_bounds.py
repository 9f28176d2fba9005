import math
from collections import Counter
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ftacs import bounds
from ftacs.bounds import (
    ETA,
    compute_coefficients,
    gain_sweep,
    phi_functions,
    predict,
    rho_zero,
    robust_coefficients,
)
from ftacs.config import ControllerGains, UncertaintyBudget, zero_budget
from ftacs.controller import check_gain_conditions
from ftacs.errors import GainConditionViolated, NotContractive
from ftacs.scenario import paper_budget, paper_gains
import reference
from reference import with_numpy_scalars


def test_rho_zero_frozen(budget_free):
    assert rho_zero(budget_free.rho_q) == pytest.approx(2.1500000373076184e-05, rel=1e-12)


def test_rho_s_frozen(budget_free, gains):
    assert compute_coefficients(budget_free, gains).rho_s == pytest.approx(1.9994600074615237e-05, rel=1e-12)


def test_b_coefficients_frozen(budget_faulty, gains):
    c = compute_coefficients(budget_faulty, gains)
    b0, b1, b2, b3 = c.b0, c.b1, c.b2, c.b3
    assert b3 == pytest.approx(1.5, rel=1e-12)
    assert b2 == pytest.approx(0.16, rel=1e-12)
    assert b1 == pytest.approx(0.18123765408029852, rel=1e-12)
    assert b0 == pytest.approx(0.00021234305714861078, rel=1e-12)


def test_kappa_frozen(budget_free, budget_faulty, gains):
    free = compute_coefficients(budget_free, gains)
    faulty = compute_coefficients(budget_faulty, gains)
    assert free.kappa == pytest.approx(0.6499827999997015, rel=1e-12)
    assert free.kappa_prime == pytest.approx(0.6625842621482748, rel=1e-12)
    assert faulty.kappa == pytest.approx(0.5299827999997015, rel=1e-12)
    assert faulty.kappa_prime == pytest.approx(0.5425842621482748, rel=1e-12)


def test_phi_frozen_values(budget_free, gains):
    coeffs = compute_coefficients(budget_free, gains)
    phi1, phi2, phi_bar = phi_functions(coeffs, gains, budget_free)
    assert phi1(1.0, 0.0) == pytest.approx(0.009950694312771943, rel=1e-12)
    assert phi2(1.0, 0.0) == pytest.approx(0.020725665386852655, rel=1e-12)
    # phi_bar evaluates both quadratics itself; phi2 is the larger at y = 0
    # and phi1 at y = 0.1
    for x in (0.0, 0.3, 1.0):
        for y in (0.0, 1e-3, 0.1):
            assert phi_bar(x, y) == max(phi1(x, y), phi2(x, y))


def test_phi_monotone_in_slack(budget_faulty, gains):
    coeffs = compute_coefficients(budget_faulty, gains)
    phi1, phi2, _ = phi_functions(coeffs, gains, budget_faulty)
    for x in (0.0, 0.3, 1.0):
        assert phi1(x, 0.1) > phi1(x, 0.0)
        assert phi2(x, 0.1) > phi2(x, 0.0)


def test_phi_rebuilds_only_at_another_slack(budget_faulty, gains, monkeypatch):
    # the functions are built at y = 0: an equal slack, as the benchmark's
    # tracer passes it, evaluates there, and another slack builds them again
    coeffs = compute_coefficients(budget_faulty, gains)
    _, _, phi_bar = phi_functions(coeffs, gains, budget_faulty)
    reference_phi_bar = reference.phi_functions(coeffs, gains, budget_faulty)[2]
    slacks = []

    def counted(coeffs, gains, budget, y=0.0):
        slacks.append(y)
        return phi_functions(coeffs, gains, budget, y)

    monkeypatch.setattr(bounds, "phi_functions", counted)
    assert phi_bar(0.3, float("0")) == reference_phi_bar(0.3, 0.0)
    assert slacks == []
    assert phi_bar(0.3, 1e-3) == reference_phi_bar(0.3, 1e-3)
    assert slacks == [1e-3]
    assert math.isnan(phi_bar(0.3, math.nan))
    assert len(slacks) == 2 and math.isnan(slacks[1])


def test_predict_fault_free(budget_free, gains):
    trace = predict(budget_free, gains)
    assert len(trace.loop1) == 8
    assert len(trace.loop2) == 2
    assert trace.total_iterations == 10
    assert trace.s_inf == pytest.approx(6.812077401962214e-05, rel=1e-12)
    assert trace.s_inf_prime == pytest.approx(6.669688265994707e-05, rel=1e-12)
    assert trace.q_final == pytest.approx(0.00033348441329973536, rel=1e-12)
    assert math.degrees(trace.omega_bound) == pytest.approx(0.007642899766188502, rel=1e-12)
    assert math.degrees(trace.theta_bound) == pytest.approx(0.03821449953926009, rel=1e-12)


def test_predict_faulty(budget_faulty, gains):
    trace = predict(budget_faulty, gains)
    assert len(trace.loop1) == 13
    assert len(trace.loop2) == 4
    assert trace.total_iterations == 17
    assert trace.s_inf_prime == pytest.approx(0.00015327468054636032, rel=1e-12)
    assert trace.q_final == pytest.approx(0.0007663734027318016, rel=1e-12)
    assert math.degrees(trace.omega_bound) == pytest.approx(0.01756398460304478, rel=1e-12)
    assert math.degrees(trace.theta_bound) == pytest.approx(0.0878199316117456, rel=1e-12)


def test_loop1_strictly_decreasing(budget_free, budget_faulty, gains):
    for budget in (budget_free, budget_faulty):
        trace = predict(budget, gains)
        s_vals = [s for s, _ in trace.loop1]
        assert all(b < a for a, b in zip(s_vals, s_vals[1:]))
        q_vals = [q for _, q in trace.loop1]
        assert all(b < a for a, b in zip(q_vals, q_vals[1:]))


def test_loop2_dominates_loop1(budget_free, budget_faulty, gains):
    for budget in (budget_free, budget_faulty):
        trace = predict(budget, gains)
        assert all(s < trace.s_inf for s, _ in trace.loop2)


def test_fixed_point_residual(budget_faulty, gains):
    trace = predict(budget_faulty, gains)
    coeffs = compute_coefficients(budget_faulty, gains)
    _, phi2, phi_bar = phi_functions(coeffs, gains, budget_faulty)
    ratio = math.sqrt(budget_faulty.lambda_r / budget_faulty.lambda_l)
    res1 = abs(trace.q_inf - ratio * phi_bar(trace.q_inf, 0.0) / (coeffs.kappa * gains.k))
    res2 = abs(
        trace.q_inf_prime
        - ratio * phi2(trace.q_inf_prime, 0.0) / (coeffs.kappa_prime * gains.k)
    )
    assert res1 <= 2 * ETA
    assert res2 <= 2 * ETA


def test_budget_monotonicity(gains):
    # enlarging any uncertainty component never shrinks the final bound
    base = paper_budget(rho_E=0.02)
    baseline = predict(base, gains).q_final
    bumps = {
        "rho_q": 2.0 * base.rho_q,
        "rho_w": 2.0 * base.rho_w,
        "rho_J": 2.0 * base.rho_J,
        "rho_d": 10.0 * base.rho_d,
        "rho_d_hat": 10.0 * base.rho_d_hat,
        "rho_v": 2.0 * base.rho_v,
        "rho_a": 10.0 * base.rho_a,
        "rho_E": 2.0 * base.rho_E,
    }
    for name, value in bumps.items():
        enlarged = predict(replace(base, **{name: value}), gains).q_final
        assert enlarged >= baseline, name


def test_determinism(budget_faulty, gains):
    t1 = predict(budget_faulty, gains)
    t2 = predict(budget_faulty, gains)
    assert t1.loop1 == t2.loop1
    assert t1.loop2 == t2.loop2
    assert t1.q_final == t2.q_final


def test_zero_budget_bounds_collapse(gains):
    trace = predict(zero_budget(J_hat_norm=8.0, lambda_l=6.0, lambda_r=8.5), gains)
    assert trace.q_final == 0.0
    assert trace.omega_bound == 0.0
    assert trace.theta_bound == 0.0


def test_gain_condition_violated(budget_faulty):
    weak = ControllerGains(k=0.2, K=0.1 * np.eye(3), epsilon=0.01, gamma=0.01)
    with pytest.raises(GainConditionViolated):
        predict(budget_faulty, weak)


def test_not_contractive(gains):
    # a huge disturbance budget makes the first iterate exceed 1
    budget = replace(paper_budget(rho_E=0.0), rho_d=10.0)
    with pytest.raises(NotContractive):
        predict(budget, gains)


def test_overflowing_coefficients_raise_instead_of_looping():
    # every input is finite, but a1*gamma overflows and rho_s = 0 makes
    # phi = 0 * inf = nan, which no tolerance test ever accepts
    budget = replace(zero_budget(J_hat_norm=1.0, lambda_l=1.0, lambda_r=1.0), rho_J=4.0)
    gains = ControllerGains(k=1.0, K=10.0 * np.eye(3), epsilon=0.01, gamma=1e308)
    with pytest.raises(NotContractive, match="q_bar_1 = nan"):
        predict(budget, gains)


def test_loop2_not_activated(budget_faulty):
    # epsilon so small that the boundary-layer guard fails; loop-1 limits stand
    tight = ControllerGains(k=0.2, K=0.7 * np.eye(3), epsilon=2.1e-5, gamma=0.01)
    trace = predict(budget_faulty, tight)
    assert trace.loop2 == []
    assert trace.s_inf_prime is None
    assert trace.s_final == trace.s_inf


def test_gain_sweep_consistency(budget_faulty, gains):
    grid = [
        gains,
        ControllerGains(k=0.2, K=1.4 * np.eye(3), epsilon=0.01, gamma=0.01),
        ControllerGains(k=0.2, K=2.8 * np.eye(3), epsilon=0.01, gamma=0.01),
        ControllerGains(k=0.2, K=0.1 * np.eye(3), epsilon=0.01, gamma=0.01),
    ]
    rows = gain_sweep(budget_faulty, grid)
    assert len(rows) == 4
    # the paper-gain row reproduces predict()
    ref = predict(budget_faulty, gains)
    paper_row = next(r for r in rows if r["lambda_min_K"] == pytest.approx(0.7))
    assert paper_row["ok"]
    assert paper_row["q_bound"] == pytest.approx(ref.q_final, rel=1e-12)
    assert paper_row["iterations"] == ref.total_iterations
    # bounds decrease monotonically along increasing K
    ok_rows = sorted((r for r in rows if r["ok"]), key=lambda r: r["lambda_min_K"])
    q_bounds = [r["q_bound"] for r in ok_rows]
    assert all(b < a for a, b in zip(q_bounds, q_bounds[1:]))
    # the failing point is flagged, not dropped, and sorted last
    assert not rows[-1]["ok"]
    assert rows[-1]["reason"] == "GainConditionViolated"


def test_gain_sweep_empty_grid(budget_faulty):
    with pytest.raises(ValueError):
        gain_sweep(budget_faulty, [])


def test_eigenvalues_of_K_computed_once_at_construction(monkeypatch, budget_faulty):
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        calls.append(1)
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    gains = ControllerGains(k=0.2, K=np.diag([0.7, 0.8, 0.9]), epsilon=0.01, gamma=0.01)
    assert len(calls) == 1
    report = check_gain_conditions(gains, compute_coefficients(budget_faulty, gains), budget_faulty)
    predict(budget_faulty, gains)
    assert len(calls) == 1
    assert (report.lambda_min_K, gains.lambda_max_K) == (0.7, 0.9)


def test_eigenvalue_extremes_of_K_stay_properties():
    # they are read through the class attribute, which may be wrapped
    for name in ("lambda_min_K", "lambda_max_K"):
        assert isinstance(ControllerGains.__dict__[name], property)


def prediction(budget, gains, run=predict):
    try:
        return run(budget, gains)
    except (GainConditionViolated, NotContractive) as exc:
        return type(exc).__name__, str(exc)


def gain_grid(n, seed):
    """n gain sets drawn log-uniformly around the paper gains; on the paper
    budgets their predictions converge, violate a gain condition or fail to
    contract."""
    rng = np.random.default_rng(seed)
    base = paper_gains()
    centre = np.array([base.k, *np.diag(base.K), base.epsilon, base.gamma])
    spread = np.array([1.0, 1.5, 1.5, 1.5, 1.0, 1.0])
    params = centre * 2.0 ** (spread * rng.uniform(-1.0, 1.0, size=(n, 6)))
    return [ControllerGains(k=p[0], K=np.diag(p[1:4]), epsilon=p[4], gamma=p[5]) for p in params]


def test_bound_path_equals_reference():
    # the bound path gives the reference's results with ==, over a grid with
    # every outcome: the coefficients, the gain report from robust or from
    # complete coefficients, phi1, phi2 and phi_bar on and off y = 0, and the
    # trace (both loop histories, the limits, switch_index) or the failure's
    # type and message; the narrow boundary layers keep loop 2 from starting
    grid = gain_grid(1100, seed=7)
    grid += [replace(gains, epsilon=5e-5) for gains in grid[:100]]
    outcomes = Counter()
    for budget in (paper_budget(0.0), paper_budget(0.08)):
        for gains in grid:
            robust = robust_coefficients(budget, gains.k)
            assert robust == reference.robust_coefficients(budget, gains.k)
            coeffs = compute_coefficients(budget, gains)
            assert coeffs == reference.compute_coefficients(budget, gains)
            for c in (robust, coeffs):
                assert check_gain_conditions(gains, c, budget) == \
                    reference.check_gain_conditions(gains, c, budget)
            phis = phi_functions(coeffs, gains, budget)
            reference_phis = reference.phi_functions(coeffs, gains, budget)
            for x in (0.0, 1e-4, 0.3, 1.0):
                for y in (0.0, 1e-3, 0.1):
                    assert [phi(x, y) for phi in phis] == [phi(x, y) for phi in reference_phis]
            trace = prediction(budget, gains)
            assert trace == prediction(budget, gains, reference.predict)
            if isinstance(trace, tuple):
                outcomes[trace[0]] += 1
            else:
                outcomes["loop 2" if trace.switch_index is not None else "loop 1 only"] += 1
    assert sum(outcomes.values()) == 2400
    assert all(outcomes[name] >= 20 for name in
               ("loop 2", "loop 1 only", "GainConditionViolated", "NotContractive")), outcomes


def test_numpy_scalars_change_nothing_but_the_type():
    # the bound path on numpy-scalar gains and budgets gives the results of
    # the float path bit for bit, over a grid with every outcome
    grid = gain_grid(1000, seed=20190430)
    assert all(type(g.k) is type(g.epsilon) is type(g.gamma) is float for g in grid)
    numpy_grid = [with_numpy_scalars(g, "k", "epsilon", "gamma") for g in grid]
    outcomes = dict.fromkeys(["converged", "GainConditionViolated", "NotContractive"], 0)
    for budget in (paper_budget(0.0), paper_budget(0.08)):
        numpy_budget = with_numpy_scalars(budget, *(f.name for f in fields(UncertaintyBudget)))
        for gains, numpy_gains in zip(grid, numpy_grid):
            report = check_gain_conditions(gains, robust_coefficients(budget, gains.k), budget)
            assert check_gain_conditions(
                numpy_gains, robust_coefficients(numpy_budget, numpy_gains.k), numpy_budget) == report
            trace = prediction(budget, gains)
            assert prediction(numpy_budget, numpy_gains) == trace
            if isinstance(trace, tuple):
                outcomes[trace[0]] += 1
                continue
            outcomes["converged"] += 1
            values = [trace.s_inf, trace.q_inf, trace.omega_bound, trace.theta_bound,
                      *(v for pair in trace.loop1 + trace.loop2 for v in pair)]
            if trace.switch_index is not None:
                values += [trace.s_inf_prime, trace.q_inf_prime]
            assert all(type(v) is float for v in values)
        assert gain_sweep(numpy_budget, numpy_grid) == gain_sweep(budget, grid)
    assert sum(outcomes.values()) == 2000
    assert all(count >= 20 for count in outcomes.values()), outcomes


@st.composite
def budgets_and_gains(draw):
    # half the draws stay near the paper's sizes, where most predictions
    # converge; in the other half any field may be huge but finite
    huge = draw(st.booleans())

    def size(paper, large):
        return draw(st.floats(0.0, large if huge else 2.0 * paper))

    lambda_l = draw(st.floats(1e-3, 1e3))
    budget = UncertaintyBudget(
        rho_q=draw(st.floats(0.0, 1.0, exclude_max=True) if huge else st.floats(0.0, 1e-4)),
        rho_w=size(1.56e-5, 1e100),
        rho_J=size(0.5, 1e100),
        rho_d=size(3e-6, 1e100),
        rho_d_hat=size(3e-6, 1e100),
        lambda_l=lambda_l,
        lambda_r=lambda_l * draw(st.floats(1.0, 10.0)),
        rho_v=size(0.0022, 1e200),
        rho_a=size(2.2e-6, 1e100),
        rho_E=draw(st.floats(0.0, 1.0, exclude_max=True) if huge else st.floats(0.0, 0.2)),
        J_hat_norm=size(8.0, 1e100),
    )
    gains = ControllerGains(
        k=draw(st.floats(0.02, 2.0)),
        K=np.diag(draw(st.lists(st.floats(0.2, 6.0), min_size=3, max_size=3))),
        epsilon=draw(st.floats(1e-7, 0.1)),
        gamma=draw(st.floats(1e-4, 0.1)),
    )
    return budget, gains


@settings(max_examples=500, deadline=None)
@given(budgets_and_gains())
def test_predict_on_any_finite_budget_and_gains(case):
    # predict ends in a bound or a named failure, its bounds only tighten,
    # and check-gains passes exactly when predict accepts the gains
    budget, gains = case
    assert prediction(budget, gains) == prediction(budget, gains, reference.predict)
    passed = check_gain_conditions(gains, compute_coefficients(budget, gains), budget).passed
    try:
        trace = predict(budget, gains)
    except GainConditionViolated:
        assert not passed
        return
    except NotContractive:
        assert passed
        return
    assert passed
    for start, loop in ((1.0, trace.loop1), (trace.q_inf, trace.loop2)):
        q = [start] + [q_i for _, q_i in loop]
        assert all(b <= a for a, b in zip(q, q[1:]))
