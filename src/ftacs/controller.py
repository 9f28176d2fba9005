"""Stability gain conditions of the continuous sliding-mode control law.

The law itself runs in each step of kernel.closed_loop.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bounds import RobustCoefficients, _complete, epsilon_condition
from .config import ControllerGains, UncertaintyBudget


@dataclass
class GainCheckReport:
    """Stability gain conditions with their margins."""

    lambda_min_K: float
    k_threshold: float
    k_condition: bool
    k_margin: float
    rho_s: float
    epsilon: float
    epsilon_condition: bool
    epsilon_margin: float

    @property
    def passed(self) -> bool:
        return self.k_condition and self.epsilon_condition


def check_gain_conditions(
    gains: ControllerGains, coeffs: RobustCoefficients, budget: UncertaintyBudget
) -> GainCheckReport:
    """kappa = lambda_min(K) - a3 - rho_E*b3 > 0 and epsilon > rho_s, the
    conditions predict() tests, on the gains' BoundCoefficients completed
    from the robust part of coeffs; the threshold a3 + rho_E*b3 is for display."""
    c = _complete(budget, gains, coeffs)
    eps, rs, kappa = gains.epsilon, c.rho_s, c.kappa
    return GainCheckReport(c.lambda_min_K, c.a3 + budget.rho_E * c.b3, kappa > 0, kappa,
                           rs, eps, epsilon_condition(gains, c), eps - rs)
