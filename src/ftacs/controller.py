"""Stability gain conditions of the continuous sliding-mode control law.

The law itself runs in kernel.control_law.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bounds import RobustCoefficients, rho_s_bound
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
    """lambda_min(K) > a3 + rho_E*(k*||J_hat||/2 + lambda_max(K)) and epsilon > rho_s."""
    threshold = coeffs.a3 + budget.rho_E * (
        0.5 * gains.k * budget.J_hat_norm + gains.lambda_max_K
    )
    rho_s = rho_s_bound(budget, gains.k)
    return GainCheckReport(
        lambda_min_K=gains.lambda_min_K,
        k_threshold=threshold,
        k_condition=gains.lambda_min_K > threshold,
        k_margin=gains.lambda_min_K - threshold,
        rho_s=rho_s,
        epsilon=gains.epsilon,
        epsilon_condition=gains.epsilon > rho_s,
        epsilon_margin=gains.epsilon - rho_s,
    )
