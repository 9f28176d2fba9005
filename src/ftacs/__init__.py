"""Fault-tolerant attitude control simulation and steady-state bound prediction.

Library layout:
    config      gain, model-estimate, and uncertainty-budget dataclasses,
                observer-bound and inertia checks
    actuation   SignalSpec, the one closed-form time profile (reference
                rates, disturbances, health indicators); health profiles
                clamped to [0, 1]; redundant thruster bank, health-weighted
                allocation
    estimation  sensor noise, synthetic observer error profile
    controller  stability gain conditions of the control law
    bounds      sequential fixed-point prediction of ultimate error bounds
    scenario    vector signals, scenario configs, YAML I/O, built-in presets
    kernel      the closed loop on Python floats: observers, and one
                function that runs every step of an instance (control law,
                allocation and saturation, faulty actuators, rigid body)
    harness     closed-loop runner, instance and campaign records (one set of
                keys), Monte Carlo campaigns, verification, export
"""

from .bounds import (
    BoundCoefficients,
    BoundTrace,
    compute_coefficients,
    gain_sweep,
    phi_functions,
    predict,
    robust_coefficients,
)
from .config import ControllerGains, ModelEstimates, UncertaintyBudget, zero_budget
from .controller import check_gain_conditions
from .errors import (
    BoundViolated,
    FtacsError,
    GainConditionViolated,
    NonFiniteState,
    NotContractive,
)
from .harness import (
    CampaignSummary,
    RunTrace,
    export_bound_trace_jsonl,
    export_summary_jsonl,
    export_trace_csv,
    run_campaign,
    run_scenario,
    steady_state_stats,
    verify,
)
from .scenario import (
    PRESETS,
    Scenario,
    load_scenario,
    load_scenario_file,
    paper_fault_free,
    paper_faulty,
    nominal_exact,
    save_scenario,
)

__version__ = "0.1.0"

__all__ = [
    "BoundCoefficients",
    "BoundTrace",
    "BoundViolated",
    "CampaignSummary",
    "ControllerGains",
    "FtacsError",
    "GainConditionViolated",
    "ModelEstimates",
    "NonFiniteState",
    "NotContractive",
    "PRESETS",
    "RunTrace",
    "Scenario",
    "UncertaintyBudget",
    "check_gain_conditions",
    "compute_coefficients",
    "export_bound_trace_jsonl",
    "export_summary_jsonl",
    "export_trace_csv",
    "gain_sweep",
    "load_scenario",
    "load_scenario_file",
    "nominal_exact",
    "paper_fault_free",
    "paper_faulty",
    "phi_functions",
    "predict",
    "robust_coefficients",
    "run_campaign",
    "run_scenario",
    "save_scenario",
    "steady_state_stats",
    "verify",
    "zero_budget",
]
