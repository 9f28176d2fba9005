"""Scenario configuration: closed-form time profiles, validation, YAML I/O,
and the built-in presets (paper fault-free / faulty cases and a
zero-uncertainty nominal case)."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np
import yaml

from .actuation import ActuatorBank, HealthProfile, ProfileSpec
from .config import ControllerGains, ModelEstimates, UncertaintyBudget, zero_budget
from .errors import RankDeficient
from .estimation import NoiseParams


@dataclass
class SignalSpec:
    """Closed-form scalar signal with an analytic derivative.

    kinds: "const" -> offset; "sin"/"cos" -> offset + scale*trig(freq*t + phase).
    """

    kind: str = "const"
    offset: float = 0.0
    scale: float = 0.0
    freq: float = 1.0
    phase: float = 0.0

    def __call__(self, t):
        if self.kind == "const":
            return self.offset + np.zeros_like(np.asarray(t, dtype=float))
        if self.kind == "sin":
            return self.offset + self.scale * np.sin(self.freq * np.asarray(t) + self.phase)
        if self.kind == "cos":
            return self.offset + self.scale * np.cos(self.freq * np.asarray(t) + self.phase)
        raise ValueError(f"unknown signal kind {self.kind!r}")

    def derivative(self, t):
        if self.kind == "const":
            return np.zeros_like(np.asarray(t, dtype=float))
        if self.kind == "sin":
            return self.scale * self.freq * np.cos(self.freq * np.asarray(t) + self.phase)
        if self.kind == "cos":
            return -self.scale * self.freq * np.sin(self.freq * np.asarray(t) + self.phase)
        raise ValueError(f"unknown signal kind {self.kind!r}")


@dataclass
class VectorSignal:
    """Three per-axis SignalSpecs evaluated as a 3-vector (or n x 3 array)."""

    x: SignalSpec = field(default_factory=SignalSpec)
    y: SignalSpec = field(default_factory=SignalSpec)
    z: SignalSpec = field(default_factory=SignalSpec)

    def __call__(self, t):
        return np.stack([self.x(t), self.y(t), self.z(t)], axis=-1)

    def derivative(self, t):
        return np.stack([self.x.derivative(t), self.y.derivative(t), self.z.derivative(t)], axis=-1)

    @classmethod
    def zero(cls) -> "VectorSignal":
        return cls()


@dataclass
class ObserverSpec:
    """Observer selection: "perfect", "synthetic" (deterministic bounded error
    injection), or "bias" (complementary filter fed by noisy sensors)."""

    kind: str = "perfect"
    # synthetic
    amp_q: float = 0.0
    amp_w: float = 0.0
    freq_q: float = 0.1
    freq_w: float = 0.13
    phase_q: float = 0.0
    phase_w: float = 0.7
    # bias observer
    k_o: float = 1.0
    k_b: float = 0.1

    def __post_init__(self):
        if self.kind not in ("perfect", "synthetic", "bias"):
            raise ValueError(f"unknown observer kind {self.kind!r}")


@dataclass
class InitialConditionSpec:
    """Fixed (q0, omega0) or the random tumble distribution: per-axis rate
    uniform in +-omega_abs_max, rotation angle uniform in [0, theta_max],
    axis uniform on the unit sphere."""

    kind: str = "fixed"
    q0: list = field(default_factory=lambda: [1.0, 0.0, 0.0, 0.0])
    omega0: list = field(default_factory=lambda: [0.0, 0.0, 0.0])
    omega_abs_max: float = 0.02
    theta_max: float = math.pi

    def __post_init__(self):
        if self.kind not in ("fixed", "random"):
            raise ValueError(f"unknown initial-condition kind {self.kind!r}")


@dataclass
class Scenario:
    """Everything needed to run one closed-loop simulation."""

    name: str
    J: np.ndarray
    estimates: ModelEstimates
    omega_d: VectorSignal
    qd0: np.ndarray
    disturbance: VectorSignal
    bank: ActuatorBank
    health: HealthProfile
    health_estimate: HealthProfile
    noise: NoiseParams
    observer: ObserverSpec
    gains: ControllerGains
    budget: UncertaintyBudget | None
    init: InitialConditionSpec
    duration: float = 600.0
    dt: float = 0.01
    seed: int = 20190430
    tail_fraction: float = 0.2
    record_decimation: int = 1

    def __post_init__(self):
        self.J = np.asarray(self.J, dtype=float)
        self.qd0 = np.asarray(self.qd0, dtype=float)
        self.validate()

    def validate(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.duration < 10 * self.dt:
            raise ValueError("duration must be at least 10*dt")
        if self.record_decimation < 1:
            raise ValueError("record_decimation must be >= 1")
        if self.budget is not None:
            self.budget.validate()
        n_health = len(self.health.profiles)
        n_estimate = len(self.health_estimate.profiles)
        if not n_health == n_estimate == self.bank.m:
            raise ValueError(
                f"the bank has {self.bank.m} thruster pairs, but health has {n_health} "
                f"profiles and health_estimate has {n_estimate}"
            )
        # fully-actuated check on the health estimate at scenario start
        e_hat0 = self.health_estimate(0.0)
        if np.linalg.matrix_rank(self.bank.D * e_hat0) != 3:
            raise RankDeficient("rank(D * Ehat(0)) < 3")

    @property
    def n_steps(self) -> int:
        return int(round(self.duration / self.dt))


# ---------------------------------------------------------------------------
# serialization

_ARRAY_FIELDS = {"J", "qd0"}


def scenario_to_dict(sc: Scenario) -> dict:
    d = asdict(sc)
    for key, val in list(d.items()):
        if isinstance(val, np.ndarray):
            d[key] = val.tolist()

    def _clean(obj):
        if isinstance(obj, dict):
            return {k: _clean(v) for k, v in obj.items()}
        if isinstance(obj, list):
            return [_clean(v) for v in obj]
        if isinstance(obj, np.ndarray):
            return obj.tolist()
        if isinstance(obj, (np.floating, np.integer)):
            return obj.item()
        return obj

    return _clean(d)


def scenario_from_dict(d: dict) -> Scenario:
    def vec(dd):
        return VectorSignal(
            x=SignalSpec(**dd["x"]), y=SignalSpec(**dd["y"]), z=SignalSpec(**dd["z"])
        )

    def health(dd):
        return HealthProfile([ProfileSpec(**p) for p in dd["profiles"]])

    budget = None if d.get("budget") is None else UncertaintyBudget(**d["budget"])
    return Scenario(
        name=d["name"],
        J=np.asarray(d["J"], dtype=float),
        estimates=ModelEstimates(
            J_hat=np.asarray(d["estimates"]["J_hat"], dtype=float),
            tau_d_hat=np.asarray(d["estimates"]["tau_d_hat"], dtype=float),
        ),
        omega_d=vec(d["omega_d"]),
        qd0=np.asarray(d["qd0"], dtype=float),
        disturbance=vec(d["disturbance"]),
        bank=ActuatorBank(D=np.asarray(d["bank"]["D"], dtype=float), tau_max=d["bank"]["tau_max"]),
        health=health(d["health"]),
        health_estimate=health(d["health_estimate"]),
        noise=NoiseParams(
            sigma_theta=d["noise"]["sigma_theta"],
            sigma_u=d["noise"]["sigma_u"],
            sigma_v=d["noise"]["sigma_v"],
            b0=np.asarray(d["noise"]["b0"], dtype=float),
        ),
        observer=ObserverSpec(**d["observer"]),
        gains=ControllerGains(
            k=d["gains"]["k"],
            K=np.asarray(d["gains"]["K"], dtype=float),
            epsilon=d["gains"]["epsilon"],
            gamma=d["gains"]["gamma"],
        ),
        budget=budget,
        init=InitialConditionSpec(**d["init"]),
        duration=d["duration"],
        dt=d["dt"],
        seed=d["seed"],
        tail_fraction=d.get("tail_fraction", 0.2),
        record_decimation=d.get("record_decimation", 1),
    )


def save_scenario(sc: Scenario, path: str | Path):
    Path(path).write_text(yaml.safe_dump(scenario_to_dict(sc), sort_keys=False))


def load_scenario_file(path: str | Path) -> Scenario:
    return scenario_from_dict(yaml.safe_load(Path(path).read_text()))


# ---------------------------------------------------------------------------
# presets

PAPER_J = np.array(
    [
        [8.0, 0.15, -0.27],
        [0.15, 6.75, -0.1],
        [-0.27, -0.1, 6.25],
    ]
)
PAPER_J_HAT = np.diag([8.0, 7.0, 6.0])
PAPER_D = np.array(
    [
        [1.0, 0.0, 0.0, 1.0 / math.sqrt(3)],
        [0.0, 1.0, 0.0, 1.0 / math.sqrt(3)],
        [0.0, 0.0, 1.0, 1.0 / math.sqrt(3)],
    ]
)
PAPER_TAU_MAX = 0.02
PAPER_W0 = 1e-3

PAPER_RHO_Q = 2.15e-5
PAPER_RHO_W = 1.56e-5


def paper_gains() -> ControllerGains:
    return ControllerGains(k=0.2, K=0.7 * np.eye(3), epsilon=0.01, gamma=0.01)


def paper_budget(rho_E: float) -> UncertaintyBudget:
    return UncertaintyBudget(
        rho_q=PAPER_RHO_Q,
        rho_w=PAPER_RHO_W,
        rho_J=0.5,
        rho_d=3e-6,
        rho_d_hat=3e-6,
        lambda_l=6.0,
        lambda_r=8.5,
        rho_v=0.0022,
        rho_a=2.2e-6,
        rho_E=rho_E,
        J_hat_norm=8.0,
    )


def _paper_omega_d() -> VectorSignal:
    return VectorSignal(
        x=SignalSpec(kind="cos", scale=2e-3, freq=PAPER_W0),
        y=SignalSpec(kind="sin", scale=2e-3, freq=PAPER_W0),
        z=SignalSpec(kind="sin", scale=1e-3, freq=PAPER_W0),
    )


def _paper_disturbance() -> VectorSignal:
    return VectorSignal(
        x=SignalSpec(kind="sin", scale=2.5e-6, freq=PAPER_W0),
        y=SignalSpec(kind="cos", scale=-2.5e-6, freq=PAPER_W0),
        z=SignalSpec(kind="cos", scale=2.5e-6, freq=PAPER_W0),
    )


def _paper_common(name: str, rho_E: float, **overrides) -> dict:
    base = dict(
        name=name,
        J=PAPER_J.copy(),
        estimates=ModelEstimates(J_hat=PAPER_J_HAT.copy(), tau_d_hat=np.zeros(3)),
        omega_d=_paper_omega_d(),
        qd0=np.array([1.0, 0.0, 0.0, 0.0]),
        disturbance=_paper_disturbance(),
        bank=ActuatorBank(D=PAPER_D.copy(), tau_max=PAPER_TAU_MAX),
        noise=NoiseParams(b0=np.radians(np.array([-5.0, 15.0, -10.0]) / 3600.0)),
        observer=ObserverSpec(kind="synthetic", amp_q=PAPER_RHO_Q, amp_w=PAPER_RHO_W),
        gains=paper_gains(),
        budget=paper_budget(rho_E),
        init=InitialConditionSpec(kind="random", omega_abs_max=0.02, theta_max=math.pi),
        duration=600.0,
        dt=0.01,
        seed=20190430,
    )
    base.update(overrides)
    return base


def paper_fault_free(**overrides) -> Scenario:
    """Fault-free tracking case: healthy actuators, rho_E = 0 budget."""
    kw = _paper_common("paper-fault-free", rho_E=0.0, **overrides)
    kw.setdefault("health", HealthProfile.healthy(4))
    kw.setdefault("health_estimate", HealthProfile.healthy(4))
    return Scenario(**kw)


def paper_faulty(**overrides) -> Scenario:
    """Faulty case: pair 3 dead, pairs 1/2/4 fading, rho_E = 0.08 budget."""
    kw = _paper_common("paper-faulty", rho_E=0.08, **overrides)
    kw.setdefault(
        "health",
        HealthProfile(
            [
                ProfileSpec(kind="abs_sin", offset=1.0, scale=-0.1, freq=1.0),
                ProfileSpec(kind="cos", offset=0.7, scale=-0.1, freq=1.0),
                ProfileSpec(kind="const", offset=0.0),
                ProfileSpec(kind="sin", offset=0.5, scale=-0.1, freq=1.0),
            ]
        ),
    )
    kw.setdefault(
        "health_estimate",
        HealthProfile(
            [
                ProfileSpec(kind="const", offset=1.0),
                ProfileSpec(kind="const", offset=1.0),
                ProfileSpec(kind="const", offset=0.0),
                ProfileSpec(kind="const", offset=0.7),
            ]
        ),
    )
    return Scenario(**kw)


def nominal_exact(**overrides) -> Scenario:
    """Zero-uncertainty regression case: perfect state feedback, exact model,
    no disturbance, no faults."""
    axis = np.array([1.0, 2.0, -1.0])
    axis /= np.linalg.norm(axis)
    theta0 = math.radians(30.0)
    q0 = [math.cos(theta0 / 2), *(math.sin(theta0 / 2) * axis)]
    kw = dict(
        name="nominal-exact",
        J=PAPER_J.copy(),
        estimates=ModelEstimates(J_hat=PAPER_J.copy(), tau_d_hat=np.zeros(3)),
        omega_d=_paper_omega_d(),
        qd0=np.array([1.0, 0.0, 0.0, 0.0]),
        disturbance=VectorSignal.zero(),
        bank=ActuatorBank(D=PAPER_D.copy(), tau_max=PAPER_TAU_MAX),
        health=HealthProfile.healthy(4),
        health_estimate=HealthProfile.healthy(4),
        noise=NoiseParams(sigma_theta=0.0, sigma_u=0.0, sigma_v=0.0),
        observer=ObserverSpec(kind="perfect"),
        gains=ControllerGains(k=0.5, K=2.0 * np.eye(3), epsilon=0.01, gamma=0.01),
        budget=zero_budget(J_hat_norm=8.0, lambda_l=6.0, lambda_r=8.5),
        init=InitialConditionSpec(kind="fixed", q0=q0, omega0=[0.0, 0.0, 0.0]),
        duration=200.0,
        dt=0.01,
        seed=1,
    )
    kw.update(overrides)
    return Scenario(**kw)


PRESETS = {
    "paper-fault-free": paper_fault_free,
    "paper-faulty": paper_faulty,
    "nominal-exact": nominal_exact,
}


def load_scenario(name_or_path: str, **overrides) -> Scenario:
    """Resolve a preset name or a YAML file path into a Scenario."""
    if name_or_path in PRESETS:
        return PRESETS[name_or_path](**overrides)
    path = Path(name_or_path)
    if path.exists():
        return replace(load_scenario_file(path), **overrides)
    raise ValueError(f"unknown scenario {name_or_path!r} (not a preset, not a file)")
