"""Scenario configuration: vector signals made of actuation.SignalSpec (which
this module re-exports), the observer selection, an
estimation.SyntheticErrorProfile with a kind and the bias observer's gains,
validation, YAML I/O, and the built-in presets (paper fault-free / faulty
cases and a zero-uncertainty nominal case). Scenarios are frozen and checked
when built, and each scalar field of each part is stored as a Python float."""

from __future__ import annotations

import copy
import functools
import math
import numbers
import typing
from dataclasses import MISSING, asdict, dataclass, fields
from pathlib import Path

import numpy as np
import yaml

from .actuation import ActuatorBank, HealthProfile, SignalSpec, rank_deficient
from .config import (ControllerGains, ModelEstimates, UncertaintyBudget, check_inertia,
                     check_integer, echo, freeze_arrays, freeze_floats, to_float, zero_budget)
from .estimation import NoiseParams, SyntheticErrorProfile
from .kernel import square_norm


_ZERO = SignalSpec("const", 0.0)


@dataclass(frozen=True)
class VectorSignal:
    """Three per-axis SignalSpecs, zero when left out, evaluated as a
    3-vector (or n x 3 array)."""

    x: SignalSpec = _ZERO
    y: SignalSpec = _ZERO
    z: SignalSpec = _ZERO

    def __call__(self, t):
        return np.stack([self.x(t), self.y(t), self.z(t)], axis=-1)

    def derivative(self, t):
        return np.stack([self.x.derivative(t), self.y.derivative(t), self.z.derivative(t)], axis=-1)


@dataclass(frozen=True)
class ObserverSpec(SyntheticErrorProfile):
    """Observer selection: "perfect", "synthetic" (the inherited error profile,
    injected), or "bias" (complementary filter fed by noisy sensors)."""

    kind: str = "perfect"
    k_o: float = 1.0
    k_b: float = 0.1

    def __post_init__(self):
        if self.kind not in ("perfect", "synthetic", "bias"):
            raise ValueError(f"unknown observer kind {echo(self.kind)}")
        super().__post_init__()
        freeze_floats(self, "k_o", "k_b")
        if self.kind == "bias":
            for name in ("k_o", "k_b"):
                if not 0.0 < getattr(self, name) < math.inf:
                    raise ValueError(f"bias observer gain {name} must be positive and "
                                     f"finite, got {getattr(self, name)!r}")


def _is_finite_number(v, name: str) -> bool:
    """v is a finite real number; an integer beyond the float range raises."""
    return isinstance(v, numbers.Real) and not isinstance(v, bool) and math.isfinite(to_float(name, v))


@dataclass(frozen=True)
class InitialConditionSpec:
    """Fixed (q0, omega0) or the random tumble distribution: per-axis rate
    uniform in +-omega_abs_max, rotation angle uniform in [0, theta_max],
    axis uniform on the unit sphere."""

    kind: str = "fixed"
    q0: tuple = (1.0, 0.0, 0.0, 0.0)
    omega0: tuple = (0.0, 0.0, 0.0)
    omega_abs_max: float = 0.02
    theta_max: float = math.pi

    def __post_init__(self):
        object.__setattr__(self, "q0", tuple(self.q0))
        object.__setattr__(self, "omega0", tuple(self.omega0))
        if self.kind not in ("fixed", "random"):
            raise ValueError(f"unknown initial-condition kind {echo(self.kind)}")
        if len(self.q0) != 4 or len(self.omega0) != 3:
            raise ValueError(f"init needs a 4-element q0 and a 3-element omega0, "
                             f"got {len(self.q0)} and {len(self.omega0)}")
        for name in ("q0", "omega0"):
            if not all(_is_finite_number(v, f"init.{name}") for v in getattr(self, name)):
                raise ValueError(f"init.{name} must be finite numbers, "
                                 f"got {echo(list(getattr(self, name)))}")
            object.__setattr__(self, name, tuple(map(float, getattr(self, name))))
        if not 0.0 < square_norm(self.q0) < math.inf:
            raise ValueError(f"init.q0 must be nonzero, with a sum of squares in (0, inf), "
                             f"got {list(self.q0)!r}")
        freeze_floats(self, "omega_abs_max", "theta_max")
        for name in ("omega_abs_max", "theta_max"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ValueError(f"init.{name} must be nonnegative and finite, got {getattr(self, name)!r}")


@dataclass(frozen=True)
class Scenario:
    """Everything needed to run one closed-loop simulation. Construction also
    sets health_estimate_runs, not a field: (rows, runs, starts), the health
    estimate on the step grid as runs of equal rows. Run i starts at step
    starts[i] and has the row rows[runs[i]]; rows holds the distinct rows,
    rounded to 15 decimals, in order of first appearance."""

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
    budget: UncertaintyBudget
    init: InitialConditionSpec
    duration: float = 600.0
    dt: float = 0.01
    seed: int = 20190430
    tail_fraction: float = 0.2
    record_decimation: int = 1

    def __post_init__(self):
        # every command names its output files after the scenario
        if not (isinstance(self.name, str) and self.name) or any(c in self.name for c in "/\\\0"):
            raise ValueError(f"name must be a non-empty string without '/', '\\' or NUL, "
                             f"got {echo(self.name)}")
        # Linux file systems allow 255 bytes in a file name, and the longest
        # suffix a command writes is 29: "-seed", a 20-digit seed and ".csv"
        if len(self.name.encode()) > 200:
            raise ValueError(f"name must be at most 200 bytes in UTF-8, got {len(self.name.encode())}")
        freeze_floats(self, "duration", "dt", "tail_fraction")
        object.__setattr__(self, "seed", _check_seed(self.seed))
        object.__setattr__(self, "record_decimation",
                           check_integer("record_decimation", self.record_decimation, 1))
        freeze_arrays(self, "J", "qd0")
        check_inertia(self, "J")
        if self.qd0.shape != (4,):
            raise ValueError(f"qd0 must be a 4-vector, got shape {self.qd0.shape}")
        if not 0.0 < square_norm(self.qd0.tolist()) < math.inf:  # false for NaN too
            raise ValueError(f"qd0 must be finite and nonzero, with a sum of squares in (0, inf), "
                             f"got {self.qd0.tolist()!r}")
        if not 0.0 < self.dt < math.inf:
            raise ValueError(f"dt must be positive and finite, got {self.dt!r}")
        if not 10 * self.dt <= self.duration < math.inf:
            raise ValueError(f"duration must be finite and at least 10*dt, got {self.duration!r}")
        if not self.duration / self.dt < 2**53:  # where round() still gives an exact count
            raise ValueError(f"duration / dt must be below 2**53 steps, got dt = {self.dt!r} "
                             f"and duration = {self.duration!r}")
        if not 0.0 < self.tail_fraction <= 1.0:
            raise ValueError(f"tail_fraction must be in (0, 1], got {self.tail_fraction}")
        n_health = len(self.health.profiles)
        n_estimate = len(self.health_estimate.profiles)
        if not n_health == n_estimate == self.bank.m:
            raise ValueError(
                f"the bank has {self.bank.m} thruster pairs, but health has {n_health} "
                f"profiles and health_estimate has {n_estimate}"
            )
        b, obs, jn = self.budget, self.observer, self.estimates.J_hat_norm
        if not math.isclose(b.J_hat_norm, jn, rel_tol=1e-12):
            raise ValueError(f"budget.J_hat_norm = {b.J_hat_norm!r} is not ||estimates.J_hat|| = {jn!r}")
        if obs.kind == "synthetic" and (obs.amp_q > b.rho_q or obs.amp_w > b.rho_w):
            raise ValueError(f"observer (amp_q, amp_w) = ({obs.amp_q!r}, {obs.amp_w!r}) exceed "
                             f"budget (rho_q, rho_w) = ({b.rho_q!r}, {b.rho_w!r})")
        # every signal stays finite on the grid, the last step's end included
        for where, spec, (scale, freq, phase) in self._grid_signals():
            if spec.kind == "const":
                continue
            for what, value in (
                    (f"|{freq}|*(duration + dt) + |{phase}|",
                     abs(spec.freq) * (self.duration + self.dt) + abs(spec.phase)),
                    (f"|offset| + |{scale}|", abs(spec.offset) + abs(spec.scale)),
                    (f"|{scale}*{freq}|", abs(spec.scale * spec.freq))):
                if not math.isfinite(value):
                    raise ValueError(f"{where}: {what} must be finite, got {value!r}")
        # fully-actuated check on the health estimate at every step of the grid
        try:
            object.__setattr__(self, "health_estimate_runs", _equal_row_runs(
                self.health_estimate(self.dt * np.arange(self.n_steps))))
        except MemoryError:
            raise ValueError(
                f"duration / dt gives {self.n_steps} steps, a grid too large to allocate, "
                f"got dt = {self.dt!r} and duration = {self.duration!r}") from None
        rows, runs, starts = self.health_estimate_runs
        lost = rank_deficient(self.bank, rows)[runs]
        if lost.any():
            t = self.dt * starts[lost.argmax()]
            raise ValueError(f"rank(D * Ehat(t)) < 3 at t = {t:g} s")

    def with_seed(self, seed) -> Scenario:
        """This scenario with seed in place of its own, held to the rule that
        construction holds a seed to. No other check reads the seed, so
        nothing else is checked again: the copy shares every other field."""
        instance = copy.copy(self)
        object.__setattr__(instance, "seed", _check_seed(seed))
        return instance

    @property
    def n_steps(self) -> int:
        return int(round(self.duration / self.dt))

    def _grid_signals(self):
        """(where, spec, names) of each signal that the step grid evaluates:
        where it is in the scenario, its SignalSpec, and the names there of
        the spec's scale, freq and phase. A synthetic observer's errors are
        the sines amp * sin(freq * t + phase)."""
        names = ("scale", "freq", "phase")
        for vector in ("omega_d", "disturbance"):
            for axis in "xyz":
                yield f"{vector}.{axis}", getattr(getattr(self, vector), axis), names
        for profile in ("health", "health_estimate"):
            for i, spec in enumerate(getattr(self, profile).profiles):
                yield f"{profile}.profiles[{i}]", spec, names
        obs = self.observer
        if obs.kind == "synthetic":
            for e in "qw":
                names = (f"amp_{e}", f"freq_{e}", f"phase_{e}")
                yield "observer", SignalSpec("sin", 0.0, *(getattr(obs, n) for n in names)), names


def _check_seed(seed) -> int:
    """seed as an int in [0, 2**64), so that it has at most 20 digits."""
    return check_integer("seed", seed, 0, 64)


def _equal_row_runs(e_hat: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (rows, runs, starts) of Scenario.health_estimate_runs of the
    (n, m) rows e_hat. Rows are compared with the row before them in numpy;
    only the first row of each run is rounded and looked up in a dict."""
    changed = np.zeros(len(e_hat), dtype=bool)
    changed[0] = True
    changed[np.flatnonzero(e_hat[1:] != e_hat[:-1]) // e_hat.shape[1] + 1] = True
    starts = np.flatnonzero(changed)
    ids: dict[tuple, int] = {}
    runs = [ids.setdefault(row, len(ids))
            for row in map(tuple, np.round(e_hat[starts], 15).tolist())]
    return np.array(list(ids)), np.array(runs), starts


# ---------------------------------------------------------------------------
# serialization

class _UniqueKeys(yaml.constructor.SafeConstructor):
    def construct_mapping(self, node, deep=False):
        """The safe mapping, except that a key given twice raises instead of
        the last one winning."""
        seen = []  # a list, so that an unhashable key reaches the safe mapping's error
        for key_node, _ in node.value:
            if (key := self.construct_object(key_node, deep=deep)) in seen:
                raise yaml.constructor.ConstructorError(
                    None, None, f"found duplicate key {key!r}", key_node.start_mark)
            seen.append(key)
        return super().construct_mapping(node, deep)


# libyaml's classes when PyYAML was built with it, else the pure-Python ones.
# Both pairs share the safe constructor and representer, so a file reads and
# writes the same either way.
_Loader = type("_Loader", (_UniqueKeys, getattr(yaml, "CSafeLoader", yaml.SafeLoader)), {})
_Dumper = getattr(yaml, "CSafeDumper", yaml.SafeDumper)


def scenario_to_dict(sc: Scenario) -> dict:
    def _clean(obj):
        if isinstance(obj, dict):
            return {k: _clean(v) for k, v in obj.items()}
        if isinstance(obj, (list, tuple)):
            return [_clean(v) for v in obj]
        if isinstance(obj, np.ndarray):
            return obj.tolist()
        return obj

    return _clean(asdict(sc))


_SCALARS = {float: ((int, float), "a number"), int: ((int,), "an integer"),
            str: ((str,), "a string"), tuple: ((list,), "a list")}


@functools.cache
def _schema(cls) -> dict:
    """{field name: (type, item type of a tuple, required)} of a dataclass, a
    tuple being read from a list. A field is optional when it has a default."""
    hints = typing.get_type_hints(cls)
    schema = {}
    for f in fields(cls):
        hint, item = hints[f.name], None
        if typing.get_origin(hint) is tuple:
            hint, (item, _) = tuple, typing.get_args(hint)
        schema[f.name] = (hint, item, f.default is MISSING and f.default_factory is MISSING)
    return schema


def _key(where: str, key) -> str:
    return f"{where}.{key}" if where else str(key)


def _build(cls, d, where: str):
    """Build dataclass `cls` from a mapping, checking every key against its
    fields: a missing, unknown or mistyped key raises a ValueError naming it."""
    if not isinstance(d, dict):
        raise ValueError(f"{where or 'the document'} must be a mapping, not {type(d).__name__}")
    schema = _schema(cls)
    for key in d:
        if key not in schema:
            raise ValueError(f"unknown key {echo(_key(where, key))} (known: {', '.join(schema)})")
    kwargs = {}
    for name, (hint, item, required) in schema.items():
        key, value = _key(where, name), d.get(name)
        if name not in d:
            if required:
                raise ValueError(f"missing key {key!r}")
            continue  # the field's default
        if hint in _SCALARS:
            types, expected = _SCALARS[hint]
            if isinstance(value, bool) or not isinstance(value, types):
                raise ValueError(f"{key}: expected {expected}, got {echo(value)}")
            kwargs[name] = value if item is None else [
                _build(item, v, f"{key}[{i}]") for i, v in enumerate(value)]
        elif hint is np.ndarray:
            kwargs[name] = _array(value, key)
        else:
            kwargs[name] = _build(hint, value, key)
    return cls(**kwargs)


def _array(value, key: str) -> np.ndarray:
    """A list of ints and floats, or a list of such lists, as a float array;
    a string or a bool entry raises, where numpy would read '8.0' as 8.0 and
    true as 1.0. No array field has more than 2 dimensions, so deeper nesting
    raises too, without a walk as deep as the nesting."""
    def numbers(v):
        return isinstance(v, list) and all(
            isinstance(x, (int, float)) and not isinstance(x, bool) for x in v)

    if numbers(value) or isinstance(value, list) and all(map(numbers, value)):
        try:
            return np.asarray(value, dtype=float)
        except (ValueError, OverflowError):  # ragged, or an int beyond float range
            pass
    raise ValueError(f"{key}: expected a list of numbers, got {echo(value)}")


def scenario_from_dict(d: dict) -> Scenario:
    """Build a Scenario from the mapping `scenario_to_dict` makes. Keys whose
    field has a default may be left out; any other missing key, an unknown
    key or a value of the wrong type raises a ValueError that names it."""
    return _build(Scenario, d, "")


def save_scenario(sc: Scenario, path: str | Path):
    Path(path).write_text(yaml.dump(scenario_to_dict(sc), Dumper=_Dumper, sort_keys=False))


def _yaml_error(exc: yaml.YAMLError, text: str) -> str:
    # Point at the line where the broken construct starts, which names its key.
    mark = getattr(exc, "context_mark", None) or getattr(exc, "problem_mark", None)
    if mark is None:
        return f"not valid YAML: {exc}"
    lines = text.splitlines()
    line = lines[mark.line].strip() if mark.line < len(lines) else ""
    cause = ", ".join(filter(None, (exc.context, exc.problem)))
    return f"not valid YAML at line {mark.line + 1} ({line!r}): {cause}"


# PyYAML's libyaml loader composes a collection inside another by a recursive
# C call: collections nested 20,000 to 30,000 deep overflow an 8 MB stack, and
# the process dies of SIGSEGV. A scenario nests a few levels.
NESTING_LIMIT = 5_000


def _check_nesting(text: str):
    """Raise a ValueError when the YAML text nests collections more than
    NESTING_LIMIT deep. Each collection opens at one of the characters
    [{-:?, so a text with fewer of them passes unparsed. Another is walked by
    the parser's events, whose stack is on the heap, up to the first level
    too deep; quoted scalars and comments do not count."""
    if sum(map(text.count, "[{-:?")) <= NESTING_LIMIT:
        return
    depth = 0
    for event in yaml.parse(text, Loader=_Loader):
        if isinstance(event, yaml.CollectionStartEvent):
            depth += 1
            if depth > NESTING_LIMIT:
                raise ValueError(f"collections nested more than {NESTING_LIMIT} levels deep")
        elif isinstance(event, yaml.CollectionEndEvent):
            depth -= 1


def load_scenario_file(path: str | Path) -> Scenario:
    """Read a scenario YAML file. Invalid YAML, collections nested more than
    NESTING_LIMIT deep, or a document that does not make a valid scenario,
    raise a ValueError naming the file and the key."""
    path = Path(path)
    try:
        text = path.read_text()  # bytes that do not decode raise a ValueError
        _check_nesting(text)
        return scenario_from_dict(yaml.load(text, Loader=_Loader))
    except yaml.YAMLError as exc:
        raise ValueError(f"{path}: {_yaml_error(exc, text)}") from exc
    except RecursionError:  # the pure-Python loader's, between 400 and 1,000 levels deep
        raise ValueError(f"{path}: collections nested too deeply for the pure-Python "
                         "YAML loader") from None
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from exc


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
        x=SignalSpec("cos", 0.0, scale=2e-3, freq=PAPER_W0),
        y=SignalSpec("sin", 0.0, scale=2e-3, freq=PAPER_W0),
        z=SignalSpec("sin", 0.0, scale=1e-3, freq=PAPER_W0),
    )


def _paper_disturbance() -> VectorSignal:
    return VectorSignal(
        x=SignalSpec("sin", 0.0, scale=2.5e-6, freq=PAPER_W0),
        y=SignalSpec("cos", 0.0, scale=-2.5e-6, freq=PAPER_W0),
        z=SignalSpec("cos", 0.0, scale=2.5e-6, freq=PAPER_W0),
    )


def _paper_common(name: str, /, rho_E: float, **overrides) -> dict:
    base = dict(
        name=name,
        J=PAPER_J,
        estimates=ModelEstimates(J_hat=PAPER_J_HAT, tau_d_hat=np.zeros(3)),
        omega_d=_paper_omega_d(),
        qd0=np.array([1.0, 0.0, 0.0, 0.0]),
        disturbance=_paper_disturbance(),
        bank=ActuatorBank(D=PAPER_D, tau_max=PAPER_TAU_MAX),
        noise=NoiseParams(b0=np.radians(np.array([-5.0, 15.0, -10.0]) / 3600.0)),
        observer=ObserverSpec(kind="synthetic", amp_q=PAPER_RHO_Q, amp_w=PAPER_RHO_W),
        gains=paper_gains(),
        budget=paper_budget(rho_E),
        init=InitialConditionSpec(kind="random"),
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
                SignalSpec("abs_sin", 1.0, scale=-0.1, freq=1.0),
                SignalSpec("cos", 0.7, scale=-0.1, freq=1.0),
                SignalSpec("const", 0.0),
                SignalSpec("sin", 0.5, scale=-0.1, freq=1.0),
            ]
        ),
    )
    kw.setdefault(
        "health_estimate",
        HealthProfile(
            [
                SignalSpec("const", 1.0),
                SignalSpec("const", 1.0),
                SignalSpec("const", 0.0),
                SignalSpec("const", 0.7),
            ]
        ),
    )
    return Scenario(**kw)


def nominal_exact(**overrides) -> Scenario:
    """Zero-uncertainty regression case: perfect state feedback, exact model,
    no disturbance, no faults."""
    estimates = ModelEstimates(J_hat=PAPER_J, tau_d_hat=np.zeros(3))
    axis = np.array([1.0, 2.0, -1.0])
    axis /= np.linalg.norm(axis)
    theta0 = math.radians(30.0)
    q0 = [math.cos(theta0 / 2), *(math.sin(theta0 / 2) * axis)]
    kw = dict(
        estimates=estimates,
        disturbance=VectorSignal(),
        health=HealthProfile.healthy(4),
        health_estimate=HealthProfile.healthy(4),
        noise=NoiseParams(sigma_theta=0.0, sigma_u=0.0, sigma_v=0.0),
        observer=ObserverSpec(kind="perfect"),
        gains=ControllerGains(k=0.5, K=2.0 * np.eye(3), epsilon=0.01, gamma=0.01),
        budget=zero_budget(J_hat_norm=estimates.J_hat_norm, lambda_l=6.0, lambda_r=8.5),
        init=InitialConditionSpec(kind="fixed", q0=q0, omega0=[0.0, 0.0, 0.0]),
        duration=200.0,
        seed=1,
    )
    kw.update(overrides)
    return Scenario(**_paper_common("nominal-exact", rho_E=0.0, **kw))


PRESETS = {
    "paper-fault-free": paper_fault_free,
    "paper-faulty": paper_faulty,
    "nominal-exact": nominal_exact,
}


def load_scenario(name_or_path: str) -> Scenario:
    """Resolve a preset name or a YAML file path into a Scenario."""
    if name_or_path in PRESETS:
        return PRESETS[name_or_path]()
    path = Path(name_or_path)
    if path.exists():
        return load_scenario_file(path)
    raise ValueError(f"unknown scenario {name_or_path!r} (not a preset, not a file)")
