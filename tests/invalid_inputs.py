"""The table of invalid inputs, and its runner.

Each row is one rejected input: a preset saved as a scenario file and edited
(by key path, or as text for what only YAML can say), the command lines run
on it, the exit status they must end with (1 invalid input, 2 a failed
promise) and what stderr must hold. Every run must also print no traceback
and fewer than STDERR_BOUND bytes to stderr; a run that must not get past
the load writes nothing, and leaves its scenario file as written.

test_scenario.py runs each command line of every row through cli.main, in
process, as a test of its own. Run as a script, from outside the checkout,
this module runs every row through the installed `ftacs` command instead:

    python tests/invalid_inputs.py
"""

import functools
import math
import operator
import re
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

import yaml

from ftacs import scenario
from ftacs.scenario import PRESETS, scenario_to_dict

STDERR_BOUND = 1024  # bytes
DELETE = object()  # an edit's value that deletes its key


@dataclass(frozen=True)
class Row:
    """edit is None when the command lines name a preset; a {key path: value}
    dict for the preset's dict, paths joined by '.'; or a function of the
    preset's YAML text giving the file's text or bytes. err and out are a
    substring or a pattern searched for in stderr and stdout, with {file} and
    {out} in place of the paths. argv is one command line or a tuple of them,
    where {file} is the scenario file and {out} an empty directory, the
    working one. reaches is the last stage a run may get to: "load" (no bound
    prediction and no precompute), "predict" or "run"."""

    name: str
    edit: object
    err: object
    argv: object = ("check-gains --scenario {file}", "predict-bounds --scenario {file}",
                    "simulate --scenario {file}")
    code: int = 1
    out: object = ""
    reaches: str = "load"
    preset: str = "paper-faulty"
    duration: float = 10.0


def at(message: str) -> re.Pattern:
    """stderr begins 'error: <the scenario file>: message'."""
    return re.compile(r"\A" + re.escape(f"error: {{file}}: {message}"))


def exact(text: str) -> re.Pattern:
    """The stream is `text`, whole."""
    return re.compile(rf"\A{re.escape(text)}\Z")


def scenario_bytes(edit, preset: str = "paper-faulty", duration: float = 10.0) -> bytes:
    """The YAML file of the preset with `edit` (see Row) made to it."""
    d = scenario_to_dict(PRESETS[preset](duration=duration))
    for path, value in ({} if callable(edit) else edit).items():
        *keys, last = [int(k) if k.isdigit() else k for k in path.split(".")]
        parent = functools.reduce(operator.getitem, keys, d)
        if value is DELETE:
            del parent[last]
        else:
            parent[last] = value
    text = yaml.dump(d, Dumper=scenario._Dumper, sort_keys=False)  # as save_scenario writes
    text = edit(text) if callable(edit) else text
    return text.encode() if isinstance(text, str) else text


def nested(depth: int, block: bool = False):
    """A text edit that sets J to `depth` nested empty lists, in flow style
    ([[...]]) or as block entries (- - ... [])."""
    value = f"\n{'- ' * (depth - 1)}[]" if block else f" {'[' * depth}{']' * depth}"
    return lambda text: re.sub(r"^J:\n([- ] .*\n)+", f"J:{value}\n", text, flags=re.M)


nan, inf = math.nan, math.inf
J = [[8.0, 0.15, -0.27], [0.15, 6.75, -0.1], [-0.27, -0.1, 6.25]]
EVERY = (*Row.argv, "montecarlo --scenario {file}", "verify --scenario {file}")
BOUNDS = "predict-bounds --scenario {file} --out {out}"
CHECK = "check-gains --scenario {file}"
DIVERGES = {"dt": 20.0, "bank.tau_max": inf}  # the gain conditions hold with paper-fault-free
FAULT_FREE_400 = dict(preset="paper-fault-free", duration=400.0)

ROWS = [
    # the command line alone
    Row("unknown-scenario", None, exact("error: unknown scenario 'bogus' (not a preset, not a file)\n"),
        "simulate --scenario bogus"),
    Row("usage", None, "error:", ("simulate", "verify --scenario paper-faulty -n abc", "bogus",
                                  "predict-bounds --scenario paper-faulty --eta 1e-6",
                                  "predict-bounds --scenario paper-faulty --no-loop2",
                                  "montecarlo --scenario paper-faulty --eta 1e-6",
                                  "verify --scenario paper-faulty --eta 1e-6")),
    Row("seed-negative-option", None, exact("error: seed must be >= 0, got -1\n"),
        "simulate --scenario paper-faulty --seed -1 --out {out}"),
    Row("seed-2-to-the-64", None, exact(f"error: seed must be < 2**64, got {2**64}\n"),
        f"simulate --scenario paper-faulty --seed {2**64} --out {{out}}/new"),
    Row("seed-401-digits", None, exact("error: seed must be < 2**64, got an integer of 401 digits\n"),
        f"simulate --scenario paper-faulty --seed {10**400} --out {{out}}"),
    Row("montecarlo-n-0", None, exact("error: n_instances must be >= 1, got 0\n"),
        "montecarlo --scenario paper-faulty -n 0 --out {out}"),
    Row("verify-n-negative", None, exact("error: n_instances must be >= 1, got -1\n"),
        "verify --scenario paper-faulty -n -1 --out {out}"),
    # --out names a regular file, the empty scenario file: it is made before the work
    Row("out-is-a-file", lambda text: "", exact("error: [Errno 17] File exists: '{file}'\n"),
        tuple(f"{c} --scenario paper-faulty --out {{file}}"
              for c in ("simulate", "montecarlo", "predict-bounds", "verify", "verify -n 2"))),
    # every output file is named after the scenario
    Row("name-escapes-out", {"name": "../escaped"}, at("name must be a non-empty string"),
        "simulate --scenario {file} --out {out}", duration=1.0),
    Row("name-too-long", {"name": "x" * 300}, at("name must be at most 200 bytes in UTF-8, got 300"),
        "simulate --scenario {file} --out {out}", duration=1.0),
    # files that are not a scenario
    Row("not-utf-8", lambda text: b"\xff\xfe\x00bad",
        at("'utf-8' codec can't decode byte 0xff in position 0: invalid start byte")),
    Row("truncated-flow-list", lambda text: "name: x\nJ: [1, 2\n",
        at("not valid YAML at line 2 ('J: [1, 2')")),
    Row("document-is-a-list", lambda text: "- name\n- J\n", at("the document must be a mapping")),
    Row("python-tag", lambda text: "name: !!python/name:os.system\n",
        at("not valid YAML at line 1 ('name: !!python/name:os.system')")),
    # YAML lets the last of two equal keys win: each of these files once loaded
    Row("duplicated-key", lambda text: "name: x\ndt: 0.01\ndt: 0.02\n",
        at("not valid YAML at line 3 ('dt: 0.02'): found duplicate key 'dt'")),
    Row("duplicated-nested-key", lambda text: "budget:\n  rho_a: 1.0\n  rho_a: 2.0\n",
        at("not valid YAML at line 3 ('rho_a: 2.0'): found duplicate key 'rho_a'")),
    *(Row(f"unknown-key-{key}", {key: 1}, at(f"unknown key '{key}'"))
      for key in ("observer.foo", "record_decimaton", "estimates.J", "bank.tau", "noise.sigma",
                  "gains.kk")),
    Row("dt-not-a-number", {"dt": "abc"}, at("dt: expected a number")),
    # kind and offset have no default: a healthy pair left without its offset
    # would otherwise read as a dead one
    *(Row(f"missing-key-{key}", {key: DELETE}, at(f"missing key '{key}'"))
      for key in ("gains", "gains.K", "omega_d.x.offset", "disturbance.y.kind")),
    Row("missing-key-health-offset", {"health.profiles.0.offset": DELETE},
        at("missing key 'health.profiles[0].offset'")),
    Row("no-budget", {"budget": DELETE}, exact("error: {file}: missing key 'budget'\n"), BOUNDS),
    Row("no-budget-nominal", {"budget": DELETE}, exact("error: {file}: missing key 'budget'\n"), EVERY,
        preset="nominal-exact"),
    # numpy reads '8.0' as 8.0 and true as 1.0: each of these files once loaded
    Row("ragged-array", {"J": [[1.0, 2.0], [3.0]]}, at("J: expected a list of numbers")),
    Row("J-string-entry", {"J": [["8.0", 0.15, -0.27], *J[1:]]},
        at("J: expected a list of numbers, got [['8.0', 0.15, -0.27]")),
    Row("J-bool-entry", {"J": [[True, 0.15, -0.27], *J[1:]]},
        at("J: expected a list of numbers, got [[True, 0.15, -0.27]")),
    Row("K-string-entry", {"gains.K": [["0.7", 0.0, 0.0], [0.0, 0.7, 0.0], [0.0, 0.0, 0.7]]},
        at("gains.K: expected a list of numbers, got [['0.7', 0.0, 0.0]")),
    Row("D-bool-entries", {"bank.D": [[True, False, False, 1.0], [False, True, False, 1.0],
                                      [False, False, True, 1.0]]},
        at("bank.D: expected a list of numbers, got [[True, False, False, 1.0]")),
    Row("qd0-string-entry", {"qd0": ["1.0", 0.0, 0.0, 0.0]},
        at("qd0: expected a list of numbers, got ['1.0', 0.0, 0.0, 0.0]")),
    Row("qd0-bool-entry", {"qd0": [True, 0, 0, 0]},
        at("qd0: expected a list of numbers, got [True, 0, 0, 0]")),
    Row("K-not-3x3", {"gains.K": [[1.0, 0.0], [0.0, 1.0]]}, at("K must be 3x3")),
    # arrays have at most 2 dimensions: 400 levels once ended in a RecursionError
    Row("J-nested-400-deep", nested(400), at("J: expected a list of numbers, got [[[["), EVERY),
    Row("J-nested-2000-deep", nested(2000), at("J: expected a list of numbers, got "), CHECK),
    # libyaml builds nested collections by recursing on the C stack: at 50,000
    # levels the process died of SIGSEGV, with no message
    Row("J-nested-50000-deep", nested(50_000), exact(
        "error: {file}: collections nested more than 5000 levels deep\n"), CHECK),
    Row("J-block-nested-50000-deep", nested(50_000, block=True), exact(
        "error: {file}: collections nested more than 5000 levels deep\n"), CHECK),
    # a rejected value is echoed whole only when it is short
    Row("J-100000-strings", {"J": [["8.0"] * 100_000]}, at("J: expected a list of numbers, got [['8.0', "),
        CHECK),
    Row("dt-10000-numbers", {"dt": [0.01] * 10_000}, at("dt: expected a number, got [0.01, 0.01, "), CHECK),
    Row("unknown-key-100000-characters", {"x" * 100_000: 1}, at("unknown key 'xxxx"), CHECK),
    # the checks of the built scenario, which echo a long value cut short too
    Row("name-slash-100000-characters", {"name": "/" + "x" * 100_000},
        at("name must be a non-empty string without '/', '\\' or NUL, got '/xxxx"), CHECK),
    Row("q0-entry-of-100000-zeros", {"init.q0": [[0] * 100_000, 0.0, 0.0, 0.0]},
        at("init.q0 must be finite numbers, got [[0, 0, "), CHECK),
    Row("omega_d-kind-100000-characters", {"omega_d.x.kind": "y" * 100_000},
        at("unknown signal kind 'yyyy"), CHECK),
    Row("observer-kind-100000-characters", {"observer.kind": "z" * 100_000},
        at("unknown observer kind 'zzzz"), CHECK),
    Row("init-kind-100000-characters", {"init.kind": "w" * 100_000},
        at("unknown initial-condition kind 'wwww"), CHECK),
    Row("J-nan", {"J": [[nan, 0.15, -0.27], *J[1:]]}, at("J must be finite, got [[nan, 0.15, -0.27]")),
    Row("J_hat-inf", {"estimates.J_hat": [[8.0, inf, 0.0], [inf, 7.0, 0.0], [0.0, 0.0, 6.0]]},
        at("J_hat must be finite, got [[8.0, inf, 0.0]")),
    Row("indefinite-J", {"J": [[1.0, 0.0, 0.0], [0.0, -2.0, 0.0], [0.0, 0.0, 3.0]]},
        at("J must be positive definite")),
    Row("asymmetric-J", {"J": [[8.0, 0.5, 0.0], [0.0, 7.0, 0.0], [0.0, 0.0, 6.0]]},
        at("J must be symmetric")),
    Row("indefinite-J_hat", {"estimates.J_hat.1.1": -7.0},
        exact("error: {file}: J_hat must be positive definite\n"), EVERY),
    Row("synthetic-amplitudes", {"observer": {"kind": "synthetic", "amp_q": 1.5, "amp_w": -1}},
        at("(amp_q, amp_w) = (1.5, -1.0): rho_q must be in [0, 1)")),
    Row("bias-k_o-negative", {"observer": {"kind": "bias", "k_o": -1.0, "k_b": 0.1}},
        at("bias observer gain k_o must be positive and finite, got -1.0")),
    Row("bias-k_b-infinite", {"observer": {"kind": "bias", "k_o": 1.0, "k_b": inf}},
        at("bias observer gain k_b must be positive and finite, got inf")),
    Row("tail_fraction-zero", {"tail_fraction": 0.0}, at("tail_fraction must be in (0, 1]")),
    Row("amplitude-above-budget", {"observer.amp_q": 3e-5}, at(
        "observer (amp_q, amp_w) = (3e-05, 1.56e-05) exceed budget (rho_q, rho_w) = (2.15e-05, 1.56e-05)")),
    Row("J_hat_norm-mismatch", {"budget.J_hat_norm": 1.0},
        at("budget.J_hat_norm = 1.0 is not ||estimates.J_hat|| = 8.0")),
    Row("D-not-2-d", {"bank.D": [1.0, 0.0, 0.0]}, at("D must be 3 x m with m >= 3, got shape (3,)")),
    *(Row(f"tau_max-{value}", {"bank.tau_max": value}, at(f"tau_max must be positive, got {value}"))
      for value in (-1.0, 0.0, nan)),
    Row("q0-zero", {"init.q0": [0.0, 0.0, 0.0, 0.0]}, at("init.q0 must be nonzero")),
    Row("q0-not-numbers", {"init.q0": ["a", "b", "c", "d"]},
        at("init.q0 must be finite numbers, got ['a', 'b', 'c', 'd']")),
    Row("omega0-infinite", {"init.omega0": [inf, 0.0, 0.0]},
        at("init.omega0 must be finite numbers, got [inf, 0.0, 0.0]")),
    Row("omega_abs_max-nan", {"init.omega_abs_max": nan},
        at("init.omega_abs_max must be nonnegative and finite, got nan")),
    Row("theta_max-negative", {"init.theta_max": -1.0},
        at("init.theta_max must be nonnegative and finite, got -1.0")),
    Row("qd0-zero", {"qd0": [0.0, 0.0, 0.0, 0.0]}, at("qd0 must be finite and nonzero")),
    Row("qd0-nan", {"qd0": [nan, 0.0, 0.0, 1.0]}, at("qd0 must be finite and nonzero")),
    # passed as nonzero, then divided by a zero norm (qd0) or ran to a
    # non-finite state (init.q0)
    Row("qd0-underflow", {"qd0": [1e-200, 0.0, 0.0, 0.0]},
        at("qd0 must be finite and nonzero, with a sum of squares in (0, inf)"), duration=1.0),
    Row("q0-underflow", {"init": {"kind": "fixed", "q0": [1e-200, 0.0, 0.0, 0.0]}},
        at("init.q0 must be nonzero, with a sum of squares in (0, inf)")),
    Row("disturbance-unknown-kind", {"disturbance.x.kind": "tan"}, at("unknown signal kind 'tan'")),
    Row("health-unknown-kind", {"health.profiles.0.kind": "tan"}, at("unknown signal kind 'tan'")),
    Row("omega_d-freq-nan", {"omega_d.x.freq": nan}, at("freq must be finite, got nan")),
    # sin(freq * t) overflowed to NaN on the step grid: numpy warned, and the
    # run failed on a non-finite state
    Row("omega_d-freq-1e308", {"omega_d.x.freq": 1e308},
        at("omega_d.x: |freq|*(duration + dt) + |phase| must be finite, got inf"), EVERY,
        preset="paper-fault-free", duration=5.0),
    Row("health-scale-infinite", {"health.profiles.1.scale": inf}, at("scale must be finite, got inf")),
    Row("dt-nan", {"dt": nan}, at("dt must be positive and finite, got nan")),
    # an integer too large for a float once ended in an OverflowError traceback
    Row("dt-beyond-float-range", {"dt": 10**400 - 1},
        at("dt must be a real number within the float range")),
    Row("q0-beyond-float-range", {"init.q0": [10**400 - 1, 0, 0, 0]},
        at("init.q0 must be a real number within the float range")),
    Row("duration-infinite", {"duration": inf}, at("duration must be finite and at least 10*dt, got inf")),
    Row("seed-negative", {"seed": -5}, at("seed must be >= 0, got -5")),
    # --seed is checked after the file, its own seed included, and before --out is made
    Row("seed-negative-option-on-a-file", {}, exact("error: seed must be >= 0, got -1\n"),
        "simulate --scenario {file} --seed -1 --out {out}"),
    Row("seed-2-to-the-64-on-a-file", {}, exact(f"error: seed must be < 2**64, got {2**64}\n"),
        f"simulate --scenario {{file}} --seed {2**64} --out {{out}}/new"),
    Row("seed-negative-with-a-good-option", {"seed": -5}, at("seed must be >= 0, got -5"),
        "simulate --scenario {file} --seed 3 --out {out}/new"),
    # past 2**53 steps the count is not exact: int() overflowed at 1e-320, and
    # the health estimate's grid exceeded numpy's maximum array size at 1e-300
    *(Row(f"dt-{dt}", {"dt": float(dt)}, at(f"duration / dt must be below 2**53 steps, got dt = {dt} "
                                             "and duration = 10.0")) for dt in ("1e-320", "1e-300")),
    # below 2**53 steps, but the health estimate's grid of 1e13 steps is
    # beyond memory: numpy's allocation error once ended in a traceback
    Row("dt-1e-12", {"dt": 1e-12}, at("duration / dt gives 10000000000000 steps, a grid too large to "
                                      "allocate, got dt = 1e-12 and duration = 10.0")),
    Row("sigma_theta-negative", {"noise.sigma_theta": -1.0},
        at("sigma_theta must be nonnegative and finite, got -1.0")),
    Row("sigma_u-nan", {"noise.sigma_u": nan}, at("sigma_u must be nonnegative and finite, got nan")),
    Row("b0-2-elements", {"noise.b0": [0.0, 0.0]}, at("b0 must be a 3-vector, got shape (2,)")),
    Row("synthetic-freq_q-nan", {"observer.freq_q": nan}, at("freq_q must be finite, got nan")),
    Row("tau_d_hat-nan", {"estimates.tau_d_hat": [nan, 0.0, 0.0]},
        at("tau_d_hat must be finite, got [nan, 0.0, 0.0]")),
    # each of these, when NaN, once made the bound iteration run forever
    *(Row(f"{key}-nan", {key: nan}, at(f"{key.split('.')[1]} must be "), BOUNDS)
      for key in ("budget.rho_d", "budget.rho_d_hat", "budget.rho_v", "budget.rho_a", "budget.rho_w",
                  "gains.epsilon", "gains.gamma")),
    # failed promises. epsilon <= rho_s fails both commands alike; a rho_v
    # whose square overflows makes rho_s huge, where ** raised OverflowError
    *(row for name, edit, preset in (("epsilon", {"gains.epsilon": 1.5e-5}, "paper-faulty"),
                                     ("epsilon-fault-free", {"gains.epsilon": 1.5e-5}, "paper-fault-free"),
                                     ("rho_v-1e200", {"budget.rho_v": 1e200}, "paper-faulty"))
      for row in (Row(f"{name}-check-gains", edit, exact(""), CHECK, 2, preset=preset,
                      out=re.compile(r"^epsilon = .* vs rho_s = .*: FAIL", re.M)),
                  Row(f"{name}-predict-bounds", edit, re.compile(r"\Aprediction failed: epsilon = \S+ <= "
                                                                 r"rho_s = \S+\n\Z"), BOUNDS, 2,
                      reaches="predict", preset=preset))),
    Row("gain-condition-fails", {"gains.K": [[0.1, 0.0, 0.0], [0.0, 0.1, 0.0], [0.0, 0.0, 0.1]]},
        "prediction failed", ("verify --scenario {file} -n 3 --out {out}",
                              "montecarlo --scenario {file} -n 3 --out {out}"), 2, reaches="predict"),
    # 20 s steps with unlimited torque diverge, though the gain conditions hold
    Row("diverging-check-gains", DIVERGES, exact(""), CHECK, 0, **FAULT_FREE_400),
    Row("diverging-simulate", DIVERGES, exact("FAIL: non-finite state at step 7 (t=140.000 s)\n"),
        "simulate --scenario {file} --out {out}", 2, reaches="run", **FAULT_FREE_400),
    Row("diverging-montecarlo", DIVERGES,
        re.compile(r"\A(FAILED: instance \d \(seed \d+\): non-finite state at step \d+ "
                   r"\(t=\S+ s\)\n){2}\Z"),
        "montecarlo -n 2 --scenario {file} --out {out}", 2, reaches="run", **FAULT_FREE_400,
        out="campaign maxima over 0 of 2 finished instances: theta_e nan deg"),
    Row("diverging-verify", DIVERGES, re.compile(r"\AFAIL: failed instances: instance 0 \(seed \d+\): non-"
                                                 r"finite .*; instance 1 \(seed \d+\): non-finite .*\n\Z"),
        "verify -n 2 --scenario {file} --out {out}", 2, reaches="run", **FAULT_FREE_400),
]


def command_lines(row: Row) -> list:
    """The row's command lines."""
    return [row.argv] if isinstance(row.argv, str) else list(row.argv)


# every (row, command line) pair of the table, each checked on its own
RUNS = [(row, line) for row in ROWS for line in command_lines(row)]


def run_id(row: Row, line: str) -> str:
    """The row's name, and which of its command lines this is when it has more than one."""
    lines = command_lines(row)
    return row.name if len(lines) == 1 else f"{row.name}-{lines.index(line)}-{line.split()[0]}"


def check_run(row: Row, line: str, tmp: Path, run) -> None:
    """Run one of the row's command lines through run(argv, cwd), which
    returns the exit status, stdout and stderr (bytes), and assert what the
    row expects. The scenario file and the working directory are made in the
    empty directory tmp."""
    file, cwd = tmp / "scenario.yaml", tmp / "out"
    cwd.mkdir()
    written = None if row.edit is None else scenario_bytes(row.edit, row.preset, row.duration)
    if written is not None:
        file.write_bytes(written)
    code, out, err = run([w.replace("{file}", str(file)).replace("{out}", str(cwd))
                          for w in line.split()], cwd)
    where = f"{row.name}: ftacs {line[:200]}"
    assert len(err) < STDERR_BOUND, f"{where}: {len(err)} bytes of stderr: {err[:300]!r}"
    out, err = (s.decode(errors="replace").replace(str(file), "{file}").replace(str(cwd), "{out}")
                for s in (out, err))
    assert code == row.code, f"{where}: exit {code}, not {row.code}; stderr {err!r}"
    assert "Traceback" not in err, f"{where}: {err}"
    for stream, got, expected in (("stderr", err, row.err), ("stdout", out, row.out)):
        held = expected in got if isinstance(expected, str) else expected.search(got)
        assert held, f"{where}: {stream} {got!r} does not hold {expected!r}"
    if row.reaches == "load":
        assert [p for p in tmp.rglob("*") if p not in (file, cwd)] == [], f"{where}: wrote a file"
        assert written is None or file.read_bytes() == written, f"{where}: wrote into {file}"


def main() -> int:
    """Run every row through the installed `ftacs` command."""
    ftacs = shutil.which("ftacs")
    if ftacs is None or not __debug__:
        sys.exit("no ftacs command on PATH" if ftacs is None else "the checks are asserts: run without -O")

    def run(argv, cwd):
        done = subprocess.run([ftacs, *argv], cwd=cwd, capture_output=True, timeout=60)
        return done.returncode, done.stdout, done.stderr

    failed = set()
    for row, line in RUNS:
        with tempfile.TemporaryDirectory() as tmp:
            try:
                check_run(row, line, Path(tmp), run)
            except AssertionError as exc:
                failed.add(row.name)
                print(f"FAIL {exc}", file=sys.stderr)
    print(f"{len(ROWS) - len(failed)} of {len(ROWS)} invalid-input rows pass through {ftacs}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
