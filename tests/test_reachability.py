"""Every function defined in the package runs when the commands and the bound
scripts run: code that only tests call is not shipped."""

import argparse
import functools
import inspect
import runpy
import sys
from dataclasses import replace
from pathlib import Path

import ftacs
from ftacs import cli, kernel, scenario
from ftacs.scenario import PRESETS, ObserverSpec, paper_fault_free, save_scenario

SRC = Path(ftacs.__file__).resolve().parent
SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"

# Functions no command or script calls, each with the reason it stays.
UNCALLED = {
    # perfbench/tracer.py unpacks the three functions phi_functions returns,
    # so phi1 can go only together with a change to the benchmark
    ("bounds.py", "phi_functions.<locals>.phi1"),
    # kernel.step_table writes the values of these numpy methods, which the
    # tests hold it to byte for byte, and perfbench/tracer.py patches them by
    # name, so they go only together with a change to the benchmark
    ("scenario.py", "VectorSignal.__call__"),
    ("scenario.py", "VectorSignal.derivative"),
    ("actuation.py", "SignalSpec.derivative"),
    ("estimation.py", "SyntheticErrorProfile.qtilde"),
    ("estimation.py", "SyntheticErrorProfile.omega_tilde"),
}

# argv of each subcommand for a scenario file and an output directory; simulate
# runs with --seed, whose Scenario.with_seed no other command calls
COMMANDS = {
    "simulate": lambda path, out: ["simulate", "--scenario", path, "--seed", "3", "--out", out],
    "montecarlo": lambda path, out: ["montecarlo", "--scenario", path, "-n", "2", "--out", out],
    "predict-bounds": lambda path, out: ["predict-bounds", "--scenario", path, "--out", out],
    "verify": lambda path, out: ["verify", "--scenario", path, "-n", "2", "--out", out],
    "check-gains": lambda path, out: ["check-gains", "--scenario", path],
}


def defined_functions() -> dict[tuple[str, int, str], tuple[str, str]]:
    """(file name, qualified name) of every function, method and closure
    written with def in the package, keyed by (file name, first line, name)
    as its code object is; lambdas and comprehensions are not named."""
    found = {}
    for path in SRC.glob("*.py"):
        stack = [(compile(path.read_text(), str(path), "exec"), "")]
        while stack:
            code, prefix = stack.pop()
            for inner in filter(inspect.iscode, code.co_consts):
                qualname = prefix + inner.co_name
                function = inner.co_flags & inspect.CO_OPTIMIZED
                if function and not inner.co_name.startswith("<"):
                    found[path.name, inner.co_firstlineno, inner.co_name] = (path.name, qualname)
                stack.append((inner, qualname + (".<locals>." if function else ".")))
    return found


def test_command_table_covers_every_subcommand():
    subparsers = next(a for a in cli.build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    assert set(COMMANDS) == set(subparsers.choices)


def test_every_function_runs_under_a_command_or_a_script(tmp_path, monkeypatch):
    # the compiled kernel loads again, as in a new process
    monkeypatch.setattr(kernel, "library", functools.cache(kernel.library.__wrapped__))
    monkeypatch.setenv("FTACS_OUT_DIR", str(tmp_path))
    scenario._schema.cache_clear()  # cached by any earlier test that read a file
    called = set()

    def record(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    sys.setprofile(record)
    try:
        # 2 s copies of the presets and of a bias-observer scenario, written as
        # the benchmark writes its scenario file
        scenarios = [factory(duration=2.0) for factory in PRESETS.values()]
        scenarios.append(replace(paper_fault_free(observer=ObserverSpec(kind="bias"),
                                                  duration=2.0), name="bias"))
        files = []
        for sc in scenarios:
            files.append(tmp_path / f"{sc.name}.yaml")
            save_scenario(sc, files[-1])
        # a file that is not YAML, and one with a key that no field has
        invalid = [tmp_path / "invalid.yaml", tmp_path / "unknown-key.yaml"]
        for path, text in zip(invalid, ("budget: [1.0, 2.0\n", "budgets: 1.0\n")):
            path.write_text(text)
        for argv in COMMANDS.values():
            for path in files:
                assert cli.main(argv(str(path), str(tmp_path))) in (0, 2)
            for path in invalid:
                assert cli.main(argv(str(path), str(tmp_path))) == 1
        for script in ("reproduce_bounds.py", "gain_sweep_table.py"):
            runpy.run_path(str(SCRIPTS / script), run_name="__main__")
    finally:
        sys.setprofile(None)

    ran = {(Path(code.co_filename).name, code.co_firstlineno, code.co_name) for code in called
           if Path(code.co_filename).resolve().parent == SRC}
    uncalled = [name for key, name in defined_functions().items() if key not in ran]
    assert sorted(uncalled) == sorted(UNCALLED)
