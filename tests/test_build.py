"""Building and loading the compiled kernel: one build per source and
command, cached across runs and processes, and a build failure that reaches
the user as an error line naming its cause, never a traceback. Each test
gives the kernel a fresh library cache and, where it compiles, a source file
of its own, so nothing it builds lands in the package."""

import functools
import subprocess
import sys

import pytest

from ftacs import cli, kernel
from ftacs.harness import run_scenario
from ftacs.scenario import nominal_exact, paper_faulty, save_scenario

MISSING_COMPILER = ("ftacs-test-no-such-compiler", "-O2")


@pytest.fixture
def fresh_library(monkeypatch):
    """Load the library again on first use, as a new process does."""
    def reload():
        monkeypatch.setattr(kernel, "library", functools.cache(kernel.library.__wrapped__))
    reload()
    return reload


@pytest.fixture
def own_source(tmp_path, monkeypatch):
    """A copy of kernel.c in tmp_path, which the kernel builds from."""
    source = tmp_path / "kernel.c"
    source.write_bytes(kernel.C_SOURCE.read_bytes())
    monkeypatch.setattr(kernel, "C_SOURCE", source)
    return source


def test_a_second_simulation_runs_no_compiler(fresh_library, own_source, monkeypatch):
    compiles = []
    run = subprocess.run

    def compile_once(*args, **kwargs):
        if compiles:
            raise AssertionError(f"the compiler ran again: {args}")
        compiles.append(args)
        return run(*args, **kwargs)

    monkeypatch.setattr(subprocess, "run", compile_once)
    sc = paper_faulty(duration=1.0)
    first = run_scenario(sc)
    assert len(compiles) == 1
    assert kernel.library_path(own_source).is_file()
    assert list(own_source.parent.joinpath("__pycache__").iterdir()) == [
        kernel.library_path(own_source)]  # no temporary file left beside it
    assert run_scenario(sc).theta_e_deg.tolist() == first.theta_e_deg.tolist()
    # a new process loads the library that is there
    fresh_library()
    assert run_scenario(sc).theta_e_deg.tolist() == first.theta_e_deg.tolist()
    assert len(compiles) == 1


def test_a_changed_source_or_command_gives_a_new_library_name(own_source, monkeypatch):
    path = kernel.library_path(own_source)
    assert path.parent == own_source.parent / "__pycache__"
    assert kernel.library_path(own_source) == path
    own_source.write_text(own_source.read_text() + "/* changed */\n")
    changed = kernel.library_path(own_source)
    assert changed != path
    monkeypatch.setattr(kernel, "COMPILE", (*kernel.COMPILE, "-g"))
    assert kernel.library_path(own_source) not in (path, changed)


def test_a_missing_compiler_exits_1_with_an_error_line(fresh_library, own_source, monkeypatch,
                                                      tmp_path, capsys):
    monkeypatch.setattr(kernel, "COMPILE", MISSING_COMPILER)
    path = tmp_path / "short.yaml"
    save_scenario(nominal_exact(duration=1.0), path)
    assert cli.main(["simulate", "--scenario", str(path), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot run the C compiler: ")
    assert MISSING_COMPILER[0] in err
    assert "Traceback" not in err
    assert not list(own_source.parent.joinpath("__pycache__").iterdir())
    # the commands that run no simulation need no compiler
    assert cli.main(["check-gains", "--scenario", str(path)]) == 0
    assert cli.main(["predict-bounds", "--scenario", str(path), "--out", str(tmp_path)]) == 0


def test_a_failing_compiler_names_its_command(fresh_library, own_source, capsys, tmp_path):
    own_source.write_text("this is not C\n")
    assert cli.main(["verify", "--scenario", "nominal-exact", "-n", "1",
                     "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: the C compiler failed (exit ")
    assert f" -o {own_source.parent / '__pycache__'}" in err
    assert str(own_source) in err
    assert "Traceback" not in err


def test_an_unwritable_build_directory_is_named(fresh_library, own_source, capsys, tmp_path):
    # a file where the build directory goes: mkdir fails even for root
    own_source.parent.joinpath("__pycache__").write_text("")
    assert cli.main(["simulate", "--scenario", "nominal-exact", "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write the compiled kernel into "
                          f"{own_source.parent / '__pycache__'}: ")
    assert "Traceback" not in err


def test_importing_the_package_builds_and_loads_nothing():
    code = ("import ftacs, ftacs.cli; from ftacs import kernel; "
            "assert kernel.library.cache_info().currsize == 0")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
