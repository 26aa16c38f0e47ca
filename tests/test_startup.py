"""Start-up cost and package surface: engines load only when a command uses them.

pytest has imported numpy long before these tests run, so each start-up
case runs in a fresh interpreter, with ``-O`` when this suite runs under it:
lazy loading must not depend on an ``assert``.
"""
import json
import os
import subprocess
import sys

import pytest

import ruinlab

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
ENGINES = ("ruinlab.montecarlo", "ruinlab.oracle", "ruinlab.series")
WATCHED = ("numpy", *ENGINES, "concurrent.futures.process")


def fresh_python(code: str) -> subprocess.CompletedProcess:
    return run_python("-c", code)


def run_python(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    flags = ["-O"] if sys.flags.optimize else []
    return subprocess.run(
        [sys.executable, *flags, *args],
        env=env, capture_output=True, text=True, timeout=60,
    )


def loaded_after_main(*argv: str, watched: tuple[str, ...] = WATCHED) -> tuple[int, set[str]]:
    """Exit code of ``main(argv)`` in a fresh interpreter, and which of
    ``watched`` it left in ``sys.modules``."""
    code = f"""
import contextlib, io, json, sys
from ruinlab.cli import main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    exit_code = main({list(argv)!r})
print(json.dumps([exit_code, [m for m in {watched!r} if m in sys.modules]]))
"""
    proc = fresh_python(code)
    assert proc.returncode == 0, proc.stderr
    exit_code, loaded = json.loads(proc.stdout)
    return exit_code, set(loaded)


TRANSFORM = ("transform", "--p", "0.5", "--gain-factor", "0.75", "--loss-factor", "-0.75",
             "--target-gain-factor", "0.5")


@pytest.mark.parametrize(
    "argv, expected_exit, expected",
    [
        (("calibrate", "--loss-level", "0.25"), 0, {"ruinlab.model"}),
        ((*TRANSFORM, "--target-loss-factor", "-0.5", "--loss-level", "0.25"), 0,
         {"ruinlab.model", "ruinlab.transform"}),
        ((*TRANSFORM, "--target-loss-factor", "0.1"), 3,  # infeasible target
         {"ruinlab.model", "ruinlab.transform"}),
        (("demo", "--format", "csv"), 0, {"csv"}),
        (("--version",), 0, set()),
        (("series", "--p", "73%", "--distance", "2"), 2, set()),
        (("exact", "--p", "73", "--distance", "2"), 2, set()),
        (("calibrate", "--loss-level", "0.25", "--format", "csv"), 0, {"ruinlab.model", "csv"}),
        (("demo",), 0, set()),
        (("demo", "--format", "json"), 0, set()),
    ],
    ids=["calibrate", "transform", "transform-exit-3", "demo", "version",
         "series-percent", "exact-out-of-range", "calibrate-csv", "demo-human", "demo-json"],
)
def test_commands_without_an_engine_start_without_numpy(argv, expected_exit, expected):
    # each command loads only the ruinlab modules it calls, csv only for
    # CSV output, and no dataclasses (nor the inspect it imports)
    watched = (*WATCHED, "ruinlab.model", "ruinlab.transform", "csv", "dataclasses", "inspect")
    exit_code, loaded = loaded_after_main(*argv, watched=watched)
    assert exit_code == expected_exit
    assert loaded == expected


@pytest.mark.parametrize("module", ENGINES)
def test_engines_load_no_dataclasses(module):
    # numpy imports inspect itself, so only dataclasses is pinned here
    proc = fresh_python(f"import sys, {module}\nprint('dataclasses' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]


@pytest.mark.parametrize(
    "argv, engines",
    [
        (("series", "--p", "0.5", "--distance", "2", "--max-gains", "5"),
         {"ruinlab.series", "ruinlab.oracle"}),
        (("series", "--p", "0.5", "--distance", "2", "--max-gains", "5", "--mode", "paper"),
         {"ruinlab.series", "ruinlab.oracle"}),
        (("exact", "--p", "0.5", "--distance", "2", "--horizon", "10"), {"ruinlab.oracle"}),
    ],
    ids=["series-exact", "series-paper", "exact"],
)
def test_series_and_exact_leave_monte_carlo_unloaded(argv, engines):
    exit_code, loaded = loaded_after_main(*argv)
    assert exit_code == 0
    assert loaded == {"numpy", *engines}


@pytest.mark.parametrize("fmt, loads_decimal", [("json", False), ("csv", False), ("human", True)])
def test_only_human_series_output_loads_decimal(fmt, loads_decimal):
    # counts past 24 digits get a Decimal short form in human lines only;
    # JSON and CSV print the exact text and never format a human line
    code = f"""
import contextlib, io, sys
from ruinlab.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    exit_code = main(["series", "--p", "0.5", "--distance", "3", "--max-gains", "600",
                      "--format", {fmt!r}])
print(exit_code, "decimal" in sys.modules)
"""
    proc = fresh_python(code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", str(loads_decimal)]


def test_simulate_on_one_worker_loads_no_process_pool():
    exit_code, loaded = loaded_after_main(
        "simulate", "--p", "0.5", "--distance", "2", "--trials", "10",
        "--max-steps", "10", "--seed", "1",
    )
    assert exit_code == 0
    assert loaded == {"numpy", *ENGINES}


def test_entry_point_exits_zero_for_demo():
    proc = fresh_python(
        "import sys\n"
        "sys.argv = ['ruinlab', 'demo']\n"
        "from ruinlab.cli import entry_point\n"
        "entry_point()\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert "2011" in proc.stdout


@pytest.mark.parametrize("module", ["ruinlab", "ruinlab.cli"])
def test_module_entry_points_run_the_cli_without_numpy(module):
    argv = ["calibrate", "--loss-level", "0.25", "--format", "json"]
    expected = fresh_python(f"from ruinlab.cli import main\nmain({argv!r})\n")
    assert expected.returncode == 0, expected.stderr
    proc = run_python("-X", "importtime", "-m", module, *argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == expected.stdout
    imported = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()}
    # the import log is there to read (it omits importlib.import_module,
    # which loads ruinlab.model here, but not the imports that module makes)
    assert "ruinlab.errors" in imported
    assert "numpy" not in imported


@pytest.mark.parametrize(
    "code, loaded",
    [
        ("import ruinlab", []),
        ("import ruinlab\nruinlab.calibrate", ["ruinlab.errors", "ruinlab.model"]),
        # every command pays for this set before its handler runs
        ("import ruinlab.cli", ["ruinlab.cli", "ruinlab.errors"]),
    ],
    ids=["package", "calibrate", "cli"],
)
def test_imports_load_only_the_modules_they_use(code, loaded):
    proc = fresh_python(
        f"{code}\n"
        "import json, sys\n"
        "print(json.dumps(sorted(m for m in sys.modules\n"
        "                        if m.startswith('ruinlab.')\n"
        "                        or m in ('numpy', 'csv', 'dataclasses', 'inspect'))))\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == loaded


def test_package_import_defers_engines_until_a_name_is_used():
    proc = fresh_python(
        "import json, sys\n"
        "import ruinlab\n"
        f"before = [m for m in {WATCHED!r} if m in sys.modules]\n"
        "ruinlab.simulate\n"
        f"after = [m for m in {WATCHED!r} if m in sys.modules]\n"
        "print(json.dumps([before, after]))\n"
    )
    assert proc.returncode == 0, proc.stderr
    before, after = json.loads(proc.stdout)
    assert before == []
    assert set(after) == {"numpy", *ENGINES}


# ----------------------------------------------------------------------
# package surface
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", [n for n in ruinlab.__all__ if n != "__version__"])
def test_every_public_name_is_its_module_attribute(name):
    value = getattr(ruinlab, name)
    assert value.__module__.startswith("ruinlab.")
    assert getattr(sys.modules[value.__module__], name) is value


def test_star_import_binds_every_public_name():
    # a fresh interpreter, so that every engine name goes through __getattr__
    proc = fresh_python(
        "import json, ruinlab\n"
        "namespace = {}\n"
        "exec('from ruinlab import *', namespace)\n"
        "print(json.dumps([n for n in ruinlab.__all__\n"
        "                  if namespace.get(n) is not getattr(ruinlab, n)]))\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


def test_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no_such_engine"):
        ruinlab.no_such_engine
    assert not hasattr(ruinlab, "no_such_engine")


@pytest.mark.parametrize(
    "name, module",
    [("ruin_series", "series"), ("ruin_probability_dp", "oracle"),
     ("SimConfig", "montecarlo"), ("compare_methods", "montecarlo"),
     ("engine_record", "montecarlo"), ("simulate", "montecarlo")],
)
def test_cli_engine_names_are_the_engine_functions(name, module):
    from ruinlab import cli

    assert getattr(cli, name) is getattr(sys.modules[f"ruinlab.{module}"], name)


def test_cli_handlers_call_the_engine_names_bound_in_the_cli(capsys, monkeypatch):
    # a replacement bound on ruinlab.cli (a test double, a tracing wrapper)
    # is what the handler runs
    from ruinlab import cli

    real, calls = cli.ruin_probability_dp, []

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "ruin_probability_dp", spy)
    assert cli.main(["exact", "--p", "0.5", "--distance", "2", "--horizon", "10"]) == 0
    assert calls == [(0.5, 2, 10)]
    with pytest.raises(AttributeError, match="no_such_engine"):
        cli.no_such_engine
