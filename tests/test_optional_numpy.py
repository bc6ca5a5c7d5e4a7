"""excspec does not use numpy: the package, the CLI (the brute-force `mu`
oracle included) and both scripts run with numpy unimportable.  Nor does
its runtime path load `fractions` or `decimal`, whose import a cold query
would pay, and `import excspec.cli` loads no stdlib module beyond those
it loads today.  Each run happens in a fresh interpreter, so that what
this test session has loaded does not count."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# One argv of every subcommand, and both brute-force `mu` routes.
NUMPY_FREE_ARGVS = [
    ["ring", "4", "--check"],
    ["ring", "3", "--table"],
    ["ring", "4", "--cokernel"],
    ["ideals", "3", "2", "2", "--count"],
    ["ideals", "3", "2", "2", "--list", "--json"],
    ["spec", "balmer", "-d", "4", "-p", "2,3", "-H", "3", "--dot"],
    ["spec", "zariski", "-d", "4", "-p", "2,3", "--json"],
    ["spec", "hz", "-d", "4", "-p", "2", "--slice", "2", "--text"],
    ["delta", "2", "3", "1"],
    ["smith", "4", "2", "4", "2", "3", "2"],
    ["mu", "3", "3", "5"],
    ["mu", "3", "3", "5", "--method", "incl-excl"],
    ["mu", "3", "3", "5", "--method", "stirling"],
    ["mu", "3", "3", "5", "--method", "brute"],
    ["mu", "3", "3", "5", "--all"],
    ["mu", "5", "5", "7", "--all"],  # past the brute budget: no sweep
]

# Imports excspec, runs each argv of sys.argv[1] through cli.main, then
# each script, and prints whether numpy was loaded after every step.
FENCE = """
import contextlib, io, json, runpy, sys
steps = []
def step(name, code, out):
    steps.append([name, code, out, "numpy" in sys.modules])
import excspec
step("import excspec", 0, "")
from excspec import cli
step("import excspec.cli", 0, "")
for argv in json.loads(sys.argv[1]):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(argv)
    step(" ".join(argv), code, buffer.getvalue())
for script, args in json.loads(sys.argv[2]):
    sys.argv, code = [script, *args], 0
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            runpy.run_path(script, run_name="__main__")
        except SystemExit as exc:
            code = exc.code
    step(script, code, "")
print(json.dumps(steps))
"""

# Imports excspec.cli, runs each argv of sys.argv[1] through cli.main,
# then imports fractions, and prints which of the fenced stdlib modules
# were loaded after each of the three steps.
STDLIB_FENCE = """
import contextlib, io, json, sys
fenced = ("fractions", "decimal")
steps = []
def step():
    steps.append([name for name in fenced if name in sys.modules])
from excspec import cli
step()
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(argv)
step()
import fractions
step()
print(json.dumps(steps))
"""

# The stdlib modules that the package imports directly.  Start-up may load
# what importing these loads and nothing more: the set may shrink, but a
# new import must be weighed against the start-up it costs.
STARTUP_IMPORTS = (
    "__future__", "argparse", "collections", "dataclasses", "functools", "itertools",
    "json", "math", "operator", "os", "random", "sys", "typing",
)

# Prints the modules that importing sys.argv[1:] adds to sys.modules.
LOADS = """
import importlib, sys
before = set(sys.modules)
for name in sys.argv[1:]:
    importlib.import_module(name)
print(" ".join(sorted(set(sys.modules) - before)))
"""

# Runs cli.main on sys.argv[1:] with numpy made unimportable.
WITHOUT_NUMPY = """
import sys
sys.modules["numpy"] = None
from excspec.cli import main
sys.exit(main(sys.argv[1:]))
"""


def _python(*args: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    )}
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env,
        cwd=ROOT, timeout=120,
    )


def _fence(argvs, scripts=()) -> list:
    done = _python("-c", FENCE, json.dumps(argvs), json.dumps(scripts))
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_runtime_path_never_imports_numpy(tmp_path):
    scripts = [
        ["scripts/blueshift_survey.py", ["--kmax", "6", "--dmax", "3"]],
        ["scripts/spectrum_gallery.py", ["--out", str(tmp_path)]],
    ]
    steps = _fence(NUMPY_FREE_ARGVS, scripts)
    assert len(steps) == 2 + len(NUMPY_FREE_ARGVS) + len(scripts)
    for name, code, _, numpy_loaded in steps:
        assert code == 0, name
        assert not numpy_loaded, f"{name} imported numpy"


def test_fence_sees_numpy_load(tmp_path):
    """The fence is not vacuous: a script that imports a module named
    numpy (a stand-in, so the check needs no numpy installed) shows up."""
    (tmp_path / "numpy.py").write_text("")
    script = tmp_path / "loads_numpy.py"
    script.write_text(f"import sys\nsys.path.insert(0, {str(tmp_path)!r})\nimport numpy\n")
    steps = _fence([["mu", "3", "3", "5", "--method", "brute"]], [[str(script), []]])
    (_, code, brute, before), (_, _, _, after) = steps[-2:]
    assert (code, brute, before) == (0, "90\n", False)
    assert after


def test_runtime_path_never_imports_fractions_or_decimal():
    done = _python("-c", STDLIB_FENCE, json.dumps(NUMPY_FREE_ARGVS))
    assert done.returncode == 0, done.stderr
    # the last step shows the fence sees a load: fractions imports decimal
    assert json.loads(done.stdout) == [[], [], ["fractions", "decimal"]]


def _loads(*names: str) -> set:
    # -S: no site hooks, so that a .pth file's imports do not hide any
    done = _python("-S", "-c", LOADS, *names)
    assert done.returncode == 0, done.stderr
    return set(done.stdout.split())


def test_startup_loads_no_new_stdlib_module():
    allowed = _loads(*STARTUP_IMPORTS)
    loaded = {name for name in _loads("excspec.cli") if name.split(".")[0] != "excspec"}
    assert loaded <= allowed, sorted(loaded - allowed)
    # the fence sees a load: fractions brings decimal and numbers
    assert not _loads("fractions") <= allowed


@pytest.mark.parametrize("argv, out", [
    (["mu", "3", "3", "5"], "90\n"),
    (["mu", "5", "5", "7", "--all"],
     "brute: skipped (budget)\nincl-excl: 43000\nstirling: 43000\nAGREE\n"),
    (["mu", "3", "3", "5", "--method", "brute"], "90\n"),
    (["mu", "3", "3", "5", "--all"],
     "brute: 90\nincl-excl: 90\nstirling: 90\nAGREE\n"),
])
def test_formulas_run_without_numpy(argv, out):
    done = _python("-c", WITHOUT_NUMPY, *argv)
    assert (done.returncode, done.stdout, done.stderr) == (0, out, "")


# A line regex, not an AST row of tests/test_fences.py: it also matches
# import text in a docstring, which the syntax tree does not search.
NUMPY_IMPORT = re.compile(r"\b(import|from)\s+numpy\b")


def test_no_numpy_import_in_the_program():
    offenders = [
        f"{path.relative_to(ROOT)}:{n}"
        for folder in ("src", "scripts")
        for path in sorted((ROOT / folder).rglob("*.py"))
        for n, line in enumerate(path.read_text().splitlines(), start=1)
        if NUMPY_IMPORT.search(line)
    ]
    assert offenders == []


@pytest.mark.parametrize("line, found", [
    ("import numpy as np", True),
    ("from numpy import linalg", True),
    ("    import numpy", True),
    ("import numpyish", False),
])
def test_the_numpy_fence_sees_its_sample(line, found):
    assert bool(NUMPY_IMPORT.search(line)) is found
