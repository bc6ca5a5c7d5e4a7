"""numpy is an optional dependency: only the brute-force oracle `mu_brute`
imports it, on its first call.  Each test runs in a fresh interpreter,
since this test session has numpy loaded already (the acceptance suite
imports it)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# One argv of every subcommand that must run without numpy.
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


def test_brute_force_oracle_imports_numpy():
    """The fence is not vacuous: the child can see numpy load, and the
    oracle it loads for agrees with inclusion-exclusion."""
    steps = _fence([["mu", "3", "3", "5"], ["mu", "3", "3", "5", "--method", "brute"]])
    (_, _, incl_excl, before), (_, code, brute, after) = steps[-2:]
    assert not before
    assert code == 0
    assert brute == incl_excl == "90\n"
    assert after


@pytest.mark.parametrize("argv", [
    ["mu", "3", "3", "5", "--method", "brute"],
    ["mu", "3", "3", "5", "--all"],
])
def test_oracle_without_numpy_is_a_usage_error(argv):
    done = _python("-c", WITHOUT_NUMPY, *argv)
    assert done.returncode == 2
    assert done.stdout == ""
    assert "Traceback" not in done.stderr
    lines = done.stderr.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error:") and "numpy" in lines[0]


@pytest.mark.parametrize("argv, out", [
    (["mu", "3", "3", "5"], "90\n"),
    (["mu", "5", "5", "7", "--all"],
     "brute: skipped (budget)\nincl-excl: 43000\nstirling: 43000\nAGREE\n"),
])
def test_formulas_run_without_numpy(argv, out):
    done = _python("-c", WITHOUT_NUMPY, *argv)
    assert (done.returncode, done.stdout, done.stderr) == (0, out, "")
