"""The README's demo scripts, its library example, and the export list they
import from.

The scripts read their integer options as the CLI does: integers follow the
CLI's decimal rule, indices go through skein.odd_index, and a bad value exits
2 with one `error:` line and nothing on stdout.  The `## Library` block runs
as written and prints what its comments say.  `torkit.__all__` names exactly
the public names the package binds, apart from its submodules.  Every
Python file of the repository compiles with warnings as errors.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import warnings
from pathlib import Path
from types import ModuleType

import pytest

import torkit

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *argv):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *argv], capture_output=True, text=True, env=env
    )


@pytest.mark.parametrize(
    "name, argv, message",
    [
        ("invariant_tables.py", ["--n-max", "١"], "invalid decimal_int value"),
        ("invariant_tables.py", ["--n-max", "0"], "error: torus index must be a positive integer, got 0"),
        ("invariant_tables.py", ["--n-max", "4"], "error: T(4,2) is a two-component link"),
        ("three_step_walkthrough.py", ["--n-max", "٣"], "invalid decimal_int value"),
        ("three_step_walkthrough.py", ["--check-to", "+21"], "invalid decimal_int value"),
        ("three_step_walkthrough.py", ["--n-max", "-1"], "error: torus index must be a positive integer, got -1"),
        ("three_step_walkthrough.py", ["--n-max", "1"], "error: --n-max must be at least 3, got 1"),
        ("three_step_walkthrough.py", ["--check-to", "4"], "error: T(4,2) is a two-component link"),
    ],
)
def test_bad_integers_exit_2_with_one_error_line(name, argv, message):
    proc = run_script(name, *argv)
    assert proc.returncode == 2
    assert proc.stdout == ""
    errors = [line for line in proc.stderr.splitlines() if "error:" in line]
    assert len(errors) == 1 and message in errors[0], proc.stderr


def test_tables_accept_a_decimal_index():
    proc = run_script("invariant_tables.py", "--n-max", "3", "--family", "jones")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "== jones ==\n  T(1,2): 1\n  T(3,2): -t^4 + t^3 + t\n\n"


def test_readme_library_block_runs_and_prints_its_comments():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^## Library\n\n```python\n(.*?)^```$", readme, re.S | re.M)
    assert block, "README has no ## Library python block"
    code = block[1]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    comments = [line.split("# ", 1)[1] for line in code.splitlines() if line.startswith("print(")]
    assert proc.stdout.splitlines() == comments


def test_export_list_is_what_the_package_binds():
    bound = {
        name
        for name, value in vars(torkit).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert sorted(torkit.__all__) == sorted(bound)
    namespace: dict = {}
    exec("from torkit import *", namespace)
    assert set(torkit.__all__) <= set(namespace)


@pytest.mark.parametrize("folder", ["src", "scripts", "tests", "perfbench"])
def test_sources_compile_with_warnings_as_errors(folder):
    # An invalid escape such as "\d" in a non-raw string warns when it is
    # compiled (DeprecationWarning before 3.12, SyntaxWarning after), and
    # no test imports scripts/ or perfbench/.  compile() writes no .pyc.
    paths = sorted((ROOT / folder).rglob("*.py"))
    assert paths
    for path in paths:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            compile(path.read_bytes(), str(path), "exec")
