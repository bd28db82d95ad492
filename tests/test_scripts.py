"""The README's demo script, its library example, and the export list they
import from.

The walkthrough takes no options and walks every family in registry order:
HOMFLY stops at the two-parameter split, and every other family's closed form
agrees with its recurrence.  The `## Library` block runs as written and
prints what its comments say.  `torkit.__all__` names exactly the public
names the package binds, apart from its submodules.  No module but
`laurent` reads a polynomial's private term dict or names the parts of its
recurrence stepper.  Every Python file of the repository compiles with
warnings as errors.
"""

from __future__ import annotations

import ast
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path
from types import ModuleType

import pytest

import torkit
from torkit import FAMILIES

ROOT = Path(__file__).resolve().parents[1]


def run_script(name):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name)], capture_output=True, text=True, env=env
    )


def test_walkthrough_reaches_each_familys_last_stage():
    proc = run_script("three_step_walkthrough.py")
    assert proc.returncode == 0, proc.stderr
    sections = re.split(r"^family: ", proc.stdout, flags=re.M)[1:]
    assert [section.split()[0] for section in sections] == list(FAMILIES)
    for name, section in zip(FAMILIES, sections):
        expected = "not available for this family" if name == "homfly" else "all cross-checks agree"
        assert expected in section, section


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


def test_only_laurent_reads_term_dicts():
    # Every other module goes through the public `.terms` copy, so the
    # private mapping has one owner.
    readers = [
        f"{path.name}:{node.lineno}"
        for path in sorted((ROOT / "src" / "torkit").glob("*.py"))
        if path.name != "laurent.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr == "_terms"
    ]
    assert readers == []


def test_only_laurent_names_the_packed_stepper():
    # How a recurrence is stepped is decided in one module: every other
    # module steps through laurent._steps and names none of its parts.
    parts = {"_packed_steps", "_PACKED_MIN_TERMS", "_PACKED_SLOTS_PER_TERM"}
    namers = [
        f"{path.name}:{node.lineno}"
        for path in sorted((ROOT / "src" / "torkit").glob("*.py"))
        if path.name != "laurent.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Name) and node.id in parts
        or isinstance(node, ast.Attribute) and node.attr in parts
        or isinstance(node, ast.alias) and {node.name, node.asname} & parts
    ]
    assert namers == []


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
