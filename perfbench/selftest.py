"""Self-tests of the benchmark itself.  Run from the repository root:

    python3 perfbench/selftest.py

1. A corrupted output is counted as a failed op, on every workload.
2. Two traced runs with the same seed give identical exact counts.
3. The metric names and units printed match BENCHMARK.json.
4. Without src/torkit the benchmark exits nonzero and prints no result.

Exits 0 only if every test holds.  Takes about two minutes.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import run

ROOT = run.ROOT
RUN_PY = str(Path(run.__file__).resolve())
sys.path.insert(0, str(ROOT / "src"))

from torkit import cli, families, laurent  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

EXACT_UNITS = {"count", "B", "bit", "ratio"}


@contextmanager
def patched(owner, attr, value):
    original = getattr(owner, attr)
    setattr(owner, attr, value)
    try:
        yield
    finally:
        setattr(owner, attr, original)


@contextmanager
def corrupt_registry():
    # The same fault as `verify --corrupt-family jones`: k2 with its sign flipped.
    original = families.FAMILIES["jones"]
    families.FAMILIES["jones"] = cli._corrupted_registry("jones")["jones"]
    try:
        yield
    finally:
        families.FAMILIES["jones"] = original


def _spaced_render(record):
    return RENDER(record) + " "


def _negated_decode(text):
    return -FROM_JSON(text)


RENDER = cli.OutputRecord.render
FROM_JSON = laurent.from_json
CORRUPTIONS = {
    "verify": corrupt_registry,
    "value-requests": lambda: patched(cli.OutputRecord, "render", _spaced_render),
    "connected-sums": lambda: patched(laurent, "from_json", _negated_decode),
}


def op_size(op: tuple) -> int:
    return sum(int(x) for x in op if str(x).isdigit())


def cheapest_ops(workload, count: int) -> list:
    return sorted(workload.make_pass(random.Random(1)), key=op_size)[:count]


def test_corruption_counts_as_failure() -> list[str]:
    problems = []
    for name, workload in WORKLOADS.items():
        ops = cheapest_ops(workload, 4)
        clean = run.closed_loop(workload, [ops], 0)
        with CORRUPTIONS[name]():
            broken = run.closed_loop(workload, [ops], 0)
        if clean.failed or broken.failed != len(ops):
            problems.append(f"{name}: clean run failed {clean.failed}, corrupted run failed {broken.failed} of {len(ops)}")
    return problems


def result_of(*args: str, cwd: Path = ROOT) -> tuple[int, str]:
    child = subprocess.run(
        [sys.executable, RUN_PY, *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )
    return child.returncode, child.stdout


def test_exact_counts_repeat(results: dict) -> list[str]:
    problems = []
    for name in WORKLOADS:
        runs = []
        for _ in range(2):
            rc, out = result_of("--workload", name, "--seed", "7", "--seconds", "1", "--trace", "1")
            if rc != 0:
                problems.append(f"{name}: traced run exited {rc}")
                break
            runs.append(json.loads(out.splitlines()[-1])["metrics"])
        else:
            results[name] = runs[0]
            exact = [m for m, v in runs[0].items() if v["unit"] in EXACT_UNITS]
            differ = [m for m in exact if runs[0][m]["value"] != runs[1][m]["value"]]
            if differ:
                problems.append(f"{name}: counts differ between two traced runs: {differ}")
    return problems


def test_names_match_benchmark_json(traced: dict) -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    rc, out = result_of("--workload", "verify", "--seed", "7", "--seconds", "1", "--trace", "0")
    printed = {"end_to_end": json.loads(out.splitlines()[-1])["metrics"] if rc == 0 else {}}
    for name, metrics in traced.items():
        printed[f"per_layer ({name})"] = metrics
    for label, metrics in printed.items():
        declared = spec["end_to_end" if label == "end_to_end" else "per_layer"]
        want = {m["name"]: m["unit"] for m in declared}
        got = {m: v["unit"] for m, v in metrics.items()}
        if want != got:
            problems.append(f"{label}: printed metrics differ from BENCHMARK.json: {sorted(set(want.items()) ^ set(got.items()))}")
    if set(WORKLOADS) != {w["name"] for w in spec["workloads"]}:
        problems.append("workload names differ from BENCHMARK.json")
    return problems


def test_refuses_without_program() -> list[str]:
    bare = Path(run.__file__).resolve().parent / "out" / "bare"
    bare.mkdir(parents=True, exist_ok=True)
    rc, out = result_of("--workload", "verify", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
    return [] if rc != 0 and not out.strip() else [f"exit {rc} and output {out!r} without src/torkit"]


def main() -> int:
    traced: dict = {}
    tests = (
        ("corrupted output counts as a failure", test_corruption_counts_as_failure),
        ("exact counts repeat across traced runs", lambda: test_exact_counts_repeat(traced)),
        ("metric names match BENCHMARK.json", lambda: test_names_match_benchmark_json(traced)),
        ("no program, no result", test_refuses_without_program),
    )
    failed = 0
    for label, test in tests:
        problems = test()
        failed += bool(problems)
        print(f"{'FAIL' if problems else 'PASS'} {label}")
        for problem in problems:
            print(f"    {problem}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
