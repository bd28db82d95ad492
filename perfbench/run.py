"""torkit benchmark: seeded workloads run in process against src/torkit.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 30 --trace 0

Run it from the repository root; it imports torkit from ./src and installs
nothing.  One process, one thread: every workload is a closed loop with one
client (see workloads.py).  Every op's output is checked; a wrong output, a
nonzero exit code or an exception counts as a failed op.

Times are scaled to one nominal machine speed by the probe in speed.py,
because the CPUs of a shared host change speed by about 1.5x for long
stretches; the run line records the raw wall times beside them.

--trace 0 measures the end-to-end metrics with no tracing:
  ops_per_s    ops completed per second of op time, at the stated sizes
  op_p50_ms    median op latency
  op_tail_ms   op latency at the workload's tail percentile, the highest
               percentile that leaves at least ten ops of a run beyond it
  setup_s      median time of a fresh `python -m torkit qnum --n 1` child
               with PYTHONPATH=src: interpreter start, import (which builds
               the family registry) and argparse
  peak_rss_mb  the largest resident set size of this process
Failed ops are counted in the result's `attempted` and `failed` keys.

--trace 1 repeats the seed's first pass of ops, for half the time untraced
and then for half traced (at least two passes), and reports the per-layer
metrics of tracing.py: exact counts per pass, which must repeat across
passes, and median self seconds per pass.  It fails if a layer that the
workload should exercise records no calls.  The spans go to perfbench/out/spans-<workload>.tsv.gz.

The last line of stdout is the result; the line before it records the
environment and run details.  The exit code is 0 only if every check held.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from speed import SpeedProbe

ROOT = Path.cwd()
OUT_DIR = Path(__file__).resolve().parent / "out"
SETUP_ARGV = ("-m", "torkit", "qnum", "--n", "1")
SETUP_REPEATS = 15
PERCENTILES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)


class Loop:
    """Outcome of one closed loop: op times, failures, traced pass ranges."""

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.scaled: list[float] = []
        self.failed = 0
        self.elapsed = 0.0
        self.passes = 0
        self.first_error: str | None = None
        self.probe = SpeedProbe()
        self.pass_spans: list[tuple[int, int]] = []
        self.pass_counts: list = []

    @property
    def attempted(self) -> int:
        return len(self.starts)

    @property
    def raw(self) -> list[float]:
        return [end - start for start, end in zip(self.starts, self.ends)]

    @property
    def ops_per_s(self) -> float:
        return len(self.scaled) / sum(self.scaled)

    @property
    def raw_ops_per_s(self) -> float:
        return self.attempted / self.elapsed


def closed_loop(workload, passes, seconds: float, min_passes: int = 1, tracer=None) -> Loop:
    """Run whole passes of ops back to back, as many as best fill `seconds`.

    Whole passes keep a run's op mix fixed: a cut inside a pass would drop a
    random share of its few large ops.  The loop stops at the pass boundary
    nearest to the deadline, after at least min_passes.  With a tracer, each
    op gets a root span, and each pass's span range and exact counters are
    kept.
    """
    loop = Loop()
    root = tracer.intern("bench.op") if tracer else None
    loop.probe.probe()
    start = time.perf_counter()
    deadline = start + seconds
    done = start
    for ops in passes:
        first_span = len(tracer.name) if tracer else 0
        for op in ops:
            if tracer:
                tracer.op_id = loop.attempted
                span = tracer.open(root)
            began = time.perf_counter()
            try:
                ok, out_bytes = workload.run(op)
            except Exception:  # a crashing op is a failed op; keep measuring
                ok, out_bytes = False, 0
                loop.first_error = loop.first_error or f"{op}: {traceback.format_exc()}"
            done = time.perf_counter()
            if tracer:
                tracer.close(span, done)
                tracer.counts["cli.output_bytes"] += out_bytes
            loop.starts.append(began)
            loop.ends.append(done)
            if not ok:
                loop.failed += 1
                loop.first_error = loop.first_error or f"{op}: wrong output"
            loop.probe.tick()
        loop.passes += 1
        if tracer:
            loop.pass_spans.append((first_span, len(tracer.name)))
            loop.pass_counts.append(tracer.counts.copy())
            tracer.counts.clear()
        mean_pass = (done - start) / loop.passes
        if loop.passes >= min_passes and done + mean_pass / 2 >= deadline:
            break
    loop.elapsed = done - start
    loop.probe.probe()
    loop.scaled = [(e - s) * loop.probe.factor(s, e) for s, e in zip(loop.starts, loop.ends)]
    return loop


def nearest_rank(sorted_values: list[float], pct: float) -> float:
    return sorted_values[max(0, math.ceil(pct / 100 * len(sorted_values)) - 1)]


def tail_percentile(count: int, preferred: float) -> tuple[float, int]:
    """(percentile, ops beyond it): the preferred percentile if a run of
    `count` ops leaves at least ten ops beyond it, else the highest that does."""

    def beyond(pct: float) -> int:
        return count - max(1, math.ceil(pct / 100 * count))

    pct = ([p for p in PERCENTILES if p <= preferred and beyond(p) >= 10] or [50.0])[-1]
    return pct, beyond(pct)


def measure_setup() -> tuple[list[float], list[float]]:
    """Scaled and raw times of fresh `python -m torkit` children running a trivial command.

    The children and the speed probe share one CPU, so that the probe sees
    the speed the children ran at.
    """
    env = dict(os.environ, PYTHONPATH="src")
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    probe = SpeedProbe()
    spans = []
    try:
        for _ in range(SETUP_REPEATS):
            probe.probe()
            began = time.perf_counter()
            child = subprocess.run(
                [sys.executable, *SETUP_ARGV], cwd=ROOT, env=env, capture_output=True, text=True, timeout=60
            )
            spans.append((began, time.perf_counter()))
            if child.returncode != 0 or child.stdout != "1\n":
                raise RuntimeError(f"setup command failed ({child.returncode}): {child.stderr.strip()}")
        probe.probe()
    finally:
        os.sched_setaffinity(0, cpus)
    raw = [end - start for start, end in spans]
    return [r * probe.factor(*span) for r, span in zip(raw, spans)], raw


def commit() -> str:
    """HEAD of the checkout if it is a git work tree of its own, else 'unknown'."""
    if not (ROOT / ".git").exists():
        return "unknown"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "torkit").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(args, workload) -> dict:
    return {
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sizes": workload.sizes,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit(),
        "source_sha256": source_sha256(),
    }


def probe_summary(loop: Loop) -> dict:
    d = loop.probe.durations
    return {"probes": len(d), "probe_median_s": statistics.median(d), "probe_min_s": min(d), "probe_max_s": max(d)}


def untraced_run(workload, args, info: dict) -> tuple[dict, list[Loop], list[str]]:
    setup, raw_setup = measure_setup()
    loop = closed_loop(workload, workload.passes(args.seed, fresh=True), args.seconds)
    pct, beyond = tail_percentile(loop.attempted, workload.tail_pct)
    info.update(
        ops=loop.attempted,
        passes=loop.passes,
        elapsed_s=loop.elapsed,
        op_p50_samples=loop.attempted,
        op_tail_percentile=pct,
        op_tail_ops_beyond=beyond,
        fail_ratio=loop.failed / loop.attempted,
        setup_samples=SETUP_REPEATS,
        raw_ops_per_s=loop.raw_ops_per_s,
        raw_op_p50_ms=statistics.median(loop.raw) * 1e3,
        raw_op_tail_ms=nearest_rank(sorted(loop.raw), pct) * 1e3,
        raw_setup_s=statistics.median(raw_setup),
        **probe_summary(loop),
        tracing_overhead="reported by --trace 1 as trace.overhead_ops_per_s",
    )
    metrics = {
        "ops_per_s": (loop.ops_per_s, "1/s"),
        "op_p50_ms": (statistics.median(loop.scaled) * 1e3, "ms"),
        "op_tail_ms": (nearest_rank(sorted(loop.scaled), pct) * 1e3, "ms"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    return metrics, [loop], []


def traced_run(workload, args, info: dict) -> tuple[dict, list[Loop], list[str]]:
    import tracing

    half = args.seconds / 2
    plain = closed_loop(workload, workload.passes(args.seed, fresh=False), half)
    tracer = tracing.Tracer()
    undo = tracing.install(tracer)
    try:
        loop = closed_loop(workload, workload.passes(args.seed, fresh=False), half, min_passes=2, tracer=tracer)
    finally:
        tracing.restore(undo)
    scale = [scaled / (end - start) for scaled, start, end in zip(loop.scaled, loop.starts, loop.ends)]
    passes = [(*tracer.fold(first, last, scale), counts) for (first, last), counts in zip(loop.pass_spans, loop.pass_counts)]
    values, mismatched = tracing.layer_metrics(passes)
    values["trace.ops_per_s"] = loop.ops_per_s
    values["trace.untraced_ops_per_s"] = plain.ops_per_s
    values["trace.overhead_ops_per_s"] = loop.ops_per_s - plain.ops_per_s
    calls = passes[0][0]
    problems = [f"exact count {name} differs between traced passes" for name in mismatched]
    problems += [f"layer {layer} recorded no calls" for layer in workload.should_move if not calls[layer]]
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{workload.name}.tsv.gz"
    tracer.write(spans_path)
    info.update(
        ops_per_pass=loop.attempted // loop.passes,
        untraced_passes=plain.passes,
        traced_passes=loop.passes,
        spans=len(tracer.name),
        spans_file=str(spans_path.relative_to(ROOT)),
        fail_ratio=(plain.failed + loop.failed) / (plain.attempted + loop.attempted),
        tracing_overhead_ops_per_s=values["trace.overhead_ops_per_s"],
        tracing_overhead_share=1 - loop.ops_per_s / plain.ops_per_s,
        raw_tracing_overhead_ops_per_s=loop.raw_ops_per_s - plain.raw_ops_per_s,
        **probe_summary(loop),
    )
    units = {name: unit for name, unit, _ in tracing.metric_specs()}
    metrics = {name: (values[name], units[name]) for name in units}
    return metrics, [plain, loop], problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="torkit benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "torkit" / "__init__.py").is_file():
        print(f"perfbench: no src/torkit under {ROOT}; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    info = environment(args, workload)
    metrics, loops, problems = (traced_run if args.trace else untraced_run)(workload, args, info)
    attempted = sum(loop.attempted for loop in loops)
    failed = sum(loop.failed for loop in loops)
    problems += [f"first failed op: {loop.first_error}" for loop in loops if loop.first_error][:1]
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    correct = failed == 0 and not problems
    print(json.dumps({"run": info}))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
