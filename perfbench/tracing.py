"""The traced run's spans, the wrappers that record them, and the per-layer metrics.

install() wraps the public functions of torkit's layers (cli, families,
skein, qnumbers, laurent; report only holds check results) and puts each
wrapper everywhere the program looks the function up: module attributes,
including the copies that `from .x import name` makes, the LaurentPoly and
OutputRecord class dicts, the functions held in cli._CONVERSIONS, and the
closed_form field of each frozen FamilySpec.

A span records its name, start, end, parent span and op id.  Spans stay in
memory until the run ends.  A span's self time is its duration minus the
part its child spans cover and minus the wrappers' own bookkeeping inside it,
which each wrapper measures and charges to its parent.
"""

from __future__ import annotations

import gzip
import json
import statistics
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter

from torkit import cli, families, laurent, qnumbers, skein

MODULES = (laurent, qnumbers, skein, families, cli)
LaurentPoly = laurent.LaurentPoly


class Tracer:
    """Spans in flat arrays, plus the exact counters of the current pass."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.overhead = array("d")
        self.stack: list[int] = []
        self.op_id = -1
        self.counts: Counter = Counter()

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        entered = perf_counter()
        parent = self.stack[-1] if self.stack else -1
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(parent)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self.overhead.append(0.0)
        self.stack.append(idx)
        start = perf_counter()
        self.start.append(start)
        if parent >= 0:
            self.overhead[parent] += start - entered
        return idx

    def close(self, idx: int, end: float) -> None:
        """End span idx at `end`; bookkeeping done since then is charged to its parent."""
        self.end[idx] = end
        self.stack.pop()
        parent = self.parent[idx]
        if parent >= 0:
            self.overhead[parent] += perf_counter() - end

    def fold(self, first: int, last: int, scale: list[float]) -> tuple[Counter, Counter]:
        """Calls and self seconds per span name over spans [first, last), each
        span's time multiplied by scale[its op id]."""
        covered = [0.0] * (last - first)
        for i in range(first, last):
            if self.parent[i] >= first:
                covered[self.parent[i] - first] += self.end[i] - self.start[i]
        calls, self_s = Counter(), Counter()
        for i in range(first, last):
            name = self.names[self.name[i]]
            calls[name] += 1
            own = self.end[i] - self.start[i] - covered[i - first] - self.overhead[i]
            self_s[name] += own * scale[self.op[i]]
        return calls, self_s

    def write(self, path: Path) -> None:
        """All spans as gzipped tab-separated rows, times in seconds from the first start."""
        t0 = self.start[0] if self.start else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span\tname\tparent\top\tstart_s\tend_s\n")
            for i in range(len(self.name)):
                fh.write(
                    f"{i}\t{self.names[self.name[i]]}\t{self.parent[i]}\t{self.op[i]}\t"
                    f"{self.start[i] - t0!r}\t{self.end[i] - t0!r}\n"
                )


def _wrap(tracer: Tracer, fn, name, count=None):
    """A wrapper that records a span around fn; `name` may pick by arguments."""
    nid = tracer.intern(name) if isinstance(name, str) else None

    def traced(*args, **kwargs):
        idx = tracer.open(nid if nid is not None else tracer.intern(name(args)))
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            tracer.close(idx, perf_counter())
            raise
        end = perf_counter()
        if count is not None:
            count(tracer.counts, args, result)
        tracer.close(idx, end)
        return result

    traced.__wrapped__ = fn
    return traced


def _mul_layer(args) -> str:
    return "laurent.mul.uni" if len(args[0].context) == 1 else "laurent.mul.bi"


def _count_mul(counts, args, result) -> None:
    self, other = args
    other_terms = other.num_terms if isinstance(other, LaurentPoly) else 1
    counts[_mul_layer(args) + ".term_pairs"] += self.num_terms * other_terms
    # Products are where the largest polynomials appear.
    counts["laurent.max_terms"] = max(counts["laurent.max_terms"], result.num_terms)
    bits = max(map(abs, result.terms.values()), default=0).bit_length()
    counts["laurent.max_coeff_bits"] = max(counts["laurent.max_coeff_bits"], bits)


def _count_terms_in(counts, args, result) -> None:
    counts["laurent.substitute_poly.terms_in"] += args[0].num_terms


def _count_text(counts, args, result) -> None:
    counts["laurent.canonical_string.bytes_out"] += len(result)


def _count_json(counts, args, result) -> None:
    counts["laurent.to_json.bytes_out"] += len(json.dumps(result, separators=(",", ":")))


def _count_root(counts, args, result) -> None:
    counts["laurent.exact_sqrt.ok"] += 1


def _targets():
    """(function, span name, counter) for every traced function."""
    LP = LaurentPoly
    closed_forms = {spec.closed_form for spec in families.FAMILIES.values() if spec.closed_form}
    return [
        (LP.__init__, "laurent.construct", None),
        (LP.__mul__, _mul_layer, _count_mul),
        (LP.__add__, "laurent.add", None),
        (LP.__sub__, "laurent.add", None),
        (LP.__rsub__, "laurent.add", None),
        (LP.__neg__, "laurent.add", None),
        (LP.substitute_poly, "laurent.substitute_poly", _count_terms_in),
        (LP.substitute_monomial, "laurent.substitute_monomial", None),
        (LP.canonical_string, "laurent.canonical_string", _count_text),
        (laurent.exact_sqrt, "laurent.exact_sqrt", _count_root),
        (laurent.parse, "laurent.parse", None),
        (laurent.to_json, "laurent.to_json", None),
        (laurent.to_json_obj, "laurent.to_json", _count_json),
        (laurent.from_json, "laurent.from_json", None),
        (laurent.from_json_obj, "laurent.from_json", None),
        (skein.gen_odd_sequence, "skein.gen_odd_sequence", None),
        (skein.gen_full_sequence, "skein.gen_full_sequence", None),
        (skein.k_to_l, "skein.k_to_l", None),
        (skein.fit_ansatz, "skein.fit_ansatz", None),
        (qnumbers.q_number, "qnumbers.construct", None),
        (qnumbers.qp_number, "qnumbers.construct", None),
        (qnumbers.jones_number, "qnumbers.construct", None),
        (qnumbers.verify_q_recurrence, "qnumbers.verify_recurrence", None),
        (qnumbers.verify_qp_recurrence, "qnumbers.verify_recurrence", None),
        *((fn, "families.closed_form", None) for fn in closed_forms),
        (families.alexander_torus, "families.torus", None),
        (families.generalized_alexander_torus, "families.torus", None),
        (families.jones_torus, "families.torus", None),
        (families.homfly_torus, "families.torus", None),
        (families.to_alexander, "families.substitute.to_alexander", None),
        (families.to_jones, "families.substitute.to_jones", None),
        (families.homfly_to_generalized, "families.substitute.homfly_to_generalized", None),
        (cli.main, "cli.main", None),
        (cli.OutputRecord.render, "cli.render", None),
    ]


def install(tracer: Tracer) -> list:
    """Put a traced wrapper at every place torkit binds a traced function.

    Returns the undo list for restore().  Raises RuntimeError if a traced
    function is bound nowhere, which would leave its layer unmeasured.
    """
    undo = []
    for fn, name, count in _targets():
        wrapper = _wrap(tracer, fn, name, count)
        found = 0
        for owner in (*MODULES, LaurentPoly, cli.OutputRecord):
            for attr, value in list(vars(owner).items()):
                if value is fn:
                    undo.append((setattr, owner, attr, value))
                    setattr(owner, attr, wrapper)
                    found += 1
        for key, value in list(cli._CONVERSIONS.items()):
            if value is fn:
                undo.append((dict.__setitem__, cli._CONVERSIONS, key, value))
                cli._CONVERSIONS[key] = wrapper
                found += 1
        for spec in families.FAMILIES.values():
            if spec.closed_form is fn:
                undo.append((object.__setattr__, spec, "closed_form", fn))
                object.__setattr__(spec, "closed_form", wrapper)
                found += 1
        if not found:
            raise RuntimeError(f"traced function {fn.__qualname__} is bound nowhere")
    return undo


def restore(undo: list) -> None:
    for setter, owner, key, value in reversed(undo):
        setter(owner, key, value)


# -- per-layer metrics ---------------------------------------------------------

CALLS = (
    "laurent.construct",
    "laurent.mul.uni",
    "laurent.mul.bi",
    "laurent.exact_sqrt",
    "skein.gen_odd_sequence",
    "qnumbers.construct",
    "families.closed_form",
)
SELF_TIMES = (
    "laurent.construct",
    "laurent.mul.uni",
    "laurent.mul.bi",
    "laurent.add",
    "laurent.substitute_poly",
    "laurent.substitute_monomial",
    "laurent.exact_sqrt",
    "laurent.to_json",
    "laurent.canonical_string",
    "laurent.parse",
    "laurent.from_json",
    "skein.gen_odd_sequence",
    "skein.k_to_l",
    "skein.fit_ansatz",
    "skein.gen_full_sequence",
    "qnumbers.construct",
    "qnumbers.verify_recurrence",
    "families.closed_form",
    "families.torus",
    "families.substitute.to_alexander",
    "families.substitute.to_jones",
    "families.substitute.homfly_to_generalized",
    "cli.main",
    "cli.render",
)
COUNTERS = (
    ("laurent.mul.uni.term_pairs", "count", "lower"),
    ("laurent.mul.bi.term_pairs", "count", "lower"),
    ("laurent.substitute_poly.terms_in", "count", "lower"),
    ("laurent.to_json.bytes_out", "B", "lower"),
    ("laurent.canonical_string.bytes_out", "B", "lower"),
    ("laurent.max_terms", "count", "lower"),
    ("laurent.max_coeff_bits", "bit", "lower"),
    ("cli.output_bytes", "B", "lower"),
)
TRACE_METRICS = (
    ("trace.ops_per_s", "1/s", "higher"),
    ("trace.untraced_ops_per_s", "1/s", "higher"),
    ("trace.overhead_ops_per_s", "1/s", "higher"),
)


def metric_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    return [
        *((f"{layer}.calls", "count", "lower") for layer in CALLS),
        *((f"{layer}.self_s", "s", "lower") for layer in SELF_TIMES),
        *COUNTERS,
        ("laurent.exact_sqrt.ok_ratio", "ratio", "higher"),
        *TRACE_METRICS,
    ]


def exact_metrics(calls: Counter, counts: Counter) -> dict:
    """The per-pass counts that must repeat exactly for a fixed op list."""
    out = {f"{layer}.calls": calls[layer] for layer in CALLS}
    out.update({name: counts[name] for name, _, _ in COUNTERS})
    # With no root attempts the ratio has no base; it reads 0 beside 0 calls.
    attempts = calls["laurent.exact_sqrt"]
    out["laurent.exact_sqrt.ok_ratio"] = counts["laurent.exact_sqrt.ok"] / attempts if attempts else 0.0
    return out


def layer_metrics(passes: list[tuple[Counter, Counter, Counter]]) -> tuple[dict, list[str]]:
    """Per-layer values from the traced passes, and any exact count that differed.

    Each pass is (calls, self seconds, counters).  Counts come from the first
    pass; self times are the median over passes, in scaled seconds per pass.
    """
    exact = [exact_metrics(calls, counts) for calls, _, counts in passes]
    mismatched = [name for name in exact[0] if any(e[name] != exact[0][name] for e in exact[1:])]
    values = dict(exact[0])
    for layer in SELF_TIMES:
        values[f"{layer}.self_s"] = statistics.median(self_s[layer] for _, self_s, _ in passes)
    return values, mismatched
