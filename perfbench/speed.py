"""Machine-speed probe: scales measured times to one nominal machine speed.

On a shared host the CPU that runs the benchmark can switch, for seconds to
minutes at a time, between states about 1.5x apart in speed (another tenant
on the sibling hardware thread, for instance).  Such a switch slows torkit
and any other pure-Python code alike, so medians within a run cannot remove
it: on a 2-vCPU Intel Xeon cloud VM with CPython 3.11, 30-second runs of
identical work made minutes apart differed by up to 35%.  The probe times a fixed pure-Python kernel that does not touch torkit,
between ops, every INTERVAL_S seconds.  A time measured in [start, end] is
scaled by NOMINAL_S over the median probe duration around that interval,
which reports it as it would read on a machine where the kernel takes
NOMINAL_S.  Raw wall times are recorded beside the scaled ones.
"""

from __future__ import annotations

import bisect
import json
import re
import statistics
from time import perf_counter

NOMINAL_S = 3e-3
INTERVAL_S = 0.1
WINDOW_S = 0.5


_A = {(4 * i, 4 * (i % 7)): 3 ** (i % 40) * (-1) ** i for i in range(48)}
_B = {(4 * i + 2, 4 * (i % 5)): 5 ** (i % 30) for i in range(48)}
_WORD = re.compile(r"[a-z]\w*")
_TEXT = "q^(1/2)*p^(-1/4) - t^3 + a*z^2 " * 20


class _Node:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: str):
        self.key = key
        self.value = value

    def size(self) -> int:
        return len(self.value) + self.key


def _kernel() -> int:
    # The kinds of work torkit does, in roughly equal shares: dict and tuple
    # updates, a sparse product with big-integer coefficients, small objects
    # and method calls, and text and JSON rendering.
    acc: dict = {}
    for i in range(1500):
        key = (i & 63, i >> 6)
        acc[key] = acc.get(key, 0) + i * i
    out: dict = {}
    for ea, ca in _A.items():
        for eb, cb in _B.items():
            key = (ea[0] + eb[0], ea[1] + eb[1])
            out[key] = out.get(key, 0) + ca * cb
    total = sum(_Node(i, str(i)).size() for i in range(1800))
    for _ in range(3):
        rows = [{"exp": [i, -i], "coeff": str(7 ** (i % 25))} for i in range(120)]
        total += len(json.dumps(rows, separators=(",", ":")))
        total += len("*".join(f"{w}^({i}/4)" for i, w in enumerate(_WORD.findall(_TEXT))))
    return len(acc) + len(out) + total


class SpeedProbe:
    """Probe durations over time, and the scale factor they give a measurement."""

    def __init__(self):
        self.times: list[float] = []
        self.durations: list[float] = []

    def probe(self) -> None:
        start = perf_counter()
        _kernel()
        end = perf_counter()
        self.times.append((start + end) / 2)
        self.durations.append(end - start)

    def tick(self) -> None:
        """Probe if INTERVAL_S has passed since the last probe."""
        if not self.times or perf_counter() - self.times[-1] >= INTERVAL_S:
            self.probe()

    def factor(self, start: float, end: float) -> float:
        """NOMINAL_S over the median probe within WINDOW_S of [start, end],
        always including the last probe before it and the first after it."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        lo = min(lo, max(0, bisect.bisect_left(self.times, start) - 1))
        hi = max(hi, min(len(self.times), bisect.bisect_right(self.times, end) + 1))
        return NOMINAL_S / statistics.median(self.durations[lo:hi])
