"""Uniform pass/fail reporting for the library's identity checks."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable


@dataclass(frozen=True)
class CheckFailure:
    """One counterexample: the index it occurred at and both sides as text."""

    n: int
    lhs: str
    rhs: str
    note: str = ""


@dataclass(frozen=True)
class CheckReport:
    """Outcome of checking one identity over a range of indices."""

    name: str
    checked: int
    failures: tuple[CheckFailure, ...] = ()

    @property
    def passed(self) -> bool:
        return not self.failures

    def format_line(self) -> str:
        if self.passed:
            return f"PASS {self.name} ({self.checked} cases)"
        f = self.failures[0]
        if not f.lhs and not f.rhs:
            return f"FAIL {self.name}: {f.note}"
        detail = f" [{f.note}]" if f.note else ""
        return f"FAIL {self.name}: first counterexample at n={f.n}: {f.lhs} != {f.rhs}{detail}"


def compare(name: str, cases: Iterable[tuple[int, object, object]]) -> CheckReport:
    """Decide lhs == rhs for every (n, lhs, rhs) case; one case per triple.

    Cases are drawn lazily, so an exception raised while building one
    propagates to the caller unchanged.
    """
    checked = 0
    failures = []
    for n, lhs, rhs in cases:
        checked += 1
        if lhs != rhs:
            failures.append(CheckFailure(n, str(lhs), str(rhs)))
    return CheckReport(name, checked, tuple(failures))
