"""Uniform pass/fail reporting for the library's identity checks."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable


def counterexample(n: int, lhs: object, rhs: object) -> str:
    """The text of a failed check: where it first failed and both sides there."""
    return f"first counterexample at n={n}: {lhs} != {rhs}"


@dataclass(frozen=True)
class CheckReport:
    """Outcome of checking one identity: the cases checked and the text of
    the first failure, "" when every case passed."""

    name: str
    checked: int
    failure: str = ""

    @property
    def passed(self) -> bool:
        return not self.failure

    def format_line(self) -> str:
        if self.passed:
            return f"PASS {self.name} ({self.checked} cases)"
        return f"FAIL {self.name}: {self.failure}"


def compare(name: str, cases: Iterable[tuple[int, object, object]]) -> CheckReport:
    """Decide lhs == rhs for every (n, lhs, rhs) case; one case per triple.

    Every case is counted, but only the first mismatch is rendered.  Cases
    are drawn lazily, so an exception raised while building one propagates
    to the caller unchanged.
    """
    checked = 0
    failure = ""
    for n, lhs, rhs in cases:
        checked += 1
        if lhs != rhs and not failure:
            failure = counterexample(n, lhs, rhs)
    return CheckReport(name, checked, failure)
