"""Uniform pass/fail reporting for the library's identity checks."""

from __future__ import annotations

from collections.abc import Iterable

from .laurent import _Frozen


def counterexample(n: int, lhs: object, rhs: object) -> str:
    """The text of a failed check: where it first failed and both sides there."""
    return f"first counterexample at n={n}: {lhs} != {rhs}"


class CheckReport(_Frozen):
    """Outcome of checking one identity: the cases checked and the text of
    the first failure, "" when every case passed."""

    __slots__ = ("name", "checked", "failure")

    def __init__(self, name: str, checked: int, failure: str = ""):
        super().__init__(name, checked, failure)

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
