"""Uniform pass/fail reporting for the library's identity checks."""

from __future__ import annotations

from collections.abc import Iterable

from .laurent import _Frozen


def counterexample(n: int, lhs: object, rhs: object) -> str:
    """The text of a failed check: where it first failed and both sides there."""
    return f"first counterexample at n={n}: {lhs} != {rhs}"


class CheckReport(_Frozen):
    """Outcome of checking one identity: the cases checked, the text of the
    first failure ("" when every case passed) and, for an identity that a
    finite obligation proves, the n it is proved for ("" when the cases are
    all the evidence)."""

    __slots__ = ("name", "checked", "failure", "proved_for")

    def __init__(self, name: str, checked: int, failure: str = "", proved_for: str = ""):
        super().__init__(name, checked, failure, proved_for)

    @property
    def passed(self) -> bool:
        return not self.failure

    def format_line(self) -> str:
        if not self.passed:
            return f"FAIL {self.name}: {self.failure}"
        if self.proved_for:
            return f"PASS {self.name} (proved for {self.proved_for}; {self.checked} cases sampled)"
        return f"PASS {self.name} ({self.checked} cases)"


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


def unmet(equalities: Iterable[tuple[str, object, object]]) -> str:
    """The text of the first (label, lhs, rhs) whose lhs != rhs, with both
    sides; "" when every equality holds.  This is how a finite obligation
    reports."""
    for label, lhs, rhs in equalities:
        if lhs != rhs:
            return f"obligation {label} fails: {lhs} != {rhs}"
    return ""


def prove(
    name: str, obligation: str, cases: Iterable[tuple[int, object, object]], proved_for: str
) -> CheckReport:
    """A check that holds for every n in proved_for once its finite obligation
    holds, with cases as samples.

    obligation is the text unmet gave for it.  A sampled mismatch fails the
    check as compare renders it; failing that, an unmet obligation fails it
    with its own text.
    """
    sampled = compare(name, cases)
    return CheckReport(name, sampled.checked, sampled.failure or obligation, proved_for)
