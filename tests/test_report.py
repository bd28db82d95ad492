"""Tests for the one helper that decides both sides of an identity."""

from __future__ import annotations

import pytest

from torkit import compare


def test_counts_every_case_and_keeps_the_first_failure():
    report = compare("demo", [(1, 2, 2), (3, 4, 5), (5, 6, 7)])
    assert report.checked == 3
    assert not report.passed
    assert report.failure == "first counterexample at n=3: 4 != 5"
    assert report.format_line() == "FAIL demo: first counterexample at n=3: 4 != 5"


class Side:
    """A side of an identity that never equals another and counts its renderings."""

    renders = 0

    def __init__(self, n):
        self.n = n

    def __eq__(self, other):
        return False

    def __str__(self):
        Side.renders += 1
        return f"side{self.n}"


def test_only_the_first_failure_is_rendered():
    Side.renders = 0
    report = compare("demo", ((n, Side(n), Side(-n)) for n in range(1, 1001)))
    assert report.checked == 1000
    assert Side.renders == 2
    assert report.failure == "first counterexample at n=1: side1 != side-1"


def test_all_equal_passes():
    report = compare("demo", ((n, n * n, n ** 2) for n in range(4)))
    assert report.passed
    assert report.format_line() == "PASS demo (4 cases)"


def test_no_cases_is_zero_cases():
    assert compare("empty", []).checked == 0


def test_an_error_building_a_case_propagates():
    def cases():
        yield 1, 1, 1
        raise ZeroDivisionError("boom")

    with pytest.raises(ZeroDivisionError):
        compare("demo", cases())
