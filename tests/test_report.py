"""Tests for the one helper that decides both sides of an identity."""

from __future__ import annotations

import pytest

from torkit import CheckFailure, compare


def test_counts_every_case_and_keeps_the_first_failure():
    report = compare("demo", [(1, 2, 2), (3, 4, 5), (5, 6, 7)])
    assert report.checked == 3
    assert report.failures == (CheckFailure(3, "4", "5"), CheckFailure(5, "6", "7"))
    assert report.format_line() == "FAIL demo: first counterexample at n=3: 4 != 5"


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
