"""Tests for the deformed integers [n]_{u,v}: the builder uv_number, symmetric
q-numbers, (q,p)-numbers, and the (t^3, t) special case.

Frozen values are the first few members of each family written out by hand;
the quotient identities multiply back up so no division is ever needed.
"""

from __future__ import annotations

import pytest

from conftest import CTX_Q, CTX_QP, CTX_T
from torkit import (
    ContextMismatch,
    KnotStepPair,
    LaurentPoly,
    SkeinPair,
    VarContext,
    jones_number,
    parse,
    q_number,
    qp_number,
    to_alexander,
    uv_number,
    verify_q_recurrence,
    verify_qp_recurrence,
)
from torkit import qnumbers
from torkit.cli import _NUMBER_KINDS

T = parse("t", CTX_T)


class TestUVNumber:
    def test_equal_exponents_meet_in_one_term(self):
        minus_t = parse("-t", CTX_T)
        assert uv_number(3, T, minus_t) == parse("t^2", CTX_T)
        assert uv_number(4, T, minus_t).is_zero()
        assert uv_number(4, T, T) == parse("4*t^3", CTX_T)

    def test_bad_count_rejected(self):
        for n in (-1, True):
            with pytest.raises(ValueError):
                uv_number(n, T, T)

    def test_non_unit_coefficient_rejected(self):
        with pytest.raises(ValueError):
            uv_number(3, parse("2*t", CTX_T), T)

    def test_two_term_u_rejected(self):
        for u in (parse("t + 1", CTX_T), parse("0", CTX_T)):
            with pytest.raises(ValueError):
                uv_number(2, u, T)

    def test_wrong_arity_rejected(self):
        with pytest.raises(ContextMismatch):
            uv_number(3, T, parse("q", CTX_QP))

    def test_v_from_another_context_rejected(self):
        with pytest.raises(ContextMismatch):
            uv_number(2, parse("q", CTX_Q), T)

    def test_v_from_an_equal_context_object_is_no_context_mismatch(self):
        # A context is compared by its names, not by which object holds them.
        assert uv_number(3, T, parse("t", VarContext(("t",)))) == parse("3*t^2", CTX_T)


def test_named_builders_check_their_pairs_once(monkeypatch):
    # The pairs of q_number, qp_number and jones_number were checked when
    # they were built; uv_number checks the pair it is given on every call.
    for var in ("q", "t"):
        q_number(1, var)

    def refuse(u, v):
        raise AssertionError("checked a pair again")

    monkeypatch.setattr(qnumbers, "_checked", refuse)
    assert [q_number(3).num_terms, q_number(3, "t").num_terms] == [3, 3]
    assert [qp_number(3).num_terms, jones_number(3).num_terms] == [3, 3]
    with pytest.raises(AssertionError):
        uv_number(3, T, T)
    with pytest.raises(ValueError):
        qp_number(-1)


def test_builders_of_one_context_object_never_compare_contexts(monkeypatch):
    # uv_number and the coefficient pairs settle one context object by
    # identity, without calling VarContext.__eq__.
    def refuse(self, other):
        raise AssertionError("compared a context object with itself")

    monkeypatch.setattr(VarContext, "__eq__", refuse)
    assert q_number(3).num_terms == 3
    assert qp_number(3).num_terms == 3
    assert jones_number(3).num_terms == 3
    assert SkeinPair(T, -T).l2 == -T
    assert KnotStepPair(T, T * T).k2 == T * T


class TestQNumber:
    def test_first_values(self):
        assert q_number(0).is_zero()
        assert q_number(1) == parse("1", CTX_Q)
        assert q_number(2) == parse("q + q^(-1)", CTX_Q)
        assert q_number(3) == parse("q^2 + 1 + q^(-2)", CTX_Q)
        assert q_number(4) == parse("q^3 + q + q^(-1) + q^(-3)", CTX_Q)

    def test_any_variable_name(self):
        assert q_number(3, "x") == parse("x^2 + 1 + x^(-2)", VarContext(("x",)))

    def test_quotient_identity(self):
        # [n] (q - q^(-1)) = q^n - q^(-n), checked by multiplying back up
        ctx = CTX_Q
        denom = parse("q - q^(-1)", ctx)
        for n in range(0, 60):
            lhs = q_number(n) * denom
            rhs = parse(f"q^{n} - q^(-{n})", ctx) if n else parse("0", ctx)
            assert lhs == rhs

    def test_recurrence(self):
        report = verify_q_recurrence(100)
        assert report.passed
        assert report.checked == 100

    def test_palindromic_under_inversion(self):
        for n in range(0, 12):
            f = q_number(n)
            assert f.substitute_monomial(CTX_Q, {"q": "q^(-1)"}) == f

    def test_term_count_and_coefficients(self):
        for n in range(0, 20):
            f = q_number(n)
            assert f.num_terms == n
            assert all(c == 1 for c in f.terms.values())

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            q_number(-1)

    def test_non_int_index_rejected(self):
        for n in (True, 2.0):
            with pytest.raises(ValueError):
                q_number(n)


def _one_wrong(build, k):
    """build, except that [k] is off by one."""

    def wrong(n, *args):
        value = build(n, *args)
        return value + LaurentPoly.one(value.context) if n == k else value

    return wrong


@pytest.mark.parametrize(
    "name, check, k, line",
    [
        (
            "q_number", verify_q_recurrence, 7,
            "FAIL q-number-recurrence: first counterexample at n=6: "
            "q^6 + q^4 + q^2 + 2 + q^(-2) + q^(-4) + q^(-6) != q^6 + q^4 + q^2 + 1 + q^(-2) + q^(-4) + q^(-6)",
        ),
        (
            "q_number", verify_q_recurrence, 0,
            "FAIL q-number-recurrence: first counterexample at n=1: q + q^(-1) != q - 1 + q^(-1)",
        ),
        (
            "qp_number", verify_qp_recurrence, 1,
            "FAIL qp-number-recurrence: first counterexample at n=1: q + p != 2*q + 2*p",
        ),
    ],
    ids=["q-7", "q-0", "qp-1"],
)
def test_recurrence_check_fails_at_the_first_case_reading_a_wrong_number(monkeypatch, name, check, k, line):
    monkeypatch.setattr(qnumbers, name, _one_wrong(getattr(qnumbers, name), k))
    report = check(20)
    assert report.checked == 20
    assert report.format_line() == line


class TestQPNumber:
    def test_first_values(self):
        assert qp_number(0).is_zero()
        assert qp_number(1) == parse("1", CTX_QP)
        assert qp_number(2) == parse("q + p", CTX_QP)
        assert qp_number(3) == parse("q^2 + q*p + p^2", CTX_QP)
        assert qp_number(4) == parse("q^3 + q^2*p + q*p^2 + p^3", CTX_QP)

    def test_quotient_identity(self):
        # [n]_{q,p} (q - p) = q^n - p^n
        denom = parse("q - p", CTX_QP)
        for n in range(0, 60):
            lhs = qp_number(n) * denom
            rhs = parse(f"q^{n} - p^{n}", CTX_QP) if n else parse("0", CTX_QP)
            assert lhs == rhs

    def test_recurrence(self):
        report = verify_qp_recurrence(100)
        assert report.passed

    def test_symmetric_in_q_and_p(self):
        for n in range(0, 12):
            f = qp_number(n)
            assert f.substitute_monomial(CTX_QP, {"q": "p", "p": "q"}) == f

    def test_homogeneous_of_degree_n_minus_one(self):
        for n in range(1, 12):
            for key in qp_number(n).terms:
                assert sum(key) == 4 * (n - 1)

    def test_non_int_index_rejected(self):
        for n in (True, 2.0):
            with pytest.raises(ValueError):
                qp_number(n)

    def test_reduces_to_symmetric_q_number(self):
        # p -> q^(-1) turns [n]_{q,p} into [n]_q (written in t here)
        for n in range(0, 30):
            assert to_alexander(qp_number(n)) == q_number(n, "t")


class TestJonesNumber:
    def test_first_values(self):
        assert jones_number(1) == parse("1", CTX_T)
        assert jones_number(2) == parse("t^3 + t", CTX_T)
        assert jones_number(3) == parse("t^6 + t^4 + t^2", CTX_T)

    def test_non_int_index_rejected(self):
        for n in (True, 2.0):
            with pytest.raises(ValueError):
                jones_number(n)

    def test_is_qp_number_at_t3_t(self):
        for n in range(0, 20):
            specialized = qp_number(n).substitute_monomial(
                CTX_T, {"q": "t^3", "p": "t"}
            )
            assert jones_number(n) == specialized

    def test_quotient_identity(self):
        # [n]_{t^3,t} (t^3 - t) = t^(3n) - t^n
        denom = parse("t^3 - t", CTX_T)
        for n in range(1, 30):
            lhs = jones_number(n) * denom
            assert lhs == parse(f"t^{3 * n} - t^{n}", CTX_T)


class TestKind:
    def test_dispatch(self):
        # qnum's kinds are [n]_{u,v} at (q, q^(-1)), (q, p) and (t^3, t)
        kinds = {
            "q": (parse("q", CTX_Q), parse("q^(-1)", CTX_Q)),
            "qp": (parse("q", CTX_QP), parse("p", CTX_QP)),
            "jones": (parse("t^3", CTX_T), T),
        }
        assert set(_NUMBER_KINDS) == set(kinds)
        for kind, (u, v) in kinds.items():
            assert _NUMBER_KINDS[kind](4) == uv_number(4, u, v)
