"""Tests for symmetric q-numbers, (q,p)-numbers, and the (t^3, t) special case.

Frozen values are the first few members of each family written out by hand;
the quotient identities multiply back up so no division is ever needed.
"""

from __future__ import annotations

import pytest

from conftest import CTX_Q, CTX_QP, CTX_T
from torkit import (
    QNumberKind,
    jones_number,
    parse,
    q_number,
    qp_number,
    to_alexander,
    verify_q_recurrence,
    verify_qp_recurrence,
)


class TestQNumber:
    def test_first_values(self):
        assert q_number(0).is_zero()
        assert q_number(1) == parse("1", CTX_Q)
        assert q_number(2) == parse("q + q^(-1)", CTX_Q)
        assert q_number(3) == parse("q^2 + 1 + q^(-2)", CTX_Q)
        assert q_number(4) == parse("q^3 + q + q^(-1) + q^(-3)", CTX_Q)

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
            assert all(m.coeff == 1 for m in f.monomials())

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            q_number(-1)

    def test_non_int_index_rejected(self):
        for n in (True, 2.0):
            with pytest.raises(ValueError):
                q_number(n)


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
            for m in qp_number(n).monomials():
                assert m.total_degree() == n - 1

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
        assert QNumberKind("q").construct(4) == q_number(4)
        assert QNumberKind("qp").construct(4) == qp_number(4)
        assert QNumberKind("jones").construct(4) == jones_number(4)
