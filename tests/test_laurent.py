"""Unit tests for the exact Laurent polynomial core.

Every expected value here was frozen from an independent hand computation
(expanding products term by term, taking square roots monomial-wise, or
plain rational arithmetic) before the operations were implemented.
"""

from __future__ import annotations

import json
from fractions import Fraction

import pytest

from conftest import CTX_AZ, CTX_Q, CTX_QP, CTX_T
from torkit import (
    ContextMismatch,
    LaurentPoly,
    MissingAssignment,
    Monomial,
    NegativePowerOfPolynomial,
    NonIntegralExponent,
    NotAPerfectSquare,
    ParseError,
    UnknownVariable,
    VarContext,
    ZeroBase,
    exact_sqrt,
    from_json,
    from_json_obj,
    parse,
    to_json,
    to_json_obj,
)


def P(text: str, ctx=CTX_QP) -> LaurentPoly:
    return parse(text, ctx)


class TestVarContext:
    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            VarContext(())
        with pytest.raises(ValueError):
            VarContext(("q", "p", "r"))
        with pytest.raises(ValueError):
            VarContext(("q", "q"))
        with pytest.raises(ValueError):
            VarContext(("2bad",))

    def test_lookup(self):
        assert CTX_QP.index("p") == 1
        with pytest.raises(UnknownVariable):
            CTX_QP.index("t")


class TestArithmetic:
    def test_add_qp_numbers(self):
        # ([2] = q + p) + qp * [1]  ->  q + p + qp
        assert P("q + p") + P("q*p") == P("q + p + q*p")

    def test_add_cancels_to_zero(self):
        f = P("q^(1/2) - p^(1/2)")
        assert (f + (-f)).is_zero()
        assert f - f == LaurentPoly.zero(CTX_QP)

    def test_add_merges_coefficients(self):
        assert P("q + q") == P("2*q")
        assert P("3*q*p - q*p") == P("2*q*p")

    def test_mul_telescopes(self):
        # (q - p)(q^2 + qp + p^2) = q^3 - p^3, all the cross terms cancel
        assert P("q - p") * P("q^2 + q*p + p^2") == P("q^3 - p^3")

    def test_mul_with_half_exponents(self):
        f = P("q^(1/2) - p^(1/2)")
        assert f * f == P("q - 2*q^(1/2)*p^(1/2) + p")

    def test_mul_by_zero_and_one(self):
        f = P("q^2 - 3*p^(-1)")
        assert (f * LaurentPoly.zero(CTX_QP)).is_zero()
        assert f * LaurentPoly.one(CTX_QP) == f
        assert 1 * f == f
        assert 0 * f == LaurentPoly.zero(CTX_QP)

    def test_int_coercion(self):
        f = P("q")
        assert f + 1 == P("q + 1")
        assert 2 - f == P("2 - q")
        assert 3 * f == P("3*q")

    def test_pow(self):
        z = P("q^(1/4)*p^(-1/4) - q^(-1/4)*p^(1/4)")
        assert z ** 2 == P("q^(1/2)*p^(-1/2) - 2 + q^(-1/2)*p^(1/2)")
        assert z ** 0 == LaurentPoly.one(CTX_QP)
        assert z ** 1 == z
        f = P("q + 1")
        assert f ** 3 == P("q^3 + 3*q^2 + 3*q + 1")

    def test_pow_negative_rejected(self):
        with pytest.raises(ValueError):
            P("q + 1") ** -1

    def test_context_mismatch(self):
        with pytest.raises(ContextMismatch):
            P("q", CTX_Q) + P("t", CTX_T)
        with pytest.raises(ContextMismatch):
            P("q", CTX_Q) * P("q + p", CTX_QP)

    def test_canonical_form_is_unique(self):
        # same polynomial assembled two different ways: identical term maps
        a = P("q + p - q*p")
        b = P("q*p") * -1 + P("p") + P("q")
        assert a.terms == b.terms
        assert a == b


class TestConstructor:
    def test_bool_exponent_rejected(self):
        with pytest.raises(TypeError):
            LaurentPoly(CTX_T, {(True,): 1})

    def test_bool_coefficient_rejected(self):
        with pytest.raises(TypeError):
            LaurentPoly(CTX_T, {(4,): True})

    def test_bool_operand_rejected(self):
        f = P("t + 1", CTX_T)
        for combine in (lambda: f + True, lambda: f * True, lambda: True - f):
            with pytest.raises(TypeError, match="cannot combine LaurentPoly with bool"):
                combine()
        assert f != True  # noqa: E712


class TestLeadingAndOrder:
    def test_leading_is_lex_greatest(self):
        f = P("q + p - q*p")
        lead = f.leading_monomial()
        assert lead.quarters == (4, 4)
        assert lead.coeff == -1

    def test_monomials_come_out_descending(self):
        f = P("p^2 + q^2 + q*p")
        keys = [m.quarters for m in f.monomials()]
        assert keys == [(8, 0), (4, 4), (0, 8)]


class TestSubstituteMonomial:
    def test_jones_direction(self):
        # q -> t^3, p -> t turns q + p - qp into t^3 + t - t^4
        f = P("q + p - q*p")
        assert f.substitute_monomial(CTX_T, {"q": "t^3", "p": "t"}) == P(
            "t + t^3 - t^4", CTX_T
        )

    def test_identity(self):
        f = P("q - 1 + q^(-1)", CTX_Q)
        assert f.substitute_monomial(CTX_Q, {"q": "q"}) == f

    def test_half_exponents_scale(self):
        f = P("q^(1/2) - p^(1/2)")
        g = f.substitute_monomial(CTX_T, {"q": "t^3", "p": "t"})
        assert g == P("t^(3/2) - t^(1/2)", CTX_T)

    def test_quarter_inverse_pair(self):
        f = P("q^(1/4)*p^(1/4)")
        g = f.substitute_monomial(CTX_QP, {"q": "q^(-1)", "p": "p^(-1)"})
        assert g == P("q^(-1/4)*p^(-1/4)")

    def test_negative_one_coefficient_flips_sign_by_parity(self):
        f = P("q^2 + q", CTX_Q)
        g = f.substitute_monomial(CTX_T, {"q": "-t"})
        assert g == P("t^2 - t", CTX_T)

    def test_negative_one_with_fractional_power_rejected(self):
        f = P("q^(1/2)", CTX_Q)
        with pytest.raises(NonIntegralExponent):
            f.substitute_monomial(CTX_T, {"q": "-t"})

    def test_subquarter_result_rejected(self):
        f = P("q^(1/4)", CTX_Q)
        with pytest.raises(NonIntegralExponent):
            f.substitute_monomial(CTX_T, {"q": "t^(1/2)"})

    def test_missing_assignment(self):
        with pytest.raises(MissingAssignment):
            P("q + p").substitute_monomial(CTX_QP, {"q": "p"})

    def test_extra_assignment_rejected(self):
        with pytest.raises(UnknownVariable):
            P("q", CTX_Q).substitute_monomial(CTX_Q, {"q": "q", "x": "q"})

    def test_monomial_object_assignment(self):
        f = P("q + p")
        qhat = Monomial.from_quarters((12,), 1)  # t^3
        phat = Monomial.from_quarters((4,), 1)  # t
        assert f.substitute_monomial(CTX_T, {"q": qhat, "p": phat}) == P(
            "t^3 + t", CTX_T
        )

    def test_non_unit_coefficient_rejected(self):
        with pytest.raises(ValueError):
            P("q", CTX_Q).substitute_monomial(CTX_T, {"q": "2*t"})


class TestSubstitutePoly:
    def test_homfly_bridge_for_the_trefoil(self):
        # a^2 z^2 + 2 a^2 - a^4 under a -> (qp)^(1/4), z -> the (q,p) split of z:
        #   a^2 z^2 -> (qp)^(1/2) (q^(1/2)p^(-1/2) - 2 + q^(-1/2)p^(1/2))
        #            = q - 2 (qp)^(1/2) + p
        #   2 a^2   -> 2 (qp)^(1/2)
        #   a^4     -> qp
        # total: q + p - qp
        f = P("a^2*z^2 + 2*a^2 - a^4", CTX_AZ)
        g = f.substitute_poly(
            CTX_QP,
            {"a": "q^(1/4)*p^(1/4)", "z": "q^(1/4)*p^(-1/4) - q^(-1/4)*p^(1/4)"},
        )
        assert g == P("q + p - q*p")

    def test_identity(self):
        f = P("q^2 - p^(-2) + 3")
        assert f.substitute_poly(CTX_QP, {"q": "q", "p": "p"}) == f

    def test_single_monomials_may_have_negative_exponents(self):
        f = P("a^(-2)*z", CTX_AZ)
        g = f.substitute_poly(CTX_QP, {"a": "q^(1/4)*p^(1/4)", "z": "q - p"})
        assert g == P("q^(1/2)*p^(-1/2) - q^(-1/2)*p^(1/2)")

    def test_negative_power_of_polynomial_rejected(self):
        f = P("a^(-1)", CTX_AZ)
        with pytest.raises(NegativePowerOfPolynomial):
            f.substitute_poly(CTX_QP, {"a": "q + 1", "z": "p"})

    def test_fractional_power_of_polynomial_rejected(self):
        f = P("z^(1/2)", CTX_AZ)
        with pytest.raises(NonIntegralExponent):
            f.substitute_poly(CTX_QP, {"a": "q", "z": "q - p"})

    def test_missing_assignment(self):
        with pytest.raises(MissingAssignment):
            P("a*z", CTX_AZ).substitute_poly(CTX_QP, {"a": "q"})

    def test_agrees_with_substitute_monomial_on_monomial_maps(self):
        f = P("q^2 - 3*q*p + p^(-1)")
        via_mono = f.substitute_monomial(CTX_T, {"q": "t^2", "p": "t^(-1)"})
        via_poly = f.substitute_poly(CTX_T, {"q": "t^2", "p": "t^(-1)"})
        assert via_mono == via_poly


class TestExactSqrt:
    def test_perfect_square_binomial(self):
        f = P("q - 2*q^(1/2)*p^(1/2) + p")
        assert exact_sqrt(f) == P("q^(1/2) - p^(1/2)")

    def test_monomial_square(self):
        assert exact_sqrt(P("q*p")) == P("q^(1/2)*p^(1/2)")
        assert exact_sqrt(P("4*q^2")) == P("2*q")
        assert exact_sqrt(P("q^(1/2)", CTX_Q)) == P("q^(1/4)", CTX_Q)

    def test_one_variable_square(self):
        # (t^(3/2) - t^(1/2))^2 = t^3 - 2 t^2 + t
        f = P("t^3 - 2*t^2 + t", CTX_T)
        assert exact_sqrt(f) == P("t^(3/2) - t^(1/2)", CTX_T)

    def test_result_is_canonical_positive(self):
        g = P("p^(1/2) - q^(1/2)")  # leading coefficient -1
        root = exact_sqrt(g * g)
        assert root == -g
        assert root.leading_monomial().coeff > 0

    def test_zero_convention(self):
        assert exact_sqrt(LaurentPoly.zero(CTX_QP)).is_zero()

    def test_sum_of_two_variables_is_not_a_square(self):
        with pytest.raises(NotAPerfectSquare):
            exact_sqrt(P("q + p"))

    def test_nonsquare_leading_coefficient(self):
        with pytest.raises(NotAPerfectSquare):
            exact_sqrt(P("2*q^2"))

    def test_negative_leading_coefficient(self):
        with pytest.raises(NotAPerfectSquare):
            exact_sqrt(P("-q^2"))

    def test_odd_quarter_leading_exponent(self):
        with pytest.raises(NotAPerfectSquare):
            exact_sqrt(P("q^(1/4)", CTX_Q))

    def test_long_square(self):
        f = P("q^2 - q + 3 - p^(-1) + 5*q*p^3", CTX_QP)
        assert exact_sqrt(f * f) == f

    def test_formal_root_leaving_the_box_rejected(self):
        # The formal root 1 + 2t^(-1) - 2t^(-2) + 4t^(-3) - ... has integer
        # coefficients, so no divisibility test stops it; its second term
        # already lies outside half of the exponent box [-1, 0].
        with pytest.raises(NotAPerfectSquare, match="outside half the exponent box"):
            exact_sqrt(P("1 + 4*t^(-1)", CTX_T))


class TestEvalRational:
    def test_simple_values(self):
        # q + p - qp at q=2, p=3: 2 + 3 - 6 = -1
        f = P("q + p - q*p")
        assert f.eval_rational({"q": 2, "p": 3}) == Fraction(-1)

    def test_fractions(self):
        # t - 1 + 1/t at t = 1/2: 1/2 - 1 + 2 = 3/2
        f = P("t - 1 + t^(-1)", CTX_T)
        assert f.eval_rational({"t": Fraction(1, 2)}) == Fraction(3, 2)

    def test_negative_exponent_of_negative_base(self):
        f = P("q^(-2)", CTX_Q)
        assert f.eval_rational({"q": Fraction(-2, 3)}) == Fraction(9, 4)

    def test_fractional_exponent_rejected(self):
        with pytest.raises(NonIntegralExponent):
            P("q^(1/2)", CTX_Q).eval_rational({"q": 4})

    def test_zero_base_rejected(self):
        with pytest.raises(ZeroBase):
            P("q^(-1)", CTX_Q).eval_rational({"q": 0})

    def test_missing_value_rejected(self):
        with pytest.raises(MissingAssignment):
            P("q + p").eval_rational({"q": 1})

    def test_extra_value_rejected(self):
        with pytest.raises(UnknownVariable):
            P("q", CTX_Q).eval_rational({"q": 1, "t": 2})


class TestCanonicalString:
    def test_zero(self):
        assert LaurentPoly.zero(CTX_QP).canonical_string() == "0"

    def test_symmetric_q_number(self):
        f = P("q^(-3) + q^(-1) + q + q^3", CTX_Q)
        assert f.canonical_string() == "q^3 + q + q^(-1) + q^(-3)"

    def test_descending_lex_order_in_two_variables(self):
        # (1,1) beats (1,0) beats (0,1) in the term order, so the qp term leads
        f = P("q + p - q*p")
        assert f.canonical_string() == "-q*p + q + p"

    def test_half_and_quarter_exponents(self):
        f = P("q^(3/2)*p^(-1/2) - q^(1/4)")
        assert f.canonical_string() == "q^(3/2)*p^(-1/2) - q^(1/4)"

    def test_coefficients(self):
        f = P("-7 + 2*q - q^2", CTX_Q)
        assert f.canonical_string() == "-q^2 + 2*q - 7"

    def test_constant_one(self):
        assert LaurentPoly.one(CTX_T).canonical_string() == "1"
        assert P("q - 1", CTX_Q).canonical_string() == "q - 1"


class TestParse:
    def test_round_trip_of_examples(self):
        for text, ctx in [
            ("q^3 + q + q^(-1) + q^(-3)", CTX_Q),
            ("-q*p + q + p", CTX_QP),
            ("q^(3/2)*p^(-1/2)", CTX_QP),
            ("0", CTX_QP),
            ("-t^7 + t^6 - t^5 + t^4 + t^2", CTX_T),
        ]:
            f = parse(text, ctx)
            assert f.canonical_string() == text

    def test_accepts_any_term_order(self):
        assert P("q + p - q*p") == P("-q*p + p + q")

    def test_accepts_plain_negative_exponent(self):
        assert P("q^-1", CTX_Q) == P("q^(-1)", CTX_Q)

    def test_merges_duplicate_monomials(self):
        assert P("q + q - q") == P("q")

    def test_unknown_variable(self):
        with pytest.raises(UnknownVariable):
            parse("q + x", CTX_QP)

    def test_third_roots_rejected_with_position(self):
        with pytest.raises(ParseError) as err:
            parse("q^(1/3)", CTX_Q)
        assert "denominator" in str(err.value)
        assert err.value.position == 5

    def test_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse("q +", CTX_Q)
        with pytest.raises(ParseError):
            parse("2 q", CTX_Q)
        with pytest.raises(ParseError):
            parse("", CTX_Q)
        with pytest.raises(ParseError):
            parse("q & p", CTX_QP)

    def test_implicit_multiplication_not_allowed(self):
        with pytest.raises(ParseError):
            parse("q p", CTX_QP)


class TestJson:
    def test_exact_shape(self):
        f = P("q + p - q*p")
        assert to_json_obj(f) == {
            "vars": ["q", "p"],
            "exp_denominator": 4,
            "terms": [
                {"exp": [4, 4], "coeff": "-1"},
                {"exp": [4, 0], "coeff": "1"},
                {"exp": [0, 4], "coeff": "1"},
            ],
        }

    def test_bit_exact_round_trip(self):
        f = P("q^(3/2)*p^(-1/2) - 12345678901234567890*q + 3")
        text = to_json(f)
        assert from_json(text) == f
        assert to_json(from_json(text)) == text

    def test_huge_coefficients_survive(self):
        big = 10 ** 40 + 7
        f = LaurentPoly(CTX_Q, {(4,): big})
        assert from_json_obj(to_json_obj(f)).coefficient((4,)) == big

    def test_wrong_denominator_rejected(self):
        obj = to_json_obj(P("q"))
        obj["exp_denominator"] = 2
        with pytest.raises(ValueError):
            from_json_obj(obj)

    @staticmethod
    def with_first_term(field, value):
        obj = to_json_obj(P("q^(1/2) - 3*p"))
        obj["terms"][0][field] = value
        return obj

    def test_fractional_exponent_rejected(self):
        with pytest.raises(ValueError):
            from_json_obj(self.with_first_term("exp", [2.7, 0]))

    def test_boolean_exponent_rejected(self):
        with pytest.raises(ValueError):
            from_json(to_json(P("q")).replace("[4,0]", "[true,0]"))

    def test_fractional_coefficient_rejected(self):
        with pytest.raises(ValueError):
            from_json_obj(self.with_first_term("coeff", 1.9))

    def test_underscored_coefficient_rejected(self):
        with pytest.raises(ValueError):
            from_json_obj(self.with_first_term("coeff", "1_000"))

    def test_json_is_valid_json(self):
        parsed = json.loads(to_json(P("q - p")))
        assert parsed["vars"] == ["q", "p"]
