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
    Substitution,
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
from torkit.laurent import _digits_int, decimal_int


def P(text: str, ctx=CTX_QP) -> LaurentPoly:
    return parse(text, ctx)


def both_forms(f: LaurentPoly, method: str, target, assignments):
    """The substitution called with the mapping, and with it compiled first."""
    run = getattr(f, method)
    return (
        lambda: run(target, assignments),
        lambda: run(target, Substitution(f.context, target, assignments)),
    )


def assert_raises_in_both_forms(error, message, f, method, target, assignments):
    for call in both_forms(f, method, target, assignments):
        with pytest.raises(error) as info:
            call()
        assert type(info.value) is error
        assert str(info.value) == message


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

    def test_names_are_ascii(self):
        with pytest.raises(ValueError):
            VarContext(("q\u00e9",))
        with pytest.raises(ValueError):
            VarContext(("q\u0663",))
        assert VarContext(("_q2",)).names == ("_q2",)


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

    def test_pow_bool_rejected(self):
        # bool is an int subclass; ** refuses it as * and every index check do
        for e in (True, False):
            with pytest.raises(TypeError):
                P("q + 1") ** e

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
        assert_raises_in_both_forms(
            NonIntegralExponent,
            "sign -1 cannot be raised to a fractional power",
            f, "substitute_monomial", CTX_T, {"q": "-t"},
        )

    def test_subquarter_result_rejected(self):
        f = P("q^(1/4)", CTX_Q)
        assert_raises_in_both_forms(
            NonIntegralExponent,
            "substitution would need an exponent finer than quarter units",
            f, "substitute_monomial", CTX_T, {"q": "t^(1/2)"},
        )

    def test_missing_assignment(self):
        assert_raises_in_both_forms(
            MissingAssignment,
            "no assignment for variable 'p'",
            P("q + p"), "substitute_monomial", CTX_QP, {"q": "p"},
        )

    def test_extra_assignment_rejected(self):
        assert_raises_in_both_forms(
            UnknownVariable,
            "assignment for 'x', which is not in ('q',)",
            P("q", CTX_Q), "substitute_monomial", CTX_Q, {"q": "q", "x": "q"},
        )

    def test_monomial_object_assignment(self):
        f = P("q + p")
        qhat = Monomial.from_quarters((12,), 1)  # t^3
        phat = Monomial.from_quarters((4,), 1)  # t
        assert f.substitute_monomial(CTX_T, {"q": qhat, "p": phat}) == P(
            "t^3 + t", CTX_T
        )

    def test_non_unit_coefficient_rejected(self):
        assert_raises_in_both_forms(
            ValueError,
            "assignment for 'q' must have coefficient +1 or -1, got 2",
            P("q", CTX_Q), "substitute_monomial", CTX_T, {"q": "2*t"},
        )
        assert_raises_in_both_forms(
            ValueError,
            "assignment for 'q' must be a single monomial",
            P("q", CTX_Q), "substitute_monomial", CTX_T, {"q": "t + 1"},
        )

    def test_assignment_in_another_context_rejected(self):
        assert_raises_in_both_forms(
            ContextMismatch,
            "assignment for 'q' lives in ('q', 'p'), not ('t',)",
            P("q", CTX_Q), "substitute_monomial", CTX_T, {"q": P("q")},
        )

    def test_non_polynomial_value_rejected(self):
        assert_raises_in_both_forms(
            TypeError,
            "assignment for 'q' must be a polynomial",
            P("q", CTX_Q), "substitute_monomial", CTX_T, {"q": 5},
        )

    def test_monomial_of_another_arity_rejected(self):
        assert_raises_in_both_forms(
            ContextMismatch,
            "monomial arity 2 does not match context ('t',)",
            P("q", CTX_Q), "substitute_monomial", CTX_T, {"q": Monomial.from_quarters((4, 0))},
        )


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
        assert_raises_in_both_forms(
            NegativePowerOfPolynomial,
            "'a' appears with a negative exponent but is assigned a general polynomial",
            f, "substitute_poly", CTX_QP, {"a": "q + 1", "z": "p"},
        )

    def test_fractional_power_of_polynomial_rejected(self):
        f = P("z^(1/2)", CTX_AZ)
        assert_raises_in_both_forms(
            NonIntegralExponent,
            "'z' appears with a fractional exponent but is assigned a general polynomial",
            f, "substitute_poly", CTX_QP, {"a": "q", "z": "q - p"},
        )

    def test_missing_assignment(self):
        assert_raises_in_both_forms(
            MissingAssignment,
            "no assignment for variable 'z'",
            P("a*z", CTX_AZ), "substitute_poly", CTX_QP, {"a": "q"},
        )

    def test_assignment_in_another_context_rejected(self):
        assert_raises_in_both_forms(
            ContextMismatch,
            "assignment for 'z' lives in ('t',), not ('q', 'p')",
            P("a*z", CTX_AZ), "substitute_poly", CTX_QP, {"a": "q", "z": P("t", CTX_T)},
        )

    def test_compiled_for_other_contexts_rejected(self):
        sub = Substitution(CTX_AZ, CTX_QP, {"a": "q", "z": "q - p"})
        with pytest.raises(ContextMismatch):
            P("q").substitute_poly(CTX_QP, sub)
        with pytest.raises(ContextMismatch):
            P("a", CTX_AZ).substitute_poly(CTX_T, sub)

    def test_failed_call_leaves_the_power_table_sound(self):
        # z^6 and z^10 are built and kept before the z^(-1) term raises.
        assignments = {"a": "q^(1/4)*p^(1/4)", "z": "q - 2*p"}
        sub = Substitution(CTX_AZ, CTX_QP, assignments)
        bad = LaurentPoly(CTX_AZ, [((0, 24), 1), ((4, 40), 1), ((0, -4), 1)])
        with pytest.raises(NegativePowerOfPolynomial):
            bad.substitute_poly(CTX_QP, sub)
        good = P("a*z^10 - 3*z^6 + z^8 + a^(-2)*z^3", CTX_AZ)
        z = P("q - 2*p")
        expected = P("q^(1/4)*p^(1/4)") * z ** 10 - 3 * z ** 6 + z ** 8 + P("q^(-1/2)*p^(-1/2)") * z ** 3
        assert good.substitute_poly(CTX_QP, sub) == expected
        assert good.substitute_poly(CTX_QP, assignments) == expected

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

    @pytest.mark.parametrize("e", [200, 4000])
    def test_formal_root_stopped_by_the_norm_bound(self, e):
        # The half box [-e/2, 0] admits about e/2 root terms, but the root of
        # a square has sum g_i^2 <= isqrt(1 + 16 + 1) = 4, so the second
        # root term, 2*t^(-1), already spends more than that with the first.
        with pytest.raises(NotAPerfectSquare, match="norm bound"):
            exact_sqrt(P(f"1 + 4*t^(-1) + t^(-{e})", CTX_T))

    def test_nonsquare_coefficient_past_the_int_str_digit_limit(self):
        # CPython >= 3.11 refuses str() on ints past 4300 digits by default;
        # the error must still be NotAPerfectSquare, naming the coefficient.
        with pytest.raises(NotAPerfectSquare) as info:
            exact_sqrt(LaurentPoly(CTX_T, {(0,): 10 ** 4400 + 1}))
        assert f"leading coefficient 1{'0' * 4399}1 is not" in str(info.value)


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

    def test_exponents_past_the_int_str_digit_limit(self):
        # CPython >= 3.11 refuses str() and int() past 4300 digits by default.
        f = LaurentPoly(CTX_QP, {(4 * 10 ** 4300, -(10 ** 4400) - 2): -1, (0, 2 * 10 ** 4500 + 2): 3})
        text = f"-q^1{'0' * 4300}*p^(-5{'0' * 4398}1/2) + 3*p^(1{'0' * 4499}1/2)"
        assert str(f) == text
        assert parse(text, CTX_QP) == f
        g = LaurentPoly(CTX_T, {(-4 * 10 ** 4300 - 1,): -(10 ** 4400), (0,): 10 ** 4400})
        text = f"1{'0' * 4400} - 1{'0' * 4400}*t^(-4{'0' * 4299}1/4)"
        assert str(g) == text
        assert parse(text, CTX_T) == g


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

    @pytest.mark.parametrize(
        "text, position",
        [
            ("t^\u0663", 2),  # ARABIC-INDIC DIGIT THREE
            ("\u0663*t", 0),
            ("t^\u00b2", 2),  # SUPERSCRIPT TWO, which int() itself refuses
            ("t\u00a0+ 1", 1),  # NO-BREAK SPACE
            ("t + 1\u2003", 5),  # EM SPACE
            ("t\u00e9", 1),  # a non-ASCII letter inside a name
            ("t^(1/\uff12)", 5),  # FULLWIDTH DIGIT TWO
        ],
    )
    def test_non_ascii_rejected_at_its_position(self, text, position):
        with pytest.raises(ParseError) as err:
            parse(text, CTX_T)
        assert "unexpected character" in str(err.value)
        assert err.value.position == position

    def test_ascii_control_separators_are_not_whitespace(self):
        with pytest.raises(ParseError) as err:
            parse("t\x1f+ 1", CTX_T)
        assert err.value.position == 1

    @pytest.mark.parametrize(
        "text, position",
        [
            ("q^", 1),
            ("q^-", 1),
            ("q^(1/", 1),
            ("q^(1/2", 1),
            ("q^()", 1),
            ("q^+1", 1),
            ("q^--1", 1),
            ("q^-(1)", 1),
            ("p + q ^ (2", 6),
            ("q^2^3", 3),
            ("q*p^ *q", 3),
        ],
    )
    def test_malformed_exponent_reported_at_its_caret(self, text, position):
        with pytest.raises(ParseError) as err:
            parse(text, CTX_QP)
        assert "malformed exponent" in str(err.value)
        assert err.value.position == position

    def test_exponent_digits_past_the_int_str_digit_limit(self):
        digits = "1" * 4400
        assert parse(f"t^{digits}", CTX_T) == LaurentPoly(CTX_T, {(4 * decimal_int(digits),): 1})
        assert parse(f"t^(-{digits}/004)", CTX_T) == LaurentPoly(CTX_T, {(-decimal_int(digits),): 1})

    def test_long_denominator_rejected_at_its_position(self):
        with pytest.raises(ParseError) as err:
            parse("t^(1/" + "0" * 5000 + "3)", CTX_T)
        assert "denominator" in str(err.value)
        assert err.value.position == 5

    def test_unknown_variable_comes_before_its_exponent(self):
        with pytest.raises(UnknownVariable):
            parse("x^", CTX_QP)


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

    def test_coefficients_past_the_int_str_digit_limit_round_trip(self):
        # CPython >= 3.11 refuses str() and int() past 4300 digits by default.
        f = LaurentPoly(CTX_QP, {(4, 0): 10 ** 5000, (0, 4): 1 - 10 ** 5000, (0, 0): 7 * 10 ** 4999 + 3})
        digits = ["1" + "0" * 5000, "-" + "9" * 5000, "7" + "0" * 4998 + "3"]
        assert str(f) == f"{digits[0]}*q {digits[1][0]} {digits[1][1:]}*p + {digits[2]}"
        assert parse(str(f), CTX_QP) == f
        assert [term["coeff"] for term in to_json_obj(f)["terms"]] == digits
        assert from_json(to_json(f)) == f

    def test_exponents_past_the_int_str_digit_limit_round_trip(self):
        # json.dumps and json.loads hit the same limit on JSON integers.
        f = LaurentPoly(CTX_T, {(4 * 10 ** 4300,): 1, (-(10 ** 4400) - 1,): -2})
        text = to_json(f)
        assert text == (
            '{"vars":["t"],"exp_denominator":4,"terms":'
            f'[{{"exp":[4{"0" * 4300}],"coeff":"1"}},{{"exp":[-1{"0" * 4399}1],"coeff":"-2"}}]}}'
        )
        assert from_json(text) == f
        g = LaurentPoly(CTX_QP, {(10 ** 4300, -(10 ** 4400)): 10 ** 4500, (0, 10 ** 4400): -1})
        assert from_json(to_json(g)) == g

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

    def test_float_denominator_rejected(self):
        obj = to_json_obj(P("q"))
        obj["exp_denominator"] = 4.0
        with pytest.raises(ValueError):
            from_json_obj(obj)

    def test_vars_string_rejected(self):
        obj = to_json_obj(P("q"))
        obj["vars"] = "qp"
        with pytest.raises(ValueError):
            from_json_obj(obj)

    def test_vars_of_other_types_rejected(self):
        obj = to_json_obj(P("q"))
        obj["vars"] = ["q", 1]
        with pytest.raises(ValueError):
            from_json_obj(obj)

    def test_non_ascii_var_rejected(self):
        obj = to_json_obj(P("q"))
        obj["vars"] = ["q", "p\u00e9"]
        with pytest.raises(ValueError):
            from_json_obj(obj)

    def test_missing_vars_rejected(self):
        obj = to_json_obj(P("q"))
        del obj["vars"]
        with pytest.raises(ValueError):
            from_json_obj(obj)

    def test_terms_object_rejected(self):
        obj = to_json_obj(P("q"))
        obj["terms"] = {"exp": [4, 0], "coeff": "1"}
        with pytest.raises(ValueError):
            from_json_obj(obj)

    def test_terms_list_of_lists_rejected(self):
        obj = to_json_obj(P("q"))
        obj["terms"] = [[4, 0]]
        with pytest.raises(ValueError):
            from_json_obj(obj)

    def test_wrong_arity_rejected(self):
        with pytest.raises(ValueError):
            from_json_obj(self.with_first_term("exp", [2]))

    def test_missing_coefficient_rejected(self):
        obj = to_json_obj(P("q"))
        del obj["terms"][0]["coeff"]
        with pytest.raises(ValueError):
            from_json_obj(obj)

    @pytest.mark.parametrize("coeff", ["\u0663", "+1", " 1", "1 ", ""])
    def test_non_decimal_coefficient_rejected(self, coeff):
        with pytest.raises(ValueError):
            from_json_obj(self.with_first_term("coeff", coeff))

    def test_top_level_array_rejected(self):
        with pytest.raises(ValueError):
            from_json("[1]")

    @pytest.mark.parametrize(
        "field, message",
        [
            ("exp_denominator", "exp_denominator must be the integer 4, got <int too long to print>"),
            ("exp", "exp must be 2 integer quarter counts, got <list too long to print>"),
            ("entry", "terms must be a list of objects, got an entry <list too long to print>"),
            ("coeff", "expected a decimal integer string, got <int too long to print>"),
            ("vars", "vars must be a list of variable names, got <list too long to print>"),
        ],
        ids=["exp_denominator", "exp", "entry", "coeff", "vars"],
    )
    def test_rejected_values_past_the_int_str_digit_limit_keep_the_library_message(self, field, message):
        # repr() of an int past CPython's int/str digit limit raises its own
        # "Exceeds the limit" error; the message must not go through it.
        big = "1" * 5000
        text = to_json(P("q"))
        text = {
            "exp_denominator": text.replace('"exp_denominator":4', f'"exp_denominator":{big}'),
            "exp": text.replace("[4,0]", f"[4,{big},0]"),
            "entry": text.replace('{"exp":[4,0],"coeff":"1"}', f"[{big}]"),
            "coeff": text.replace('"coeff":"1"', f'"coeff":{big}'),
            "vars": text.replace('["q","p"]', f'["q",{big}]'),
        }[field]
        with pytest.raises(ValueError) as info:
            from_json(text)
        assert str(info.value) == message

    @pytest.mark.parametrize("case", ["exp", "coeff", "decimal_int"])
    def test_long_rejected_values_give_short_messages(self, case):
        # The value is cut to a prefix and its total length is named.
        head = '{"vars":["q","p"],"exp_denominator":4,"terms":[{"exp":'
        if case == "exp":
            shown = repr([1] * 200_000)
            call = lambda: from_json(head + "[" + ",".join(["1"] * 200_000) + '],"coeff":"1"}]}')
        elif case == "coeff":
            shown = repr("x" * 500_000)
            call = lambda: from_json(head + '[4,0],"coeff":"' + "x" * 500_000 + '"}]}')
        else:
            shown = repr("1" * 5000 + "x")
            call = lambda: decimal_int("1" * 5000 + "x")
        with pytest.raises(ValueError) as info:
            call()
        message = str(info.value)
        assert len(message) < 200
        assert message.endswith(f"got {shown[:80]}... ({len(shown)} characters)")

    def test_rejected_values_up_to_80_characters_print_whole(self):
        with pytest.raises(ValueError) as info:
            decimal_int("+5")
        assert str(info.value) == "expected a decimal integer string, got '+5'"
        for den, shown in [("x" * 78, repr("x" * 78)), ("x" * 79, f"{repr('x' * 79)[:80]}... (81 characters)")]:
            with pytest.raises(ValueError) as info:
                from_json_obj({**to_json_obj(P("q")), "exp_denominator": den})
            assert str(info.value) == f"exp_denominator must be the integer 4, got {shown}"

    @pytest.mark.parametrize(
        "text",
        ['{"vars":["t"],"exp_denominator":4,"terms":[', "{1}", "", "[1" + "0" * 5000 + ","],
        ids=["truncated", "bad-key", "empty", "long-int-then-truncated"],
    )
    def test_malformed_json_raises_what_the_any_size_decoder_raises(self, text):
        with pytest.raises(json.JSONDecodeError) as info:
            from_json(text)
        with pytest.raises(json.JSONDecodeError) as expected:
            json.loads(text, parse_int=_digits_int)
        assert str(info.value) == str(expected.value)

    def test_duplicates_merge_and_zeros_drop(self):
        obj = to_json_obj(P("q - p"))
        obj["terms"] += [{"exp": [4, 0], "coeff": "-1"}, {"exp": [0, 0], "coeff": "0"}]
        assert from_json_obj(obj) == P("-p")

    def test_json_is_valid_json(self):
        parsed = json.loads(to_json(P("q - p")))
        assert parsed["vars"] == ["q", "p"]
