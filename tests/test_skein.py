"""Tests for the skein recurrences and the three-step derivation machinery.

Expected pairs were derived by hand from each family's crossing relationship:
square l1, add twice l2 for k1; negate the square of l2 for k2.  The inverse
direction was checked by hand the same way before freezing.
"""

from __future__ import annotations

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from conftest import CTX_AZ, CTX_QP, CTX_T, polys
from torkit import (
    AnsatzMismatch,
    ContextMismatch,
    KnotStepPair,
    LaurentPoly,
    Monomial,
    NotInvertible,
    NotTwoParameterForm,
    SkeinPair,
    TorusSequence,
    fit_ansatz,
    gen_full_sequence,
    gen_odd_sequence,
    k_to_l,
    l_to_k,
    parse,
    solve_parameters,
    verify_interleave,
)


def sp(l1: str, l2: str, ctx=CTX_QP) -> SkeinPair:
    return SkeinPair(parse(l1, ctx), parse(l2, ctx))


def kp(k1: str, k2: str, ctx=CTX_QP) -> KnotStepPair:
    return KnotStepPair(parse(k1, ctx), parse(k2, ctx))


ALEX_L = ("t^(1/2) - t^(-1/2)", "1")
ALEX_K = ("t + t^(-1)", "-1")
GEN_L = ("q^(1/2) - p^(1/2)", "q^(1/2)*p^(1/2)")
GEN_K = ("q + p", "-q*p")
JONES_L = ("t^(3/2) - t^(1/2)", "t^2")
JONES_K = ("t^3 + t", "-t^4")
HOMFLY_L = ("a*z", "a^2")
HOMFLY_K = ("a^2*z^2 + 2*a^2", "-a^4")


class TestLToK:
    def test_alexander(self):
        k = l_to_k(sp(*ALEX_L, CTX_T))
        assert (k.k1, k.k2) == (parse(ALEX_K[0], CTX_T), parse(ALEX_K[1], CTX_T))

    def test_generalized(self):
        k = l_to_k(sp(*GEN_L))
        assert (k.k1, k.k2) == (parse(GEN_K[0], CTX_QP), parse(GEN_K[1], CTX_QP))

    def test_jones(self):
        k = l_to_k(sp(*JONES_L, CTX_T))
        assert (k.k1, k.k2) == (parse(JONES_K[0], CTX_T), parse(JONES_K[1], CTX_T))

    def test_homfly(self):
        k = l_to_k(sp(*HOMFLY_L, CTX_AZ))
        assert (k.k1, k.k2) == (parse(HOMFLY_K[0], CTX_AZ), parse(HOMFLY_K[1], CTX_AZ))

    def test_context_mismatch_rejected(self):
        with pytest.raises(ContextMismatch):
            SkeinPair(parse("q", CTX_QP), parse("t", CTX_T))


class TestKToL:
    def test_alexander(self):
        s = k_to_l(kp(*ALEX_K, CTX_T))
        assert s.l1 == parse(ALEX_L[0], CTX_T)
        assert s.l2 == parse(ALEX_L[1], CTX_T)

    def test_generalized(self):
        s = k_to_l(kp(*GEN_K))
        assert s.l1 == parse(GEN_L[0], CTX_QP)
        assert s.l2 == parse(GEN_L[1], CTX_QP)

    def test_jones(self):
        s = k_to_l(kp(*JONES_K, CTX_T))
        assert s.l1 == parse(JONES_L[0], CTX_T)
        assert s.l2 == parse(JONES_L[1], CTX_T)

    def test_results_are_canonical_positive(self):
        for k, ctx in [(ALEX_K, CTX_T), (GEN_K, CTX_QP), (JONES_K, CTX_T), (HOMFLY_K, CTX_AZ)]:
            s = k_to_l(kp(*k, ctx))
            assert s.l1.leading_monomial().coeff > 0
            assert s.l2.leading_monomial().coeff > 0

    def test_negated_branch_is_used_when_needed(self):
        # sqrt(-k2) = t, and k1 - 2t = -3t + 2 + t^(-1) is not a square;
        # only l2 = -t works, with k1 + 2t = (t^(1/2) + t^(-1/2))^2
        s = k_to_l(kp("-t + 2 + t^(-1)", "-t^2", CTX_T))
        assert s.l2 == parse("-t", CTX_T)
        assert s.l1 == parse("t^(1/2) + t^(-1/2)", CTX_T)

    def test_not_invertible_when_neither_branch_squares(self):
        with pytest.raises(NotInvertible):
            k_to_l(kp("q + p", "-q"))

    def test_not_invertible_when_k2_is_not_minus_a_square(self):
        with pytest.raises(NotInvertible):
            k_to_l(kp("q + p", "q*p"))  # -k2 = -qp has negative leading coeff


class TestSequences:
    def test_odd_bases(self):
        seq = gen_odd_sequence(kp(*GEN_K), 3)
        assert seq.entry(1) == LaurentPoly.one(CTX_QP)
        assert seq.entry(3) == parse("q + p - q*p", CTX_QP)

    def test_odd_recurrence_step(self):
        seq = gen_odd_sequence(kp(*GEN_K), 7)
        k1, k2 = parse(GEN_K[0], CTX_QP), parse(GEN_K[1], CTX_QP)
        assert seq.entry(7) == k1 * seq.entry(5) + k2 * seq.entry(3)

    def test_odd_rejects_even_bound(self):
        with pytest.raises(ValueError):
            gen_odd_sequence(kp(*GEN_K), 4)

    def test_full_sequence_alexander(self):
        pair = sp(*ALEX_L, CTX_T)
        one = LaurentPoly.one(CTX_T)
        hopf = parse("t^(1/2) - t^(-1/2)", CTX_T)
        seq = gen_full_sequence(pair, one, hopf, 5)
        assert seq[3] == parse("t - 1 + t^(-1)", CTX_T)
        assert seq[5] == parse("t^2 - t + 1 - t^(-1) + t^(-2)", CTX_T)

    def test_full_sequence_rejects_non_int_bound(self):
        pair = sp(*ALEX_L, CTX_T)
        one = LaurentPoly.one(CTX_T)
        for n_max in (True, 3.0):
            with pytest.raises(ValueError):
                gen_full_sequence(pair, one, one, n_max)

    def test_full_sequence_generalized_has_no_consistent_base(self):
        # The generalized pair admits no polynomial n=2 value: the n=3
        # consistency condition l1*base2 = l1^2 + l2 - l2^2 has no Laurent
        # solution (the right side does not vanish at q = p while l1 does).
        # With base2 = l1 the recurrence gives q + p - (qp)^(1/2) at n=3,
        # which differs from the knot value q + p - qp.
        pair = sp(*GEN_L)
        one = LaurentPoly.one(CTX_QP)
        seq = gen_full_sequence(pair, one, pair.l1, 3)
        assert seq[3] == parse("q + p - q^(1/2)*p^(1/2)", CTX_QP)
        assert seq[3] != parse("q + p - q*p", CTX_QP)

    def test_entry_lookup_error(self):
        seq = gen_odd_sequence(kp(*GEN_K), 5)
        with pytest.raises(KeyError):
            seq.entry(7)
        with pytest.raises(KeyError):
            seq.entry(2)


class TestSolveParameters:
    def test_jones(self):
        u, v = solve_parameters(kp(*JONES_K, CTX_T))
        assert (u.quarters, u.coeff) == ((12,), 1)
        assert (v.quarters, v.coeff) == ((4,), 1)

    def test_alexander(self):
        u, v = solve_parameters(kp(*ALEX_K, CTX_T))
        assert (u.quarters, v.quarters) == ((4,), (-4,))

    def test_generalized(self):
        u, v = solve_parameters(kp(*GEN_K))
        assert (u.quarters, v.quarters) == ((4, 0), (0, 4))

    def test_homfly_is_not_two_parameter(self):
        with pytest.raises(NotTwoParameterForm):
            solve_parameters(kp(*HOMFLY_K, CTX_AZ))

    def test_non_monic_rejected(self):
        with pytest.raises(NotTwoParameterForm):
            solve_parameters(kp("2*q + p", "-q*p"))

    def test_product_mismatch_rejected(self):
        with pytest.raises(NotTwoParameterForm):
            solve_parameters(kp("q + p", "-q^2*p"))


class TestFitAnsatz:
    def fit(self, k, ctx, n_max=21):
        pair = kp(*k, ctx)
        u, v = solve_parameters(pair)
        return fit_ansatz(gen_odd_sequence(pair, n_max), u, v)

    def test_alexander_coefficients(self):
        c = self.fit(ALEX_K, CTX_T)
        assert c.a1 == parse("1", CTX_T)
        assert c.a2 == parse("1", CTX_T)

    def test_generalized_coefficients(self):
        c = self.fit(GEN_K, CTX_QP)
        assert c.a1 == parse("1", CTX_QP)
        assert c.a2 == parse("q*p", CTX_QP)

    def test_jones_coefficients(self):
        c = self.fit(JONES_K, CTX_T)
        assert c.a1 == parse("1", CTX_T)
        assert c.a2 == parse("t^4", CTX_T)

    def test_corrupted_entry_is_caught(self):
        pair = kp(*GEN_K)
        u, v = solve_parameters(pair)
        seq = gen_odd_sequence(pair, 9)
        entries = dict(seq.entries)
        entries[7] = entries[7] + parse("q", CTX_QP)
        with pytest.raises(AnsatzMismatch):
            fit_ansatz(TorusSequence(seq.label, entries), u, v)

    def test_requires_first_two_knots(self):
        with pytest.raises(ValueError):
            fit_ansatz(TorusSequence("partial", {1: LaurentPoly.one(CTX_QP)}), *solve_parameters(kp(*GEN_K)))


class TestInterleave:
    def test_alexander_hopf(self):
        report = verify_interleave(
            sp(*ALEX_L, CTX_T), parse("t^(1/2) - t^(-1/2)", CTX_T), 21
        )
        assert report.passed

    def test_jones_hopf(self):
        report = verify_interleave(
            sp(*JONES_L, CTX_T), parse("-t^(1/2) - t^(5/2)", CTX_T), 21
        )
        assert report.passed

    def test_homfly_hopf(self):
        report = verify_interleave(
            sp(*HOMFLY_L, CTX_AZ), parse("a*z + a*z^(-1) - a^3*z^(-1)", CTX_AZ), 15
        )
        assert report.passed

    def test_inconsistent_base_is_reported(self):
        report = verify_interleave(sp(*ALEX_L, CTX_T), LaurentPoly.one(CTX_T), 9)
        assert not report.passed
        assert report.failures[0].n == 3


# -- properties ----------------------------------------------------------------


def monomials_qp():
    exps = st.tuples(st.integers(-6, 6), st.integers(-6, 6))
    return exps.map(lambda e: Monomial.from_quarters(e, 1))


@given(monomials_qp(), monomials_qp())
@settings(max_examples=60)
def test_two_parameter_ansatz_always_fits(u, v):
    # For k1 = u + v, k2 = -uv the knot values are exactly [m+1] - uv [m]
    if u.quarters == v.quarters:
        return
    pu = LaurentPoly.from_monomial(CTX_QP, u)
    pv = LaurentPoly.from_monomial(CTX_QP, v)
    pair = KnotStepPair(pu + pv, -(pu * pv))
    uu, vv = solve_parameters(pair)
    coeffs = fit_ansatz(gen_odd_sequence(pair, 11), uu, vv)
    assert coeffs.a1 == LaurentPoly.one(CTX_QP)
    assert coeffs.a2 == pu * pv


@given(polys(max_terms=3, quarter_bound=6), polys(max_terms=3, quarter_bound=6), polys(max_terms=3, quarter_bound=6))
@settings(max_examples=60, deadline=None)
def test_flipping_l1_and_base2_fixes_odd_entries(l1, l2, base2):
    one = LaurentPoly.one(CTX_QP)
    plus = gen_full_sequence(SkeinPair(l1, l2), one, base2, 8)
    minus = gen_full_sequence(SkeinPair(-l1, l2), one, -base2, 8)
    for n in range(1, 9):
        if n % 2:
            assert plus[n] == minus[n]
        else:
            assert plus[n] == -minus[n]


@given(polys(max_terms=3, quarter_bound=4), polys(max_terms=3, quarter_bound=4))
@settings(max_examples=40, deadline=None)
def test_k_to_l_is_k_level_faithful(l1, l2):
    k = l_to_k(SkeinPair(l1, l2))
    recovered = k_to_l(k)
    again = l_to_k(recovered)
    assert again.k1 == k.k1
    assert again.k2 == k.k2


@given(polys(max_terms=3, quarter_bound=5), polys(max_terms=3, quarter_bound=5))
@settings(max_examples=40, deadline=None)
def test_odd_subsequence_of_full_recurrence_obeys_knot_step(l1, l2):
    # P(n+2) = k1 P(n) + k2 P(n-2) holds for every base2, knots and links alike
    pair = SkeinPair(l1, l2)
    k = l_to_k(pair)
    one = LaurentPoly.one(CTX_QP)
    base2 = parse("q - p^(-1)", CTX_QP)
    seq = gen_full_sequence(pair, one, base2, 9)
    for n in range(5, 10):
        assert seq[n] == k.k1 * seq[n - 2] + k.k2 * seq[n - 4]
