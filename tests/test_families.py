"""Tests for the four named invariant families on odd torus indices.

Small-index values were computed by hand from the recurrences and frozen here;
larger indices are cross-checked closed form against recurrence.
"""

from __future__ import annotations

import tracemalloc

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from conftest import CTX_AZ, CTX_QP, CTX_T
from torkit import (
    ALEXANDER,
    FAMILIES,
    GENERALIZED_ALEXANDER,
    HOMFLY,
    JONES,
    ContextMismatch,
    EvenIndexUnsupported,
    InvalidTorusIndex,
    alexander_torus,
    gen_odd_sequence,
    generalized_alexander_torus,
    homfly_to_generalized,
    homfly_torus,
    jones_torus,
    parse,
    q_number,
    to_alexander,
    to_jones,
)
from torkit.families import _build_family

FROZEN = {
    "alexander": {
        1: "1",
        3: "t - 1 + t^(-1)",
        5: "t^2 - t + 1 - t^(-1) + t^(-2)",
    },
    "generalized-alexander": {
        1: "1",
        3: "q + p - q*p",
        5: "q^2 + q*p + p^2 - q^2*p - q*p^2",
    },
    "jones": {
        1: "1",
        3: "-t^4 + t^3 + t",
        5: "-t^7 + t^6 - t^5 + t^4 + t^2",
    },
    "homfly": {
        1: "1",
        3: "a^2*z^2 + 2*a^2 - a^4",
        5: "a^4*z^4 - a^6*z^2 + 4*a^4*z^2 - 2*a^6 + 3*a^4",
    },
}

COMPUTE = {
    "alexander": (alexander_torus, CTX_T),
    "generalized-alexander": (generalized_alexander_torus, CTX_QP),
    "jones": (jones_torus, CTX_T),
    "homfly": (homfly_torus, CTX_AZ),
}


class TestFrozenValues:
    @pytest.mark.parametrize("family", sorted(FROZEN))
    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_small_index(self, family, n):
        fn, ctx = COMPUTE[family]
        assert fn(n) == parse(FROZEN[family][n], ctx)

    def test_trefoil_is_unnormalized_conway_form(self):
        # the n=3 value times nothing: the recurrence already yields t - 1 + 1/t
        assert alexander_torus(3) == parse("t - 1 + t^(-1)", CTX_T)


class TestClosedFormAgreesWithRecurrence:
    @pytest.mark.parametrize("family", sorted(COMPUTE))
    def test_match_through_n_21(self, family):
        spec = FAMILIES[family]
        seq = dict(gen_odd_sequence(spec.knot_step, 21))
        fn, _ = COMPUTE[family]
        for n in range(1, 22, 2):
            assert fn(n) == spec.value(n) == seq[n]

    def test_homfly_closed_form_matches_recurrence_n_le_13_201_401(self):
        # value(n) is the Chebyshev-U closed form; the knot-step recurrence
        # is the oracle.
        seq = dict(gen_odd_sequence(HOMFLY.knot_step, 401))
        for n in (*range(1, 14, 2), 201, 401):
            assert homfly_torus(n) == HOMFLY.value(n) == seq[n]

    @given(st.integers(0, 60))
    @settings(max_examples=30, deadline=None)
    def test_homfly_value_matches_its_sequence(self, m):
        n = 2 * m + 1
        assert HOMFLY.value(n) == dict(gen_odd_sequence(HOMFLY.knot_step, n))[n]

    def test_homfly_value_does_not_hold_the_sequence(self):
        # The whole sequence to n = 401 peaks at about 7.5 MiB, the closed
        # form's one value at about 0.1 MiB.
        tracemalloc.start()
        try:
            homfly_torus(401)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestIndexValidation:
    @pytest.mark.parametrize("family", sorted(COMPUTE))
    def test_even_rejected(self, family):
        fn, _ = COMPUTE[family]
        with pytest.raises(EvenIndexUnsupported):
            fn(4)

    @pytest.mark.parametrize("family", sorted(COMPUTE))
    def test_nonpositive_rejected(self, family):
        fn, _ = COMPUTE[family]
        with pytest.raises(ValueError):
            fn(-3)
        with pytest.raises(ValueError):
            fn(0)

    @pytest.mark.parametrize("family", sorted(COMPUTE))
    @pytest.mark.parametrize("bad", [True, 3.0, "3"])
    def test_non_int_rejected(self, family, bad):
        # bool is an int subclass and True used to pass as n = 1
        fn, _ = COMPUTE[family]
        with pytest.raises(InvalidTorusIndex):
            fn(bad)
        with pytest.raises(InvalidTorusIndex):
            FAMILIES[family].value(bad)

    @pytest.mark.parametrize("bad", [True, 3.0, "3"])
    def test_non_int_bound_rejected_by_recurrence(self, bad):
        with pytest.raises(InvalidTorusIndex):
            gen_odd_sequence(JONES.knot_step, bad)


class TestValuePath:
    @pytest.mark.parametrize("family", sorted(COMPUTE))
    def test_sequence_matches_value(self, family):
        spec = FAMILIES[family]
        seq = spec.sequence(9)
        assert sorted(seq) == [1, 3, 5, 7, 9]
        for n in (1, 3, 5, 7, 9):
            assert seq[n] == spec.value(n) == COMPUTE[family][0](n)

    @pytest.mark.parametrize("family", sorted(COMPUTE))
    def test_sequence_bound_validated(self, family):
        with pytest.raises(EvenIndexUnsupported):
            FAMILIES[family].sequence(8)
        with pytest.raises(InvalidTorusIndex):
            FAMILIES[family].sequence(0)

    def test_jones_value_is_the_closed_form(self):
        # jones_torus and the CLI take one path: the closed form, not the recurrence
        assert jones_torus(21) == JONES.closed_form(10)


class TestSkeinData:
    def test_registry_is_complete(self):
        assert sorted(FAMILIES) == [
            "alexander",
            "generalized-alexander",
            "homfly",
            "jones",
        ]
        for name, spec in FAMILIES.items():
            assert spec.name == name

    def test_skein_form_triple_holds(self):
        # c_plus P(n) + c_minus P(n-2) = c_zero P(n-1) along each family's
        # two-base sequence, using the Hopf value where one exists
        for spec in (ALEXANDER, JONES, HOMFLY):
            from torkit import gen_full_sequence

            c_plus, c_minus, c_zero = spec.skein_form
            seq = gen_full_sequence(spec.skein, spec.hopf, 9)
            for n in range(3, 10):
                assert c_plus * seq[n] + c_minus * seq[n - 2] == c_zero * seq[n - 1]

    def test_generalized_family_has_no_hopf_value(self):
        assert GENERALIZED_ALEXANDER.hopf is None

    @pytest.mark.parametrize("c_plus", ["2*t", "t + 1", "0"])
    def test_c_plus_must_invert_exactly(self, c_plus):
        # Only a single +/-1 term has a Laurent-polynomial inverse.
        with pytest.raises(ValueError) as info:
            _build_family("doubled", CTX_T, c_plus, "-1", "t - 1", q_number)
        assert str(info.value) == "only +/-1 terms invert exactly"

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_knot_step_runs_backward(self, family):
        # k2 is a single +/-1 term, so P(n-2) = (P(n+2) - k1 P(n)) k2^(-1)
        # is exact: stepping down from P(39), P(41) retraces the sequence.
        spec = FAMILIES[family]
        seq = spec.sequence(41)
        k1, inv = spec.knot_step.k1, spec.knot_step.k2 ** -1
        cur, nxt = seq[39], seq[41]
        for n in range(39, 1, -2):
            cur, nxt = (nxt - k1 * cur) * inv, cur
            assert cur == seq[n - 2]
        assert cur == 1


class TestSubstitutions:
    def test_to_alexander_on_trefoil(self):
        assert to_alexander(generalized_alexander_torus(3)) == alexander_torus(3)

    def test_to_jones_on_trefoil(self):
        assert to_jones(generalized_alexander_torus(3)) == jones_torus(3)

    def test_homfly_to_generalized_on_trefoil(self):
        assert homfly_to_generalized(homfly_torus(3)) == generalized_alexander_torus(3)

    @pytest.mark.parametrize("n", [1, 3, 5, 7, 9, 11])
    def test_chain_holds_for_small_odd_n(self, n):
        g = generalized_alexander_torus(n)
        assert to_alexander(g) == alexander_torus(n)
        assert to_jones(g) == jones_torus(n)
        assert homfly_to_generalized(homfly_torus(n)) == g

    @pytest.mark.parametrize("n", [101, 301])
    def test_homfly_bridge_holds_at_large_n(self, n):
        # Powers of z up to n - 1, past any size the small cases reach.
        assert homfly_to_generalized(homfly_torus(n)) == generalized_alexander_torus(n)

    def test_context_checked(self):
        # Each message names the contexts mapped and the contexts given.
        cases = [
            (to_alexander, alexander_torus(3), "('q', 'p') to ('t',), not ('t',) to ('t',)"),
            (to_jones, homfly_torus(3), "('q', 'p') to ('t',), not ('a', 'z') to ('t',)"),
            (homfly_to_generalized, generalized_alexander_torus(3), "('a', 'z') to ('q', 'p'), not ('q', 'p') to ('q', 'p')"),
        ]
        for convert, value, contexts in cases:
            with pytest.raises(ContextMismatch) as info:
                convert(value)
            assert str(info.value) == f"substitution maps {contexts}"
