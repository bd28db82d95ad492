"""Tests for the skein recurrences and the three-step derivation machinery.

Expected pairs were derived by hand from each family's crossing relationship:
square l1, add twice l2 for k1; negate the square of l2 for k2.  The inverse
direction was checked by hand the same way before freezing.
"""

from __future__ import annotations

from itertools import islice

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from conftest import CTX_AZ, CTX_QP, CTX_T, leading_coefficient, polys
from torkit import (
    FAMILIES,
    AnsatzMismatch,
    ContextMismatch,
    EvenIndexUnsupported,
    InvalidTorusIndex,
    KnotStepPair,
    LaurentPoly,
    NotInvertible,
    NotTwoParameterForm,
    SkeinPair,
    VarContext,
    fit_ansatz,
    gen_full_sequence,
    gen_odd_sequence,
    k_to_l,
    l_to_k,
    parse,
    qp_number,
    solve_parameters,
    uv_number,
)
from torkit import laurent, qnumbers, skein
from torkit.skein import odd_index


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
            assert leading_coefficient(s.l1) > 0
            assert leading_coefficient(s.l2) > 0

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
        seq = dict(gen_odd_sequence(kp(*GEN_K), 3))
        assert seq == {1: LaurentPoly.one(CTX_QP), 3: parse("q + p - q*p", CTX_QP)}

    def test_odd_recurrence_step(self):
        seq = dict(gen_odd_sequence(kp(*GEN_K), 7))
        k1, k2 = parse(GEN_K[0], CTX_QP), parse(GEN_K[1], CTX_QP)
        assert seq[7] == k1 * seq[5] + k2 * seq[3]

    def test_odd_sequence_is_lazy(self, monkeypatch):
        # Under a stepper that fails on a fourth value, a sequence up to
        # n = 10**9 + 1 still returns at once and gives its first three pairs:
        # each value is made only when it is asked for.
        steps = skein._steps

        def three_only(*args):
            yield from islice(steps(*args), 3)
            raise AssertionError("the sequence asked for a value no caller took")

        monkeypatch.setattr(skein, "_steps", three_only)
        pair = kp(*GEN_K)
        k1, k2 = pair.k1, pair.k2
        seq = gen_odd_sequence(pair, 10**9 + 1)
        assert list(islice(seq, 3)) == [
            (1, LaurentPoly.one(CTX_QP)),
            (3, k1 + k2),
            (5, k1 * (k1 + k2) + k2),
        ]

    def test_odd_rejects_even_bound(self):
        # Nothing is iterated: the call itself raises.
        for n_max in (4, 0):
            with pytest.raises(InvalidTorusIndex):
                gen_odd_sequence(kp(*GEN_K), n_max)

    def test_even_index_message_names_the_full_sequence(self):
        # True of every family: alexander, jones and homfly supply an n=2
        # value (FamilySpec.hopf), and the generalized family has none.
        with pytest.raises(EvenIndexUnsupported) as info:
            odd_index(4)
        assert str(info.value) == (
            "T(4,2) is a two-component link; the knot step reaches odd n only, "
            "so even n needs gen_full_sequence and an n=2 link value"
        )

    def test_full_sequence_alexander(self):
        pair = sp(*ALEX_L, CTX_T)
        hopf = parse("t^(1/2) - t^(-1/2)", CTX_T)
        seq = gen_full_sequence(pair, hopf, 5)
        assert seq[3] == parse("t - 1 + t^(-1)", CTX_T)
        assert seq[5] == parse("t^2 - t + 1 - t^(-1) + t^(-2)", CTX_T)

    def test_full_sequence_rejects_non_int_bound(self):
        pair = sp(*ALEX_L, CTX_T)
        one = LaurentPoly.one(CTX_T)
        for n_max in (True, 3.0):
            with pytest.raises(ValueError):
                gen_full_sequence(pair, one, n_max)

    def test_full_sequence_generalized_has_no_consistent_base(self):
        # The generalized pair admits no polynomial n=2 value: the n=3
        # consistency condition l1*base2 = l1^2 + l2 - l2^2 has no Laurent
        # solution (the right side does not vanish at q = p while l1 does).
        # With base2 = l1 the recurrence gives q + p - (qp)^(1/2) at n=3,
        # which differs from the knot value q + p - qp.
        pair = sp(*GEN_L)
        seq = gen_full_sequence(pair, pair.l1, 3)
        assert seq[3] == parse("q + p - q^(1/2)*p^(1/2)", CTX_QP)
        assert seq[3] != parse("q + p - q*p", CTX_QP)

    def test_entry_lookup_error(self):
        # Odd keys up to n_max and nothing else.
        seq = dict(gen_odd_sequence(kp(*GEN_K), 5))
        assert list(seq) == [1, 3, 5]
        with pytest.raises(KeyError):
            seq[7]
        with pytest.raises(KeyError):
            seq[2]


class TestSolveParameters:
    def test_jones(self):
        u, v = solve_parameters(kp(*JONES_K, CTX_T))
        assert (u.terms, v.terms) == ({(12,): 1}, {(4,): 1})
        assert u.context == v.context == CTX_T

    def test_alexander(self):
        u, v = solve_parameters(kp(*ALEX_K, CTX_T))
        assert (u.terms, v.terms) == ({(4,): 1}, {(-4,): 1})

    def test_generalized(self):
        u, v = solve_parameters(kp(*GEN_K))
        assert (u.terms, v.terms) == ({(4, 0): 1}, {(0, 4): 1})
        assert u.context == v.context == CTX_QP

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
        return fit_ansatz(dict(gen_odd_sequence(pair, n_max)), u, v)

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
        seq = dict(gen_odd_sequence(pair, 9))
        seq[7] = seq[7] + parse("q", CTX_QP)
        with pytest.raises(AnsatzMismatch):
            fit_ansatz(seq, u, v)

    def test_keys_with_gaps(self):
        # Each entry is checked against its own [m+1] and [m], however far
        # apart the keys are.
        pair = kp(*GEN_K)
        u, v = solve_parameters(pair)
        full = dict(gen_odd_sequence(pair, 15))
        seq = {n: full[n] for n in (1, 3, 9, 15)}
        assert fit_ansatz(seq, u, v) == (parse("1", CTX_QP), parse("q*p", CTX_QP))
        seq[15] = seq[15] + parse("q", CTX_QP)
        with pytest.raises(AnsatzMismatch, match="n=15"):
            fit_ansatz(seq, u, v)

    @pytest.mark.parametrize("key", [0, -1, 11.0])
    def test_key_that_is_no_torus_index_is_rejected(self, key):
        # Every key must be a knot index; 0 and -1 would otherwise meet the n=1 ansatz value.
        pair = kp(*JONES_K, CTX_T)
        seq = dict(gen_odd_sequence(pair, 9))
        seq[key] = seq[1]
        with pytest.raises(InvalidTorusIndex):
            fit_ansatz(seq, *solve_parameters(pair))

    def test_even_key_raises_the_index_error_not_a_mismatch(self):
        pair = kp(*JONES_K, CTX_T)
        seq = dict(gen_odd_sequence(pair, 9))
        seq[2] = LaurentPoly.one(CTX_T)
        with pytest.raises(EvenIndexUnsupported):
            fit_ansatz(seq, *solve_parameters(pair))

    def test_non_unit_parameter_rejected(self):
        pair = kp(*GEN_K)
        u, v = solve_parameters(pair)
        with pytest.raises(ValueError):
            fit_ansatz(dict(gen_odd_sequence(pair, 9)), 2 * u, v)

    @pytest.mark.parametrize("shape", ["iterator", "list of pairs", "list of keys"])
    def test_a_sequence_that_is_no_mapping_is_rejected(self, shape):
        # Read as a mapping, the lazy iterator and the list of its pairs raise
        # InvalidTorusIndex on their first pair, and [1, 3, 5] an IndexError at seq[3].
        pair = kp(*JONES_K, CTX_T)
        u, v = solve_parameters(pair)
        seq = {
            "iterator": lambda: gen_odd_sequence(pair, 5),
            "list of pairs": lambda: list(gen_odd_sequence(pair, 5)),
            "list of keys": lambda: [1, 3, 5],
        }[shape]()
        with pytest.raises(TypeError, match=r"^seq must be a mapping .*dict\(gen_odd_sequence\(\.\.\.\)\)$"):
            fit_ansatz(seq, u, v)
        if shape == "iterator":
            assert next(seq) == (1, LaurentPoly.one(CTX_T))  # nothing was read

    def test_parameters_of_another_context_rejected(self):
        seq = dict(gen_odd_sequence(kp(*GEN_K), 9))
        with pytest.raises(ContextMismatch):
            fit_ansatz(seq, *solve_parameters(kp(*JONES_K, CTX_T)))
        u, v = solve_parameters(kp(*GEN_K))
        with pytest.raises(ContextMismatch):
            fit_ansatz(seq, u, parse("q", VarContext(("q",))))

    def test_requires_first_two_knots(self):
        with pytest.raises(ValueError):
            fit_ansatz({1: LaurentPoly.one(CTX_QP)}, *solve_parameters(kp(*GEN_K)))


class TestInterleave:
    """The odd entries of the full step against the knot-only step of l_to_k."""

    @staticmethod
    def odd_pairs(pair, base2, n_max):
        full = gen_full_sequence(pair, base2, n_max)
        knots = dict(gen_odd_sequence(l_to_k(pair), n_max if n_max % 2 else n_max - 1))
        return {n: value for n, value in full.items() if n % 2}, knots

    def test_alexander_hopf(self):
        odd, knots = self.odd_pairs(sp(*ALEX_L, CTX_T), parse("t^(1/2) - t^(-1/2)", CTX_T), 21)
        assert odd == knots

    def test_jones_hopf(self):
        odd, knots = self.odd_pairs(sp(*JONES_L, CTX_T), parse("-t^(1/2) - t^(5/2)", CTX_T), 21)
        assert odd == knots

    def test_homfly_hopf(self):
        base2 = parse("a*z + a*z^(-1) - a^3*z^(-1)", CTX_AZ)
        odd, knots = self.odd_pairs(sp(*HOMFLY_L, CTX_AZ), base2, 15)
        assert odd == knots

    def test_inconsistent_base_is_reported(self):
        odd, knots = self.odd_pairs(sp(*ALEX_L, CTX_T), LaurentPoly.one(CTX_T), 9)
        assert list(odd) == list(knots) == [1, 3, 5, 7, 9]
        assert [n for n in odd if odd[n] != knots[n]][0] == 3

    def test_even_top_checks_every_odd_entry_below_it(self):
        odd, knots = self.odd_pairs(sp(*ALEX_L, CTX_T), parse("t^(1/2) - t^(-1/2)", CTX_T), 10)
        assert list(odd) == [1, 3, 5, 7, 9]
        assert odd == knots

    def test_bases_alone_for_the_smallest_bounds(self):
        pair = sp(*ALEX_L, CTX_T)
        one, base2 = LaurentPoly.one(CTX_T), parse("t^2", CTX_T)
        assert gen_full_sequence(pair, base2, 1) == {1: one}
        assert gen_full_sequence(pair, base2, 2) == {1: one, 2: base2}
        # base2's context is checked before any step, even when n=2 is not returned.
        with pytest.raises(ContextMismatch, match="^base2 and pair must share one context$"):
            gen_full_sequence(pair, parse("q", CTX_QP), 1)


def naive_steps(c1, c2, first, second, count):
    """The first count entries of P(n+1) = c1 P(n) + c2 P(n-1) with plain * and
    +: the naive twin of the fused stepper behind both sequences."""
    entries = [first, second]
    while len(entries) < count:
        entries.append(c1 * entries[-1] + c2 * entries[-2])
    return entries


@pytest.mark.parametrize("family", list(FAMILIES))
def test_fused_steps_match_the_naive_stepper(family):
    # To n = 501: packed from _PACKED_MIN_TERMS terms on, and HOMFLY back on _linear past 64-bit slots.
    spec = FAMILIES[family]
    k1, k2 = spec.knot_step.k1, spec.knot_step.k2
    one = LaurentPoly.one(spec.context)
    odd = dict(gen_odd_sequence(spec.knot_step, 501))
    assert list(odd) == list(range(1, 502, 2))
    assert list(odd.values()) == naive_steps(k1, k2, one, k1 + k2, 251)
    base2 = spec.hopf if spec.hopf is not None else spec.skein.l1
    full = gen_full_sequence(spec.skein, base2, 501)
    assert list(full) == list(range(1, 502))
    assert list(full.values()) == naive_steps(spec.skein.l1, spec.skein.l2, one, base2, 501)


@st.composite
def recurrences(draw):
    """(c1, c2, first, second) over one or two variables, with negative and
    quarter exponents.  In two variables c1's terms share x0, or x0 + x1, or
    neither, and first lies on two nearby values of that coordinate and
    second on those moved as c1 moves them, so that most runs reach the
    packed steps.  first and second hold up to 24 terms, with coefficients
    of 2, 20 or 50 bits, so that some runs outgrow 64-bit slots partway."""
    context = draw(st.sampled_from([CTX_T, CTX_QP]))
    exp = st.integers(-8, 8)
    free = st.tuples(*[exp] * len(context))
    shared = "x0" if len(context) == 1 else draw(st.sampled_from(["x0", "x0 + x1", "neither"]))

    def on_rows(*rows):
        if shared == "neither":
            return free
        keys = st.tuples(st.sampled_from(rows), exp)
        if len(context) == 1:
            return keys.map(lambda key: key[1:])
        return keys if shared == "x0" else keys.map(lambda key: (key[1], key[0] - key[1]))

    small = st.integers(-3, 3).filter(bool)
    move = draw(exp)  # of the row, by each term of c1 and, as in the families, by two of c2's
    c1 = draw(st.dictionaries(on_rows(move), small, min_size=1, max_size=3))
    c2 = draw(st.dictionaries(on_rows(2 * move), small, min_size=1, max_size=2))
    bits, row, gap = draw(st.sampled_from([2, 20, 50])), draw(exp), draw(st.integers(1, 2))
    coeffs = st.integers(-(2**bits), 2**bits).filter(bool)
    first, second = [draw(st.dictionaries(on_rows(r, r + gap), coeffs, max_size=24)) for r in (row, row + move)]
    return [LaurentPoly(context, terms) for terms in (c1, c2, first, second)]


@given(recurrences())
@settings(max_examples=150, deadline=None)
def test_steps_match_the_naive_stepper(case):
    assert list(islice(qnumbers._steps(*case), 24)) == naive_steps(*case, 24)


def run_of(terms: int, context=CTX_T) -> LaurentPoly:
    """The sum of t^(j/4), or in q and p of p^(j/4), for j = 1 .. terms."""
    return LaurentPoly(context, {((j,) if len(context) == 1 else (0, j)): 1 for j in range(1, terms + 1)})


@pytest.mark.parametrize(
    "case",
    [
        # c1 P(1) cancels c2 P(0): the entry after the bases is zero, then P(0)'s multiples.
        (parse("t", CTX_T), parse("-t^2", CTX_T), run_of(30), parse("t", CTX_T) * run_of(30)),
        # q + p^2 shares neither x0 nor x0 + x1 across its terms: no row to pack on.
        (parse("q + p^2", CTX_QP), parse("-q", CTX_QP), run_of(30, CTX_QP), run_of(40, CTX_QP)),
    ],
    ids=["an entry cancels to zero", "c1 shares no row coordinate"],
)
def test_steps_match_the_naive_stepper_at_the_edges(case):
    assert list(islice(qnumbers._steps(*case), 40)) == naive_steps(*case, 40)


def test_slot_width_bound_is_tight_at_every_width():
    # P(n) = F(n+1) t^(n/4) S for a run S of 30 terms: the copies of each
    # term land on one slot with one sign, so ||c1|| max|P(n)| + ||c2||
    # max|P(n-1)| is each new coefficient exactly.  F = 144, 46368 and
    # 2971215073 fill the sign bit of 8, 16 and 32 bits, and
    # F(93) = 12200160415121876738 would need 65, so _linear makes it.
    t, run = parse("t^(1/4)", CTX_T), run_of(30)
    case = (t, t * t, run, t * run)
    assert list(islice(qnumbers._steps(*case), 100)) == naive_steps(*case, 100)


def test_row_span_bound_meets_its_edge():
    # P(n) = (p^(n/4) + p^((n-2)/4) + ... + p^(-n/4)) (1 + q^(1/4) p^(-1/4)):
    # coefficients 1 on two rows, x0 = 0 and 1/4, over the same columns
    # x0 + x1.  Each step widens the hull by a column on either side; rows
    # are laid out 50 columns long when packing starts, and 13 steps later
    # the hull spans 51, where the last column of the first row would wrap
    # onto the first column of the second.
    c1, first = parse("p^(1/4) + p^(-1/4)", CTX_QP), parse("1 + q^(1/4)*p^(-1/4)", CTX_QP)
    case = (c1, parse("-1", CTX_QP), first, c1 * first)
    assert list(islice(qnumbers._steps(*case), 60)) == naive_steps(*case, 60)


def test_a_one_row_entry_outgrows_the_row_length():
    # [n]_{q,p} = q^(n-1) + q^(n-2) p + ... + p^(n-1): c1 = q + p shares
    # x0 + x1, so every entry is one row, n columns wide.  Packing starts at
    # [24] with rows 48 slots long; a single row wraps into no other, so the
    # span check lets [49] and later entries grow past that, and each is
    # read back in a row as long as its own hull.
    q, p = parse("q", CTX_QP), parse("p", CTX_QP)
    case = (q + p, -q * p, LaurentPoly.zero(CTX_QP), LaurentPoly.one(CTX_QP))
    assert list(islice(qnumbers._steps(*case), 120)) == naive_steps(*case, 120)


def kernels_used(monkeypatch, pair: KnotStepPair, n_max: int) -> tuple[list, list]:
    """The odd entries of pair's knot step up to n_max, and for each entry
    after the bases the kernel that made it: "linear" or "packed"."""
    made = []
    linear, packed = qnumbers._linear, qnumbers._packed_steps

    def counting_linear(*step):
        made.append("linear")
        return linear(*step)

    def counting_packed(*start):
        for entry in packed(*start):
            made.append("packed")
            yield entry

    monkeypatch.setattr(qnumbers, "_linear", counting_linear)
    monkeypatch.setattr(qnumbers, "_packed_steps", counting_packed)
    return list(dict(gen_odd_sequence(pair, n_max)).values()), made


def test_which_kernel_steps_each_entry(monkeypatch):
    # Entry i + 1 is stepped from entries i - 1 and i.  Alexander to n = 501:
    # _linear while entry i has fewer than _PACKED_MIN_TERMS terms, then packed.
    entries, made = kernels_used(monkeypatch, FAMILIES["alexander"].knot_step, 501)
    small = sum(1 for entry in entries[1:-1] if entry.num_terms < laurent._PACKED_MIN_TERMS)
    assert small >= 1 and made == ["linear"] * small + ["packed"] * (len(entries) - 2 - small)
    # HOMFLY: packed until ||k1|| max|P(n)| + ||k2|| max|P(n-2)| needs 64
    # bits with its sign, then _linear for the rest.
    pair = FAMILIES["homfly"].knot_step
    entries, made = kernels_used(monkeypatch, pair, 201)
    small = sum(1 for entry in entries[1:-1] if entry.num_terms < laurent._PACKED_MIN_TERMS)
    tops = [max(map(abs, entry.terms.values())) for entry in entries]
    norms = [sum(map(abs, k.terms.values())) for k in (pair.k1, pair.k2)]
    wide = [i for i in range(1, len(entries)) if (norms[0] * tops[i] + norms[1] * tops[i - 1]).bit_length() >= 64]
    assert wide == list(range(wide[0], len(entries)))
    packed = wide[0] - 1 - small
    assert packed > 0 and made == ["linear"] * small + ["packed"] * packed + ["linear"] * (len(entries) - 1 - wide[0])
    assert 2 * (wide[0] + 1) + 1 == 97  # P(97) is the first HOMFLY value that _linear makes again


# -- properties ----------------------------------------------------------------


def monic_terms_qp():
    exps = st.tuples(st.integers(-6, 6), st.integers(-6, 6))
    return exps.map(lambda e: LaurentPoly(CTX_QP, {e: 1}))


@given(monic_terms_qp(), monic_terms_qp())
@settings(max_examples=60)
def test_two_parameter_ansatz_always_fits(u, v):
    # For k1 = u + v, k2 = -uv the knot values are exactly [m+1] - uv [m]
    if u == v:
        return
    pair = KnotStepPair(u + v, -(u * v))
    uu, vv = solve_parameters(pair)
    coeffs = fit_ansatz(dict(gen_odd_sequence(pair, 11)), uu, vv)
    assert coeffs.a1 == LaurentPoly.one(CTX_QP)
    assert coeffs.a2 == u * v


@st.composite
def unit_term_pairs(draw):
    """(context, u, v): single terms with coefficient +/-1 over one or two
    variables, with negative and quarter exponents, and u == v in exponents
    about a third of the time so that terms merge (or cancel, when the signs
    differ)."""
    context = draw(st.sampled_from([CTX_T, CTX_QP]))
    exps = st.tuples(*[st.integers(-9, 9)] * len(context))
    sign = st.sampled_from([1, -1])
    u_exps, u_sign = draw(exps), draw(sign)
    v_exps = u_exps if draw(st.integers(0, 2)) == 0 else draw(exps)
    return context, LaurentPoly(context, {u_exps: u_sign}), LaurentPoly(context, {v_exps: draw(sign)})


@given(unit_term_pairs())
@settings(max_examples=80, deadline=None)
def test_direct_two_parameter_numbers_match_substitution(case):
    # The oracle: [m]_{q,p} with q -> u, p -> v by substitute_monomial.
    context, u, v = case
    for m in range(41):
        got = uv_number(m, u, v)
        assert got == qp_number(m).substitute_monomial(context, {"q": u, "p": v}), m
        assert LaurentPoly(context, got.terms) == got and 0 not in got.terms.values()


@given(polys(max_terms=3, quarter_bound=6), polys(max_terms=3, quarter_bound=6), polys(max_terms=3, quarter_bound=6))
@settings(max_examples=60, deadline=None)
def test_flipping_l1_and_base2_fixes_odd_entries(l1, l2, base2):
    plus = gen_full_sequence(SkeinPair(l1, l2), base2, 8)
    minus = gen_full_sequence(SkeinPair(-l1, l2), -base2, 8)
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
    base2 = parse("q - p^(-1)", CTX_QP)
    seq = gen_full_sequence(pair, base2, 9)
    for n in range(5, 10):
        assert seq[n] == k.k1 * seq[n - 2] + k.k2 * seq[n - 4]
