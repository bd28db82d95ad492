"""Property tests for the polynomial core: ring axioms, canonical form,
round trips, and the square-root and evaluation contracts."""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import given, settings

from conftest import CTX_AZ, CTX_Q, CTX_QP, CTX_T, nonzero_polys, polys, rationals, shaped_pairs
from torkit import LaurentPoly, Monomial, exact_sqrt, from_json, parse, to_json


@given(polys(), polys(), polys())
def test_ring_axioms(f, g, h):
    assert f + g == g + f
    assert (f + g) + h == f + (g + h)
    assert f * g == g * f
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h


@given(polys())
def test_additive_structure(f):
    zero = LaurentPoly.zero(CTX_QP)
    assert f + zero == f
    assert f - f == zero
    assert -(-f) == f


@given(polys())
def test_multiplicative_identity_and_annihilator(f):
    assert f * LaurentPoly.one(CTX_QP) == f
    assert (f * LaurentPoly.zero(CTX_QP)).is_zero()


@given(polys(max_terms=4), st.integers(0, 4))
def test_pow_matches_repeated_multiplication(f, e):
    expected = LaurentPoly.one(CTX_QP)
    for _ in range(e):
        expected = expected * f
    assert f ** e == expected


@given(st.lists(st.tuples(st.tuples(st.integers(-8, 8), st.integers(-8, 8)), st.integers(-9, 9)), max_size=6))
def test_canonical_form_ignores_construction_order(term_list):
    a = LaurentPoly(CTX_QP, term_list)
    b = LaurentPoly(CTX_QP, list(reversed(term_list)))
    assert a.terms == b.terms
    assert a == b


@given(nonzero_polys(max_terms=4, quarter_bound=6))
@settings(max_examples=200)
def test_sqrt_of_square_is_canonical_positive(f):
    root = exact_sqrt(f * f)
    assert root == f or root == -f
    assert root.leading_monomial().coeff > 0
    assert root * root == f * f


@given(
    st.sampled_from((CTX_T, CTX_QP)).flatmap(
        lambda ctx: nonzero_polys(context=ctx, max_terms=12, quarter_bound=200)
    ),
    st.integers(0, 2 ** 64),
)
@settings(max_examples=200, deadline=None)
def test_sqrt_recovers_sparse_roots(g, scale):
    # Exponents spread over +-50 powers leave the half box mostly empty; the
    # loop must still end exactly when the remainder does.  The scale takes
    # coefficients past one machine word.
    g = g * (scale + 1)
    root = exact_sqrt(g * g)
    assert root == g or root == -g


def assert_canonical(f: LaurentPoly) -> None:
    """What trusted construction assumes of every result the kernel builds."""
    assert all(c != 0 for c in f.terms.values())
    assert LaurentPoly(f.context, f.terms) == f


@given(polys(), polys(), st.integers(0, 3))
def test_ring_results_are_canonical(f, g, e):
    for h in (f + g, f - g, -f, 1 - f, f * g, f ** e):
        assert_canonical(h)


@given(shaped_pairs())
@settings(max_examples=100, deadline=None)
def test_products_of_every_shape_are_canonical(pair):
    f, g = pair
    assert_canonical(f * g)
    assert_canonical(f + g)


@given(polys(), st.integers(-2, 2), st.integers(-2, 2))
def test_substitute_monomial_results_are_canonical(f, a, b):
    # q -> t^a, p -> t^b merges terms, and cancellations follow.
    assert_canonical(f.substitute_monomial(CTX_T, {"q": f"t^{a}", "p": f"t^{b}"}))


def whole_powers(lo: int, hi: int):
    return st.integers(lo, hi).map(lambda k: 4 * k)


# z is assigned a binomial, so it takes only nonnegative whole powers.
@given(st.lists(st.tuples(st.tuples(whole_powers(-2, 2), whole_powers(0, 4)), st.integers(-9, 9))))
def test_substitute_poly_results_are_canonical(term_list):
    f = LaurentPoly(CTX_AZ, term_list)
    assignments = {"a": "q^(1/4)*p^(1/4)", "z": "q^(1/4)*p^(-1/4) - q^(-1/4)*p^(1/4)"}
    assert_canonical(f.substitute_poly(CTX_QP, assignments))


@given(nonzero_polys(max_terms=5, quarter_bound=12))
def test_sqrt_results_are_canonical(f):
    assert_canonical(exact_sqrt(f * f))


@given(polys())
def test_parse_inverts_canonical_string(f):
    assert parse(f.canonical_string(), CTX_QP) == f


@given(polys(context=CTX_T))
def test_parse_inverts_canonical_string_one_var(f):
    assert parse(f.canonical_string(), CTX_T) == f


@given(polys())
def test_json_round_trip(f):
    text = to_json(f)
    assert from_json(text) == f
    assert to_json(from_json(text)) == text


@given(polys(max_terms=4), polys(max_terms=4), st.integers(-2, 2), st.integers(-2, 2))
def test_substitute_monomial_is_a_ring_map(f, g, a, b):
    target = CTX_T
    assignments = {
        "q": Monomial.from_quarters((4 * a,), 1),
        "p": Monomial.from_quarters((4 * b,), 1),
    }
    sub = lambda h: h.substitute_monomial(target, assignments)
    assert sub(f + g) == sub(f) + sub(g)
    assert sub(f * g) == sub(f) * sub(g)


@given(polys(integral=True, max_terms=4), polys(integral=True, max_terms=4), rationals(), rationals())
def test_eval_is_a_ring_map(f, g, x, y):
    point = {"q": x, "p": y}
    assert (f + g).eval_rational(point) == f.eval_rational(point) + g.eval_rational(point)
    assert (f * g).eval_rational(point) == f.eval_rational(point) * g.eval_rational(point)


@given(nonzero_polys(context=CTX_Q, max_terms=4, quarter_bound=8))
def test_leading_monomial_is_maximal(f):
    lead = f.leading_monomial()
    assert all(lead.quarters >= m.quarters for m in f.monomials())
