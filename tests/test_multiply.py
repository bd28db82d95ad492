"""Differential tests for the fast multiply: every path of LaurentPoly.__mul__
(zero, single-term scaling, the pairwise loop, Kronecker packing and its
density fallback) and the fused recurrence step _linear must agree with the
plain schoolbook product."""

from __future__ import annotations

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from conftest import CTX_QP, CTX_T, polys, shaped_pairs
from torkit import (
    ContextMismatch,
    LaurentPoly,
    generalized_alexander_torus,
    homfly_torus,
    jones_torus,
    laurent,
    parse,
    q_number,
)
from torkit.laurent import _KRONECKER_MIN_TERMS, _linear


def schoolbook_mul(f: LaurentPoly, g: LaurentPoly) -> LaurentPoly:
    """The plain pairwise product through the validating constructor: the
    oracle every fast path of __mul__ is tested against."""
    out: dict = {}
    for ea, ca in f.terms.items():
        for eb, cb in g.terms.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            out[key] = out.get(key, 0) + ca * cb
    return LaurentPoly(f.context, out)


def assert_matches_schoolbook(f: LaurentPoly, g: LaurentPoly) -> None:
    expected = schoolbook_mul(f, g)
    assert f * g == expected
    assert g * f == expected


@given(shaped_pairs())
@settings(max_examples=300, deadline=None)
def test_every_path_matches_schoolbook(pair):
    assert_matches_schoolbook(*pair)


@given(shaped_pairs(min_terms=_KRONECKER_MIN_TERMS, max_terms=60))
@settings(max_examples=100, deadline=None)
def test_operands_past_the_threshold_match_schoolbook(pair):
    # Both sides of the density test: dense operands pack, sparse ones fall back.
    assert_matches_schoolbook(*pair)


@given(shaped_pairs(), st.integers(1, 40), st.sampled_from((1, 2, 4)))
@settings(max_examples=100, deadline=None)
def test_cancelling_products_match_schoolbook(pair, n, stride):
    # (1 + x + ... + x^(n-1)) * ((1 - x) * c) = (1 - x^n) * c: almost every
    # coefficient of the product cancels.
    f, c = pair
    x = [0] * len(f.context)
    x[0] = stride
    x = tuple(x)
    geometric = LaurentPoly(f.context, {tuple(k * e for e in x): 1 for k in range(n)})
    one_minus_x = LaurentPoly(f.context, {(0,) * len(x): 1, x: -1})
    g = one_minus_x * c
    assert_matches_schoolbook(geometric, g)
    assert geometric * g == c - LaurentPoly(f.context, {tuple(n * e for e in x): 1}) * c


@st.composite
def linear_operands(draw):
    """(c1, x, c2, y) of one context, c1 and c2 of 0 to 3 terms.  A third of
    the draws cancel completely (c2 = -c1, y = x); another third lead c1 with
    the constant 1, whose copy of x is x's terms unchanged."""
    context = draw(st.sampled_from((CTX_T, CTX_QP)))
    coefficient, operand = polys(context, max_terms=3), polys(context, max_terms=8)
    c1, x = draw(coefficient), draw(operand)
    shape = draw(st.sampled_from(("free", "cancel", "unit")))
    if shape == "cancel":
        return c1, x, -c1, x
    if shape == "unit":
        c1 = LaurentPoly(context, [((0,) * len(context), 1), *c1.terms.items()])
    return c1, x, draw(coefficient), draw(operand)


@given(linear_operands())
@settings(max_examples=300, deadline=None)
def test_linear_matches_schoolbook(operands):
    c1, x, c2, y = operands
    before = [f.terms for f in operands]
    result = _linear(c1, x, c2, y)
    # Both products' terms through the validating constructor, which merges keys and drops zeros.
    terms = [*schoolbook_mul(c1, x).terms.items(), *schoolbook_mul(c2, y).terms.items()]
    expected = LaurentPoly(c1.context, terms)
    assert result == expected
    assert 0 not in result.terms.values()
    if c2 == -c1 and y == x:
        assert result.is_zero()
    assert [f.terms for f in operands] == before
    assert all(result._terms is not f._terms for f in operands)


@pytest.mark.parametrize("position", range(1, 4))
def test_linear_rejects_another_context(position):
    operands = [parse("q + p", CTX_QP), parse("q - 2*p", CTX_QP), parse("-p", CTX_QP), parse("3*q*p", CTX_QP)]
    operands[position] = parse("t", CTX_T)
    with pytest.raises(ContextMismatch, match="contexts differ"):
        _linear(*operands)


class TestDispatch:
    """Each frozen case takes the path it is meant to exercise.  The fixture
    records (kernel, returned a result) per call; tests that build operands
    by multiplying clear it before the product under test."""

    @pytest.fixture
    def taken(self, monkeypatch):
        paths = []
        for name in ("_scale_terms", "_pairwise_terms", "_kronecker_terms"):
            fn = getattr(laurent, name)

            def spy(a, b, fn=fn, name=name):
                out = fn(a, b)
                paths.append((name, out is not None))
                return out

            monkeypatch.setattr(laurent, name, spy)
        return paths

    def test_zero_operand(self, taken):
        f = parse("q + p", CTX_QP)
        assert (f * LaurentPoly.zero(CTX_QP)).is_zero()
        assert (LaurentPoly.zero(CTX_QP) * f).is_zero()
        assert taken == []

    def test_single_term_scales(self, taken):
        f = parse("3*t^2 - t^(1/4) + 5", CTX_T)
        assert_matches_schoolbook(parse("-t^(-3/4)", CTX_T), f)
        assert_matches_schoolbook(parse("q*p", CTX_QP), parse("q - 2*p^(-1/2)", CTX_QP))
        assert {name for name, _ in taken} == {"_scale_terms"}

    def test_small_operands_use_the_pairwise_loop(self, taken):
        f = q_number(_KRONECKER_MIN_TERMS - 1)
        assert_matches_schoolbook(f, f)
        assert {name for name, _ in taken} == {"_pairwise_terms"}

    def test_large_dense_operands_use_kronecker(self, taken):
        f = q_number(_KRONECKER_MIN_TERMS)
        assert_matches_schoolbook(f, f)
        assert set(taken) == {("_kronecker_terms", True)}

    def test_antidiagonal_operands_use_kronecker(self, taken):
        # Terms on two antidiagonals: a thin band of the (q, p) box, a thin box
        # in the coordinates (x0, x0 + x1).
        f = generalized_alexander_torus(61)
        assert f.num_terms >= _KRONECKER_MIN_TERMS
        taken.clear()
        assert_matches_schoolbook(f, f)
        assert set(taken) == {("_kronecker_terms", True)}

    def test_sparse_operands_fall_back(self, taken):
        f = LaurentPoly(CTX_QP, {(k * k, k * k * k % 37): 1 for k in range(_KRONECKER_MIN_TERMS)})
        assert_matches_schoolbook(f, f)
        assert set(taken) == {("_kronecker_terms", False), ("_pairwise_terms", True)}


@pytest.mark.parametrize(
    "value",
    [
        pytest.param(lambda: jones_torus(1001), id="jones-1001"),
        pytest.param(lambda: homfly_torus(201), id="homfly-201"),
        pytest.param(lambda: generalized_alexander_torus(301), id="generalized-301"),
    ],
)
def test_large_squares_match_schoolbook(value):
    f = value()
    assert f * f == schoolbook_mul(f, f)
