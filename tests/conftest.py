"""Shared test helpers: contexts, hypothesis strategies, evaluation oracle."""

from __future__ import annotations

from fractions import Fraction
from itertools import product

import hypothesis.strategies as st

from torkit import LaurentPoly, VarContext

CTX_T = VarContext(("t",))
CTX_Q = VarContext(("q",))
CTX_QP = VarContext(("q", "p"))
CTX_AZ = VarContext(("a", "z"))


def polys(
    context: VarContext = CTX_QP,
    max_terms: int = 5,
    integral: bool = False,
    quarter_bound: int = 10,
):
    """Strategy for random sparse Laurent polynomials in the given context."""
    if integral:
        exp = st.integers(-3, 3).map(lambda k: 4 * k)
    else:
        exp = st.integers(-quarter_bound, quarter_bound)
    exps = st.tuples(*([exp] * len(context)))
    coeff = st.integers(-9, 9).filter(lambda c: c != 0)
    return st.lists(st.tuples(exps, coeff), max_size=max_terms).map(
        lambda ts: LaurentPoly(context, ts)
    )


def nonzero_polys(context: VarContext = CTX_QP, **kw):
    return polys(context, **kw).filter(lambda f: not f.is_zero())


def rationals():
    """Nonzero rationals with small numerators and denominators."""
    return st.fractions(
        min_value=Fraction(-9), max_value=Fraction(9), max_denominator=9
    ).filter(lambda v: v != 0)


def cleared_eval(f: LaurentPoly, values: list[Fraction]) -> Fraction:
    """Evaluate f after clearing quarter powers: each variable v becomes the
    fourth power of a fresh variable, which is then set to the given rational.

    This is an oracle path independent of polynomial-level equality: two
    polynomials that disagree anywhere disagree at almost every such point.
    """
    fresh = ("s", "r")[: len(f.context)]
    target = VarContext(fresh)
    mapping = {
        name: f"{new}^4" for name, new in zip(f.context.names, fresh)
    }
    cleared = f.substitute_monomial(target, mapping)
    return cleared.eval_rational(dict(zip(fresh, values)))


@st.composite
def shaped_pairs(draw, min_terms: int = 0, max_terms: int = 40):
    """Two polynomials of one context, shaped to reach every path of __mul__.

    Each variable gets one exponent stride (1, 2, 4 or 8 quarters) shared by
    both operands, and each operand its own offset, so quarter and negative
    exponents both occur.  An operand is dense (its terms fill a small box),
    sparse (scattered over a wide one) or, in two variables, a band along
    three antidiagonals (stepping by the first stride in both variables);
    it has min_terms to max_terms terms, and coefficients of 1 to 200 bits
    with mixed signs.
    """
    context = draw(st.sampled_from((CTX_T, CTX_QP)))
    arity = len(context)
    strides = [draw(st.sampled_from((1, 2, 4, 8))) for _ in range(arity)]

    def operand():
        n = draw(st.sampled_from(range(min_terms, max_terms + 1)))
        offset = [draw(st.integers(-40, 40)) for _ in range(arity)]
        shape = draw(st.sampled_from(("dense", "sparse", "band")))
        if shape == "sparse":
            cell = st.tuples(*[st.integers(0, 8 * max_terms)] * arity)
            points = draw(st.lists(cell, min_size=n, max_size=n, unique=True))
        elif shape == "band" and arity == 2:
            # Like [m]_{q,p}, the powers of z and the generalized values.
            cells = draw(st.permutations(list(product(range(n), range(3)))))[:n]
            points = [(i, r - i) for i, r in cells]
        else:
            side = 1
            while side ** arity < n:
                side += 1
            points = draw(st.permutations(list(product(range(side + 1), repeat=arity))))[:n]
        step = strides if shape != "band" else [strides[0]] * arity
        bits = draw(st.integers(1, 200))
        coeff = st.integers(-(2 ** bits) + 1, 2 ** bits - 1).filter(bool)
        return LaurentPoly(
            context,
            {tuple(o + s * k for o, s, k in zip(offset, step, point)): draw(coeff) for point in points},
        )

    return operand(), operand()
