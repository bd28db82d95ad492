"""Shared test helpers: contexts, hypothesis strategies, the mod-p point oracle."""

from __future__ import annotations

from itertools import product

import hypothesis.strategies as st

from torkit import KnotStepPair, LaurentPoly, VarContext

CTX_T = VarContext(("t",))
CTX_Q = VarContext(("q",))
CTX_QP = VarContext(("q", "p"))
CTX_AZ = VarContext(("a", "z"))


def polys(
    context: VarContext = CTX_QP,
    max_terms: int = 5,
    quarter_bound: int = 10,
):
    """Strategy for random sparse Laurent polynomials in the given context."""
    exp = st.integers(-quarter_bound, quarter_bound)
    exps = st.tuples(*([exp] * len(context)))
    coeff = st.integers(-9, 9).filter(lambda c: c != 0)
    return st.lists(st.tuples(exps, coeff), max_size=max_terms).map(
        lambda ts: LaurentPoly(context, ts)
    )


def nonzero_polys(context: VarContext = CTX_QP, **kw):
    return polys(context, **kw).filter(lambda f: not f.is_zero())


def leading_coefficient(f: LaurentPoly) -> int:
    """The coefficient of f's greatest term in the canonical (descending lex) order."""
    terms = f.terms
    return terms[max(terms)]


PRIME = 2**61 - 1


def fingerprint(f: LaurentPoly, roots) -> int:
    """f mod PRIME where each variable's fourth root is the matching residue in roots.

    A term c x^(e1/4) y^(e2/4) becomes c r1^e1 r2^e2, pow giving the inverse
    for negative e.  This is a ring map from Laurent polynomials in quarter
    powers to the integers mod PRIME, so at random roots two different
    polynomials agree with probability at most their degree span over PRIME
    (J. Schwartz, J. ACM 27, 1980; R. Zippel, EUROSAM 1979).
    """
    total = 0
    for exps, c in f.terms.items():
        c %= PRIME
        for r, e in zip(roots, exps):
            c = c * pow(r, e, PRIME) % PRIME
        total += c
    return total % PRIME


def stepped_fingerprint(step: KnotStepPair, n: int, roots) -> int:
    """The fingerprint of T(n,2)'s value, odd n, from the knot step run as a
    scalar recurrence mod PRIME: P(-1) = P(1) = 1, P(n+2) = k1 P(n) + k2 P(n-2)."""
    k1, k2 = fingerprint(step.k1, roots), fingerprint(step.k2, roots)
    prev = cur = 1
    for _ in range((n - 1) // 2):
        prev, cur = cur, (k1 * cur + k2 * prev) % PRIME
    return cur


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
