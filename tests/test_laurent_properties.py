"""Property tests for the polynomial core: ring axioms, canonical form,
round trips, the square-root contract against its scanning oracle, and
evaluation mod p as a ring map."""

from __future__ import annotations

import heapq
import json
import operator
from math import gcd, isqrt

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from conftest import (
    CTX_AZ,
    CTX_QP,
    CTX_T,
    PRIME,
    fingerprint,
    leading_coefficient,
    nonzero_polys,
    polys,
    shaped_pairs,
)
from test_multiply import schoolbook_mul
from torkit import (
    FAMILIES,
    JONES,
    LaurentPoly,
    NotAPerfectSquare,
    Substitution,
    VarContext,
    alexander_torus,
    exact_sqrt,
    from_json,
    generalized_alexander_torus,
    homfly_to_generalized,
    homfly_torus,
    jones_number,
    k_to_l,
    parse,
    q_number,
    qp_number,
    to_json,
    to_json_obj,
    uv_number,
)
from torkit import families, laurent
from torkit.laurent import _BIG, _decimal


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
    assert leading_coefficient(root) > 0
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


def scan_sqrt(f: LaurentPoly) -> LaurentPoly:
    """exact_sqrt's long division with each step's leading remainder term
    found by a scan of the whole remainder, and its root built through the
    validating constructor: the oracle the heap frontier is tested against.
    Same stop proofs in the same order, with the same messages."""
    if f.is_zero():
        return f
    terms = f.terms
    lead = max(terms)
    lc = terms[lead]
    if lc < 0:
        raise NotAPerfectSquare("leading coefficient is negative")
    root = isqrt(lc)
    if root * root != lc:
        raise NotAPerfectSquare(f"leading coefficient {_decimal(lc)} is not a perfect square")
    if any(q % 2 for q in lead):
        raise NotAPerfectSquare("leading exponent is not twice a quarter count")
    box = [(min(col), max(col)) for col in zip(*terms)]
    g_lead = tuple(q // 2 for q in lead)
    g_terms = {g_lead: root}
    budget = isqrt(sum(c * c for c in terms.values())) - lc
    remainder = dict(terms)
    del remainder[lead]
    while remainder:
        rx = max(remainder)
        t_exps = tuple(a - b for a, b in zip(rx, g_lead))
        if not all(lo <= 2 * t <= hi for t, (lo, hi) in zip(t_exps, box)):
            raise NotAPerfectSquare("a root term would lie outside half the exponent box")
        if remainder[rx] % (2 * root):
            raise NotAPerfectSquare("remainder coefficient not divisible by twice the leading root")
        t_coeff = remainder[rx] // (2 * root)
        budget -= t_coeff * t_coeff
        if budget < 0:
            raise NotAPerfectSquare("root coefficients would pass the norm bound isqrt(sum c^2)")
        # remainder -= 2 * g * t + t^2, with g not yet containing t
        updates = [
            (tuple(a + b for a, b in zip(gx, t_exps)), 2 * gc * t_coeff) for gx, gc in g_terms.items()
        ]
        updates.append((tuple(2 * t for t in t_exps), t_coeff * t_coeff))
        for key, c in updates:
            left = remainder.get(key, 0) - c
            if left:
                remainder[key] = left
            else:
                del remainder[key]
        g_terms[t_exps] = t_coeff
    return LaurentPoly(f.context, g_terms)


def sqrt_outcome(sqrt, f: LaurentPoly):
    try:
        return "root", sqrt(f).terms
    except NotAPerfectSquare as error:
        return "not a square", str(error)


@st.composite
def sqrt_arguments(draw):
    """A square g*g, g*g plus one term, or the product of two different
    torus values of one family.  g has one or two variables, coefficients
    past one machine word, and exponents spread sparsely over +-50 powers or
    densely over +-2, where g*g cancels keys that the root's steps recreate."""
    kind = draw(st.sampled_from(("square", "square plus a term", "torus product")))
    if kind == "torus product":
        family = FAMILIES[draw(st.sampled_from(sorted(FAMILIES)))]
        odd = st.integers(0, 20).map(lambda m: 2 * m + 1)
        n1, n2 = draw(st.lists(odd, min_size=2, max_size=2, unique=True))
        return family.value(n1) * family.value(n2)
    context = draw(st.sampled_from((CTX_T, CTX_QP)))
    g = draw(nonzero_polys(context=context, max_terms=12, quarter_bound=draw(st.sampled_from((8, 200)))))
    g = g * (draw(st.integers(0, 2 ** 64)) + 1)
    f = g * g
    if kind == "square plus a term":
        exps = draw(st.tuples(*[st.integers(-400, 400)] * len(context)))
        f = f + LaurentPoly(context, {exps: draw(st.integers(-(2 ** 70), 2 ** 70).filter(bool))})
    return f


@st.composite
def packed_sqrt_arguments(draw):
    """Arguments that reach exact_sqrt's packed path: at least
    _KRONECKER_MIN_TERMS terms on dense exponents, in one or two variables,
    with coefficients far narrower than its slot-width cutoff.  A square g*g,
    its negation, g*g plus or minus one term inside its box, or the product
    of two torus values of one family with n <= 301.  g fills an interval,
    a square or, like the generalized Alexander values, three antidiagonals."""
    kind = draw(st.sampled_from(("square", "negated square", "square plus a term", "torus product")))
    if kind == "torus product":
        family = FAMILIES[draw(st.sampled_from(sorted(FAMILIES)))]
        odd = st.integers(6, 150).map(lambda m: 2 * m + 1)
        return family.value(draw(odd)) * family.value(draw(odd))
    context = draw(st.sampled_from((CTX_T, CTX_QP)))
    stride = draw(st.sampled_from((1, 2, 4)))
    offset = [draw(st.integers(-40, 40)) for _ in context.names]
    if len(context) == 1:
        cells = [(i,) for i in range(draw(st.integers(13, 40)))]
    elif draw(st.booleans()):
        side = draw(st.integers(4, 6))
        cells = [(i, j) for i in range(side) for j in range(side)]
    else:
        cells = [(i, r - i) for i in range(draw(st.integers(6, 20))) for r in range(3)]
    coeff = st.integers(-(2 ** 20), 2 ** 20).filter(bool)
    g = LaurentPoly(context, {tuple(o + stride * k for o, k in zip(offset, cell)): draw(coeff) for cell in cells})
    f = g * g
    if kind == "negated square":
        return -f
    if kind == "square plus a term":
        exps = tuple(draw(st.integers(min(col), max(col))) for col in zip(*f.terms))
        f = f + LaurentPoly(context, {exps: draw(st.sampled_from((-1, 1))) * draw(st.integers(1, 2 ** 40))})
    return f


@given(st.one_of(sqrt_arguments(), packed_sqrt_arguments()))
@example(parse("1 + 4*t^(-1) + t^(-200)", CTX_T))  # stopped by the norm bound
@example(parse("q^(1/4)*p^2", CTX_QP))  # odd quarter in the leading exponent
@settings(max_examples=500, deadline=None)
def test_sqrt_matches_the_scanning_oracle(f):
    assert sqrt_outcome(exact_sqrt, f) == sqrt_outcome(scan_sqrt, f)


def slots(context: VarContext, cells: dict) -> LaurentPoly:
    """The polynomial with coefficient c in slot row k0, column k1 of the
    packed path's (x0, x0 + x1) box, for each (k0, k1): c of cells; in one
    variable, slot k is t^(k/4)."""
    if len(context) == 1:
        return LaurentPoly(context, {(k,): c for k, c in cells.items()})
    return LaurentPoly(context, {(k0, k1 - k0): c for (k0, k1), c in cells.items()})


P_SLOT_3 = slots(CTX_T, {k: 198 if k == 3 else 1 for k in range(13)})
P_COLUMN_4 = slots(
    CTX_QP, {(0, 0): 1, (0, 2): 1, (0, 4): -1, (1, 0): -2, (1, 4): 2, (2, 1): 3, (2, 4): -1, (3, 0): 2, (3, 1): 1}
)

# Each f below passes every check of exact_sqrt's packed path but the one
# named, and is no square: a packed path without that check returns P.
PACKED_CHECK_CASES = {
    # isqrt(F) is P's packed int, and F is one more than its square.
    "root squared is the packed square": P_SLOT_3 * P_SLOT_3 + 1,
    # Slots are 16 bits wide here.  Slot 6 of P*P holds 198^2 + 6, past a
    # signed slot, so f holds that minus 2^16 there and 1 carried into
    # slot 7: F is P's packed int squared, and only the norm bound sees
    # that P*P's coefficient is too wide for f.
    "norm bound": P_SLOT_3 * P_SLOT_3 - slots(CTX_T, {6: 2 ** 16, 7: -1}),
    # f's box is five slot columns wide.  P has terms in columns up to 4,
    # so P*P reaches column 8, and f moves each term of P*P in column
    # k1 >= 5 to column k1 - 5 of the next row, where the packed int puts it.
    "column bound": LaurentPoly(
        CTX_QP,
        [
            ((x0 + 1, x1 - 6) if x0 + x1 >= 5 else (x0, x1), c)
            for (x0, x1), c in (P_COLUMN_4 * P_COLUMN_4).terms.items()
        ],
    ),
}


@pytest.mark.parametrize("f", PACKED_CHECK_CASES.values(), ids=PACKED_CHECK_CASES)
def test_each_packed_check_meets_an_input_only_it_rejects(f):
    assert f.num_terms >= laurent._KRONECKER_MIN_TERMS
    assert sqrt_outcome(exact_sqrt, f) == sqrt_outcome(scan_sqrt, f)
    assert sqrt_outcome(scan_sqrt, f)[0] == "not a square"


def test_a_sparse_box_is_never_packed(monkeypatch):
    # 47 terms over about 10^6 slots: packed, this would be a 24-Mbit isqrt.
    f = parse("1 + 4*t^(-1) + t^(-1000000)", CTX_T) * parse("1 + t^(-1)", CTX_T) ** 22
    expected = sqrt_outcome(scan_sqrt, f)

    def refuse(*args):
        raise AssertionError("packed a box of far more slots than terms")

    monkeypatch.setattr(laurent, "_pack", refuse)
    assert sqrt_outcome(exact_sqrt, f) == expected


def root_of_square(build, n: int) -> None:
    value = build(n)
    root = exact_sqrt(value * value)
    assert root == value or root == -value


@pytest.mark.parametrize(
    "call, pops",
    [
        (lambda: root_of_square(alexander_torus, 1001), False),  # narrow: the packed path
        (lambda: root_of_square(generalized_alexander_torus, 301), False),  # two variables, column bound met
        (lambda: root_of_square(homfly_torus, 301), True),  # slots past the width cutoff
        (lambda: k_to_l(JONES.knot_step), True),  # roots of fewer than _KRONECKER_MIN_TERMS terms
    ],
    ids=["alexander 1001 squared", "generalized-alexander 301 squared", "homfly 301 squared", "k_to_l jones"],
)
def test_which_path_takes_a_root(monkeypatch, call, pops):
    popped = []

    def counting_heappop(heap):
        popped.append(1)
        return heapq.heappop(heap)

    monkeypatch.setattr(laurent, "heappop", counting_heappop)
    call()
    assert (len(popped) > 0) == pops


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


@pytest.mark.parametrize(
    "build, names",
    [
        (q_number, (("q",), ("t",), ("x",))),
        (jones_number, (("t",), ("q",), ("y",))),
        (qp_number, (("q", "p"), ("p", "q"), ("u", "v"))),
    ],
)
def test_q_numbers_are_canonical(build, names):
    # They are built by trusted construction, so check what it assumes, also
    # for uv_number over renamed variables with the two terms of [2], u the
    # greater in the canonical order.
    pair = sorted(build(2).terms.items(), reverse=True)
    renamed = [[LaurentPoly(VarContext(name), {key: c}) for key, c in pair] for name in names]
    for n in range(201):
        assert_canonical(build(n))
        for u, v in renamed:
            assert_canonical(uv_number(n, u, v))


def naive_substitute(f: LaurentPoly, target, assignments: dict) -> LaurentPoly:
    """Term by term: each variable's value raised by schoolbook products, each
    power built once per call, by one product from the power below it."""
    total: dict = {}
    powers: dict = {}
    for exps, coeff in f.terms.items():
        piece = LaurentPoly.constant(target, coeff)
        for name, e in zip(f.context.names, exps):
            g = assignments[name]
            if g.num_terms == 1 and abs(leading_coefficient(g)) == 1:
                (key, sign), = g.terms.items()
                assert all(e * q % 4 == 0 for q in key) and (sign == 1 or e % 4 == 0)
                sign = -1 if sign < 0 and (e // 4) % 2 else 1
                factor = LaurentPoly(target, {tuple(e * q // 4 for q in key): sign})
            else:
                assert e >= 0 and e % 4 == 0
                factor = LaurentPoly.one(target)
                for k in range(1, e // 4 + 1):
                    if (name, k) not in powers:
                        powers[name, k] = schoolbook_mul(factor, g)
                    factor = powers[name, k]
            piece = schoolbook_mul(piece, factor)
        for key, c in piece.terms.items():
            total[key] = total.get(key, 0) + c
    return LaurentPoly(target, total)


@st.composite
def substitution_runs(draw):
    """A target, values for a and z in it, and a sequence of inputs in (a, z).

    z gets whole powers 0..9, even and odd.  a is a +/-1 monomial with any
    quarter exponent, negative ones included, where its value allows it, or a
    general polynomial with whole powers 0..3."""
    target = draw(st.sampled_from((CTX_QP, CTX_T)))
    z_value = draw(nonzero_polys(context=target, max_terms=3, quarter_bound=6))
    if draw(st.booleans()):
        sign = draw(st.sampled_from((1, -1)))
        quarters = draw(st.tuples(*[st.integers(-6, 6)] * len(target)))
        a_value = LaurentPoly(target, {quarters: sign})
        whole = sign < 0 or any(q % 4 for q in quarters)
        a_exp = whole_powers(-3, 3) if whole else st.integers(-12, 12)
    else:
        a_value = draw(polys(context=target, max_terms=3, quarter_bound=6))
        a_exp = whole_powers(0, 3)
    term = st.tuples(st.tuples(a_exp, whole_powers(0, 9)), st.integers(-9, 9))
    inputs = draw(st.lists(st.lists(term, max_size=6), min_size=1, max_size=6))
    return target, {"a": a_value, "z": z_value}, [LaurentPoly(CTX_AZ, ts) for ts in inputs]


@given(substitution_runs())
@settings(max_examples=150, deadline=None)
def test_compiled_substitution_matches_naive_expansion(run):
    # One Substitution serves the whole sequence, and each call must be a
    # function of its input alone, whatever was substituted before it.
    target, assignments, inputs = run
    sub = Substitution(CTX_AZ, target, assignments)
    units = all(g.num_terms == 1 and abs(leading_coefficient(g)) == 1 for g in assignments.values())
    for f in inputs:
        expected = naive_substitute(f, target, assignments)
        assert f.substitute_poly(target, sub) == expected
        assert f.substitute_poly(target, assignments) == expected
        if units:
            assert f.substitute_monomial(target, sub) == expected


HOMFLY_TO_QP = {"a": "q^(1/4)*p^(1/4)", "z": "q^(1/4)*p^(-1/4) - q^(-1/4)*p^(1/4)"}


def parsed(assignments: dict, target: VarContext = CTX_QP) -> dict:
    return {name: parse(text, target) for name, text in assignments.items()}


def test_homfly_bridge_matches_naive_expansion():
    values = parsed(HOMFLY_TO_QP)
    for n in range(1, 102, 2):
        f = homfly_torus(n)
        assert homfly_to_generalized(f) == naive_substitute(f, CTX_QP, values)


@pytest.mark.parametrize(
    "text, a, z",
    [
        # Odd powers of z: dense enough to be packed, and so sparse that
        # each term is summed alone.
        ("7 + z - 2*z^2 + 3*z^3 - z^4 + 5*z^5 - a*z^3 + a*z^2", "q^(1/2)", "q - 2*p"),
        ("z^41 - a^2*z", "q*p", "q^(1/4)*p^(-1/4) - q^(-1/4)*p^(1/4)"),
        # Both values are polynomials: grouped by the power of a.
        ("a^2*z^3 - a*z + 3*a^3 + z^2 - 5", "q + 2*p", "q^(1/2) - p"),
        ("a*z^2 + a^2*z + a^3 + z^3", "q - p", "q + p"),
        # A zero value, and a single term that is not a unit.
        ("a*z^2 - 3*z + a^2 + 4", "0", "q - p"),
        ("z^3 - a*z^2 + a*z - 2 + z^2", "q", "3*q^(-1/2)*p"),
    ],
)
def test_substitution_edges_match_naive_expansion(text, a, z):
    values = parsed({"a": a, "z": z})
    f = parse(text, CTX_AZ)
    assert f.substitute_poly(CTX_QP, values) == naive_substitute(f, CTX_QP, values)


@pytest.mark.parametrize(
    "text, a, z",
    [
        ("a - z", "q", "q"),  # two monomials
        ("2*a - z", "q", "2*q"),  # two shifts of one packed sum
        ("a - z", "q + 1", "q + 1"),  # two powers of a, merged after packing
        ("a*z - z^2", "q - p", "q - p"),
    ],
)
def test_images_that_cancel_to_zero(text, a, z):
    values = parsed({"a": a, "z": z})
    f = parse(text, CTX_AZ)
    g = f.substitute_poly(CTX_QP, values)
    assert g.terms == {}
    assert g == naive_substitute(f, CTX_QP, values)


@pytest.mark.parametrize("z, a", [("2*q", "q"), ("-2*q^(1/2)*p^(-1/4)", "q^(1/2)*p^(-1/4)"), ("2", "1")])
@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("k", [*range(1, 16), 30, 31, 62, 63, 70, 71, 78, 79])
def test_slot_width_at_a_power_of_two(k, sign, z, a):
    # The slots are sized from the sum of |c_j| * ||z||_1^j, here 2^k and then
    # 2^(k+1), and the result's one coefficient reaches that bound.  k runs
    # so that each slot width, 8, 16, 32, 64, 72 and 80 bits, meets the
    # largest power of two it has room for and the one past it, 2^(width-1),
    # which needs the next width.  In the second sum a^k is z^k's monomial:
    # two shifts, or for z = 2 two powers of z, meet in one slot.
    values = parsed({"a": a, "z": z})
    ((key, c),) = values["z"].terms.items()
    image = tuple(k * q for q in key)
    for f, coeff in (
        (LaurentPoly(CTX_AZ, {(0, 4 * k): sign}), sign * c**k),
        (LaurentPoly(CTX_AZ, {(0, 4 * k): sign, (4 * k, 0): sign * c**k}), 2 * sign * c**k),
    ):
        g = f.substitute_poly(CTX_QP, values)
        assert g == LaurentPoly(CTX_QP, {image: coeff}) == naive_substitute(f, CTX_QP, values)


SLOT_WIDTHS = (8, 16, 32, 64, 72, 80, 136)


@st.composite
def slot_layouts(draw):
    """(width, arity, flip, corner, strides, row, n, terms): terms laid out
    as _pack and _unpack lay them, on n slots of `width` bits in rows of
    `row` slots from the corner point with the strides.  Every width class
    _width makes, one variable or two in either orientation, coefficients
    at +-(2^(width-1) - 1) among others, and a negative top slot."""
    width, arity = draw(st.sampled_from(SLOT_WIDTHS)), draw(st.sampled_from((1, 2)))
    flip = arity == 2 and draw(st.booleans())
    rows, row = (1 if arity == 1 else draw(st.integers(1, 4))), draw(st.integers(1, 8))
    corner = (0 if arity == 1 else draw(st.integers(-20, 20)), draw(st.integers(-20, 20)))
    strides = (1 if arity == 1 else draw(st.integers(1, 4)), draw(st.integers(1, 4)))
    edge = 2 ** (width - 1) - 1
    coeff = st.one_of(st.sampled_from((edge, -edge, 1, -1)), st.integers(-edge, edge))
    cells = draw(st.dictionaries(st.tuples(st.integers(0, rows - 1), st.integers(0, row - 1)), coeff))
    cells[(rows - 1, row - 1)] = -draw(st.integers(1, edge))
    terms = {}
    for (i, j), c in cells.items():
        r, k = corner[0] + i * strides[0], corner[1] + j * strides[1]
        if c:
            terms[(k,) if arity == 1 else (k, r - k) if flip else (r, k - r)] = c
    return width, arity, flip, corner, strides, row, rows * row, terms


@given(slot_layouts())
def test_pack_then_unpack_is_the_identity(layout):
    width, arity, flip, corner, strides, row, n, terms = layout
    assert laurent._width(2 ** (width - 1) - 1) == width < laurent._width(2 ** (width - 1))
    points = laurent._points(terms, flip)
    packed = laurent._pack(points, terms.values(), corner, strides, row, width)
    slot = [(r - corner[0]) // strides[0] * row + (k - corner[1]) // strides[1] for r, k in points]
    assert packed == sum(c << width * i for i, c in zip(slot, terms.values()))
    assert laurent._unpack(packed, width, n, corner, strides, row, arity, flip) == terms
    if arity == 1:  # a kept key list, read instead of building the keys
        keys = [(corner[1] + i * strides[1],) for i in range(n)]
        assert laurent._unpack(packed, width, n, corner, strides, row, arity, flip, keys) == terms


def test_a_compiled_substitution_keeps_no_state():
    # The same object, torus values in descending n and then ascending n:
    # equal results, and plans equal to a snapshot taken before the calls.
    sub = families._HOMFLY_TO_GENERALIZED
    snapshot = [(name, sign, shifts, value and value.terms) for name, sign, shifts, value in sub._plans]
    ns = range(1, 62, 2)
    down = {n: homfly_torus(n).substitute_poly(CTX_QP, sub) for n in reversed(ns)}
    up = {n: homfly_torus(n).substitute_poly(CTX_QP, sub) for n in ns}
    assert down == up == {n: generalized_alexander_torus(n) for n in ns}
    assert [(name, sign, shifts, value and value.terms) for name, sign, shifts, value in sub._plans] == snapshot


@given(nonzero_polys(max_terms=5, quarter_bound=12))
def test_sqrt_results_are_canonical(f):
    assert_canonical(exact_sqrt(f * f))


@given(polys())
def test_parse_inverts_canonical_string(f):
    assert parse(f.canonical_string(), CTX_QP) == f


@given(polys(context=CTX_T))
def test_parse_inverts_canonical_string_one_var(f):
    assert parse(f.canonical_string(), CTX_T) == f


def exponent_spellings(q: int) -> list[list[str]]:
    """Every token spelling of the power q/4 after a variable name."""
    minus = ["-"] if q < 0 else []
    forms = [["^", "(", *minus, str(abs(q)), "/", "4", ")"]]
    if q % 2 == 0:
        forms.append(["^", "(", *minus, str(abs(q) // 2), "/", "2", ")"])
    if q % 4 == 0:
        forms += [["^", *minus, str(abs(q) // 4)], ["^", "(", *minus, str(abs(q) // 4), ")"]]
    if q == 4:
        forms.append([])
    return forms


@st.composite
def spelled_polys(draw):
    """A term dict in (q, p) and one non-canonical text for it: terms shuffled
    and split into parts, an explicit `1*` or none, each power split into
    repeated factors in any exponent form, whitespace between tokens."""
    names = CTX_QP.names
    exps = st.tuples(st.integers(-12, 12), st.integers(-12, 12))
    terms = draw(st.dictionaries(exps, st.integers(-40, 40).filter(bool), max_size=5))
    parts = []
    for key, coeff in terms.items():
        pieces = draw(st.lists(st.integers(-9, 9), max_size=2))
        parts += [(key, c) for c in (*pieces, coeff - sum(pieces))]
    parts = draw(st.permutations(parts)) or [((0, 0), 0)]
    tokens = []
    for i, (key, coeff) in enumerate(parts):
        factors = []
        for name, q in zip(names, key):
            if q or draw(st.booleans()):
                split = draw(st.lists(st.integers(-8, 8), max_size=2))
                for piece in (*split, q - sum(split)):
                    factors.append([name, *draw(st.sampled_from(exponent_spellings(piece)))])
        factors = draw(st.permutations(factors))
        sign = "-" if coeff < 0 else "+"
        if i > 0 or sign == "-" or draw(st.booleans()):
            tokens.append(sign)
        if not factors or abs(coeff) != 1 or draw(st.booleans()):
            tokens += [str(abs(coeff))] + (["*"] if factors else [])
        for j, factor in enumerate(factors):
            tokens += (["*"] if j else []) + factor
    space = st.sampled_from(["", "", " ", "  ", "\t", "\n", "\r", "\f", "\v"])
    text = draw(space) + "".join(token + draw(space) for token in tokens)
    return terms, text


@given(spelled_polys())
@settings(max_examples=300)
def test_parse_reads_every_spelling_of_a_term_dict(case):
    terms, text = case
    assert parse(text, CTX_QP).terms == terms


# Every int drawn below prints with str() under the lowest int/str digit
# limit a process may set (640), so the references need no chunked helper,
# while magnitudes from _BIG up take the library's chunked path.
_PRINTABLE = 10 ** 630


def _past_big():
    magnitude = st.integers(_BIG - 2, _PRINTABLE)
    return st.one_of(magnitude, magnitude.map(operator.neg))


@st.composite
def rendered_polys(draw):
    """Polynomials in one or two variables with +/-1 and small coefficients,
    constant terms, whole, half and quarter exponents, and exponents and
    coefficients past _BIG."""
    context = draw(st.sampled_from((CTX_T, CTX_QP)))
    exp = st.one_of(st.sampled_from((0, 4, -4)), st.integers(-13, 13), _past_big())
    coeff = st.one_of(st.sampled_from((1, -1)), st.integers(-20, 20).filter(bool), _past_big())
    terms = draw(st.dictionaries(st.tuples(*[exp] * len(context)), coeff, max_size=8))
    return LaurentPoly(context, terms)


def reference_string(f: LaurentPoly) -> str:
    """canonical_string's contract, term by term: each term's powers joined
    by '*', then its magnitude, then its sign or separator."""

    def power(name: str, q: int) -> str:
        if q == 4:
            return name
        if q % 4 == 0:
            return f"{name}^{q // 4}" if q > 0 else f"{name}^({q // 4})"
        g = gcd(abs(q), 4)
        return f"{name}^({q // g}/{4 // g})"

    parts = []
    terms = f.terms
    for key in sorted(terms, reverse=True):
        coeff = terms[key]
        body = "*".join(power(name, q) for name, q in zip(f.context.names, key) if q)
        mag = abs(coeff)
        text = body if body and mag == 1 else f"{mag}*{body}" if body else str(mag)
        if not parts:
            parts.append(text if coeff > 0 else "-" + text)
        else:
            parts.append((" + " if coeff > 0 else " - ") + text)
    return "".join(parts) or "0"


@given(rendered_polys())
@settings(max_examples=300)
def test_canonical_string_matches_the_reference_renderer(f):
    text = f.canonical_string()
    assert text == reference_string(f)
    assert parse(text, f.context) == f


@given(rendered_polys())
@settings(max_examples=300)
def test_to_json_is_the_compact_dump_of_to_json_obj(f):
    text = to_json(f)
    assert text == json.dumps(to_json_obj(f), separators=(",", ":"))
    assert from_json(text) == f


@given(polys())
def test_json_round_trip(f):
    text = to_json(f)
    assert from_json(text) == f
    assert to_json(from_json(text)) == text


@given(polys(max_terms=4), polys(max_terms=4), st.integers(-2, 2), st.integers(-2, 2))
def test_substitute_monomial_is_a_ring_map(f, g, a, b):
    target = CTX_T
    assignments = {
        "q": LaurentPoly(target, {(4 * a,): 1}),
        "p": LaurentPoly(target, {(4 * b,): 1}),
    }
    sub = lambda h: h.substitute_monomial(target, assignments)
    assert sub(f + g) == sub(f) + sub(g)
    assert sub(f * g) == sub(f) * sub(g)


@given(polys(max_terms=4), polys(max_terms=4), st.integers(1, PRIME - 1), st.integers(1, PRIME - 1))
def test_eval_is_a_ring_map(f, g, x, y):
    # Quarter and negative exponents included: x and y are the fourth roots of q and p.
    at = lambda h: fingerprint(h, [x, y])
    assert at(f + g) == (at(f) + at(g)) % PRIME
    assert at(f * g) == at(f) * at(g) % PRIME
