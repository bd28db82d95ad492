"""Skein-style recurrences for the T(n,2) torus family and the three-step
derivation that turns them into closed forms.

A two-term skein relationship P(n+1) = l1 P(n) + l2 P(n-1) steps through
knots and links alternately.  Composing it with itself once eliminates the
links: P(n+2) = k1 P(n) + k2 P(n-2) with

    k1 = l1^2 + 2 l2        k2 = -l2^2

so the odd (knot-only) subsequence needs no link values at all.  Going the
other way, k_to_l recovers (l1, l2) from (k1, k2) with exact square roots.
When k1 splits as a sum of two monic monomials u + v with u v = -k2, the
knot values collapse to an ansatz in two-parameter numbers:

    P(2m+1) = a1 [m+1]_{u,v} - a2 [m]_{u,v}

whose coefficients fit_ansatz determines from the first two knots and then
verifies against every entry it is given.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping

from .laurent import (
    ContextMismatch,
    LaurentPoly,
    Monomial,
    NotAPerfectSquare,
    TorkitError,
    VarContext,
    exact_sqrt,
)
from .qnumbers import uv_number


class InvalidTorusIndex(TorkitError, ValueError):
    """A torus index that is not a positive int."""


class EvenIndexUnsupported(InvalidTorusIndex):
    """T(n,2) with even n is a link, whose n=2 base value no family supplies."""


def odd_index(n: int) -> int:
    """m = (n-1)/2 for an odd torus index n >= 1, the one check every index passes.

    bool and other int look-alikes are rejected, not coerced.
    """
    if type(n) is not int or n < 1:
        raise InvalidTorusIndex(f"torus index must be a positive integer, got {n!r}")
    if n % 2 == 0:
        raise EvenIndexUnsupported(
            f"T({n},2) is a two-component link; no n=2 base value is defined, "
            "so even indices need a caller-supplied gen_full_sequence"
        )
    return (n - 1) // 2


class NotInvertible(TorkitError):
    """No exact (l1, l2) exists for the given knot-step coefficients."""


class NotTwoParameterForm(TorkitError):
    """k1 is not a sum of two monic monomials whose product is -k2."""


class AnsatzMismatch(TorkitError):
    """A sequence entry deviates from the fitted two-parameter ansatz."""


def _require_same_context(a: LaurentPoly, b: LaurentPoly, what: str) -> None:
    if a.context != b.context:
        raise ContextMismatch(f"{what} must share one context")


@dataclass(frozen=True)
class SkeinPair:
    """Coefficients (l1, l2) of the full step P(n+1) = l1 P(n) + l2 P(n-1)."""

    l1: LaurentPoly
    l2: LaurentPoly

    def __post_init__(self):
        _require_same_context(self.l1, self.l2, "l1 and l2")

    @property
    def context(self) -> VarContext:
        return self.l1.context


@dataclass(frozen=True)
class KnotStepPair:
    """Coefficients (k1, k2) of the knot-only step P(n+2) = k1 P(n) + k2 P(n-2)."""

    k1: LaurentPoly
    k2: LaurentPoly

    def __post_init__(self):
        _require_same_context(self.k1, self.k2, "k1 and k2")

    @property
    def context(self) -> VarContext:
        return self.k1.context


@dataclass(frozen=True)
class AnsatzCoefficients:
    """The fitted pair (a1, a2) in P(2m+1) = a1 [m+1] - a2 [m]."""

    a1: LaurentPoly
    a2: LaurentPoly


def l_to_k(pair: SkeinPair) -> KnotStepPair:
    """Compose the full step with itself: k1 = l1^2 + 2 l2, k2 = -l2^2."""
    return KnotStepPair(pair.l1 * pair.l1 + 2 * pair.l2, -(pair.l2 * pair.l2))


def k_to_l(pair: KnotStepPair) -> SkeinPair:
    """Invert l_to_k with exact square roots.

    l2 is an exact root of -k2, taken canonical-positive first; if
    k1 - 2 l2 fails to be a perfect square the negated branch is tried.
    l1 is the canonical-positive root of whichever branch works.
    """
    try:
        root = exact_sqrt(-pair.k2)
    except NotAPerfectSquare as exc:
        raise NotInvertible(f"-k2 is not a perfect square: {exc}") from exc
    for l2 in (root, -root):
        try:
            l1 = exact_sqrt(pair.k1 - 2 * l2)
        except NotAPerfectSquare:
            continue
        return SkeinPair(l1, l2)
    raise NotInvertible("neither sign of sqrt(-k2) makes k1 - 2*l2 a perfect square")


def _steps(
    c1: LaurentPoly, c2: LaurentPoly, first: LaurentPoly, second: LaurentPoly
) -> Iterator[LaurentPoly]:
    """first, second, then c1 * cur + c2 * prev for each later entry, holding
    only the two entries the next step reads.  The full step runs it with
    (l1, l2) and the knot-only step with (k1, k2)."""
    prev, cur = first, second
    yield prev
    while True:
        yield cur
        prev, cur = cur, c1 * cur + c2 * prev


def gen_odd_sequence(pair: KnotStepPair, n_max: int) -> dict[int, LaurentPoly]:
    """Knot values for odd n <= n_max, keyed by n, from the bases P(1) = 1,
    P(3) = k1 + k2."""
    odd_index(n_max)
    steps = _steps(pair.k1, pair.k2, LaurentPoly.one(pair.context), pair.k1 + pair.k2)
    return dict(zip(range(1, n_max + 1, 2), steps))


def gen_full_sequence(
    pair: SkeinPair, base1: LaurentPoly, base2: LaurentPoly, n_max: int
) -> dict[int, LaurentPoly]:
    """All values for 1 <= n <= n_max from caller-supplied bases.

    base1 is the n=1 value (normally 1); base2 is the n=2 torus-link value,
    which the knot-only machinery never determines, so the caller owns it.
    With base1 = 1, the odd entries equal gen_odd_sequence(l_to_k(pair), ...)
    exactly when l1*base2 = l1^2 + l2 - l2^2, the n=3 consistency condition.
    """
    if type(n_max) is not int or n_max < 1:
        raise ValueError(f"n_max must be an integer >= 1, got {n_max!r}")
    _require_same_context(base1, pair.l1, "bases and pair")
    _require_same_context(base2, pair.l1, "bases and pair")
    return dict(zip(range(1, n_max + 1), _steps(pair.l1, pair.l2, base1, base2)))


def solve_parameters(pair: KnotStepPair) -> tuple[Monomial, Monomial]:
    """Split k1 = u + v into monic monomials with u v = -k2.

    Returns (u, v) with u the greater term in the canonical order.  Raises
    NotTwoParameterForm when k1 is not two monic terms or the product test
    fails.
    """
    monos = list(pair.k1.monomials())
    if len(monos) != 2 or any(m.coeff != 1 for m in monos):
        raise NotTwoParameterForm(
            f"k1 = {pair.k1} is not a sum of two monic monomials"
        )
    u, v = monos  # canonical order is descending, so u > v already
    context = pair.context
    product = LaurentPoly.from_monomial(context, u) * LaurentPoly.from_monomial(context, v)
    if product != -pair.k2:
        raise NotTwoParameterForm(
            f"the term product {product} does not equal -k2 = {-pair.k2}"
        )
    return u, v


def fit_ansatz(seq: Mapping[int, LaurentPoly], qhat: Monomial, phat: Monomial) -> AnsatzCoefficients:
    """Fit P(2m+1) = a1 [m+1]_{qhat,phat} - a2 [m]_{qhat,phat} to a sequence
    keyed by odd n.

    a1 is the n=1 entry and a2 = a1 (qhat + phat) - P(3); both follow from
    the first two knots, after which every entry of seq is checked against
    the ansatz and any deviation raises AnsatzMismatch.  Every key passes
    odd_index first, so a key that is no knot index raises InvalidTorusIndex.
    qhat and phat must be +/-1 monomials (ValueError otherwise).
    """
    indices = sorted((odd_index(n), n) for n in seq)
    for needed in (1, 3):
        if needed not in seq:
            raise ValueError(f"sequence must contain entries 1 and 3, missing {needed}")
    a1 = seq[1]
    context = a1.context
    a2 = a1 * uv_number(2, qhat, phat, context) - seq[3]  # [2] = qhat + phat
    last, high = None, None  # the previous entry's m and its [m+1]
    for m, n in indices:
        low = high if last == m - 1 else uv_number(m, qhat, phat, context)
        high = uv_number(m + 1, qhat, phat, context)
        last = m
        expected = a1 * high - a2 * low
        if expected != seq[n]:
            raise AnsatzMismatch(f"entry n={n} is {seq[n]} but the ansatz gives {expected}")
    return AnsatzCoefficients(a1, a2)
