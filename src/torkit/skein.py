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
verifies against every entry it is given.  On a knot-step sequence the fit
is (1, -k2): [m]_{u,v} is then the Lucas sequence U_m of (k1, k2), and
every knot value is U_{m+1} + k2 U_m.  Both steps run laurent._steps.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator, Mapping

from .laurent import (
    ContextMismatch,
    LaurentPoly,
    NotAPerfectSquare,
    TorkitError,
    VarContext,
    _Frozen,
    _steps,
    exact_sqrt,
)
from .qnumbers import uv_number


class InvalidTorusIndex(TorkitError, ValueError):
    """A torus index that is not a positive int."""


class EvenIndexUnsupported(InvalidTorusIndex):
    """T(n,2) with even n is a link, which the knot step never visits.

    alexander, jones and homfly supply a Hopf (n=2) value for
    gen_full_sequence, but the generalized family has no Laurent-polynomial
    n=2 value consistent with its recurrence.
    """


def odd_index(n: int) -> int:
    """m = (n-1)/2 for an odd torus index n >= 1, the one check every index passes.

    bool and other int look-alikes are rejected, not coerced.
    """
    if type(n) is not int or n < 1:
        raise InvalidTorusIndex(f"torus index must be a positive integer, got {n!r}")
    if n % 2 == 0:
        raise EvenIndexUnsupported(
            f"T({n},2) is a two-component link; the knot step reaches odd n only, "
            "so even n needs gen_full_sequence and an n=2 link value"
        )
    return (n - 1) // 2


class NotInvertible(TorkitError):
    """No exact (l1, l2) exists for the given knot-step coefficients."""


class NotTwoParameterForm(TorkitError):
    """k1 is not a sum of two monic monomials whose product is -k2."""


class AnsatzMismatch(TorkitError):
    """A sequence entry deviates from the fitted two-parameter ansatz."""


def _require_same_context(a: LaurentPoly, b: LaurentPoly, what: str) -> None:
    if a.context is not b.context and a.context != b.context:
        raise ContextMismatch(f"{what} must share one context")


class SkeinPair(_Frozen):
    """Coefficients (l1, l2) of the full step P(n+1) = l1 P(n) + l2 P(n-1)."""

    __slots__ = ("l1", "l2")

    def __init__(self, l1: LaurentPoly, l2: LaurentPoly):
        _require_same_context(l1, l2, "l1 and l2")
        super().__init__(l1, l2)

    @property
    def context(self) -> VarContext:
        return self.l1.context


class KnotStepPair(_Frozen):
    """Coefficients (k1, k2) of the knot-only step P(n+2) = k1 P(n) + k2 P(n-2)."""

    __slots__ = ("k1", "k2")

    def __init__(self, k1: LaurentPoly, k2: LaurentPoly):
        _require_same_context(k1, k2, "k1 and k2")
        super().__init__(k1, k2)

    @property
    def context(self) -> VarContext:
        return self.k1.context


class AnsatzCoefficients(namedtuple("AnsatzCoefficients", ("a1", "a2"))):
    """The fitted pair (a1, a2) in P(2m+1) = a1 [m+1] - a2 [m], a named
    tuple: it unpacks as a1, a2 and equals the plain pair FamilySpec.ansatz."""

    __slots__ = ()


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


def gen_odd_sequence(pair: KnotStepPair, n_max: int) -> Iterator[tuple[int, LaurentPoly]]:
    """(n, P(n)) for each odd n <= n_max in turn, from the bases P(1) = 1,
    P(3) = k1 + k2.

    n_max is checked at the call, but each value is made only when it is
    asked for, and the iterator holds just the two the next step reads;
    dict(...) of it is FamilySpec.sequence(n_max).
    """
    odd_index(n_max)
    steps = _steps(pair.k1, pair.k2, LaurentPoly.one(pair.context), pair.k1 + pair.k2)
    return zip(range(1, n_max + 1, 2), steps)


def gen_full_sequence(pair: SkeinPair, base2: LaurentPoly, n_max: int) -> dict[int, LaurentPoly]:
    """All values for 1 <= n <= n_max from the bases P(1) = 1 and P(2) = base2.

    base2 is the n=2 torus-link value, which the knot-only machinery never
    determines, so the caller owns it.  The odd entries equal
    gen_odd_sequence(l_to_k(pair), ...) exactly when
    l1*base2 = l1^2 + l2 - l2^2, the n=3 consistency condition.
    """
    if type(n_max) is not int or n_max < 1:
        raise ValueError(f"n_max must be an integer >= 1, got {n_max!r}")
    _require_same_context(base2, pair.l1, "base2 and pair")
    steps = _steps(pair.l1, pair.l2, LaurentPoly.one(pair.context), base2)
    return dict(zip(range(1, n_max + 1), steps))


def solve_parameters(pair: KnotStepPair) -> tuple[LaurentPoly, LaurentPoly]:
    """Split k1 = u + v into monic single terms with u v = -k2.

    Returns (u, v) as single-term polynomials in the pair's context, u the
    greater term in the canonical order.  Raises NotTwoParameterForm when k1
    is not two monic terms or the product test fails.
    """
    terms = pair.k1.terms
    if len(terms) != 2 or any(c != 1 for c in terms.values()):
        raise NotTwoParameterForm(
            f"k1 = {pair.k1} is not a sum of two monic monomials"
        )
    u, v = (LaurentPoly._make(pair.context, {key: 1}) for key in sorted(terms, reverse=True))
    if u * v != -pair.k2:
        raise NotTwoParameterForm(
            f"the term product {u * v} does not equal -k2 = {-pair.k2}"
        )
    return u, v


def fit_ansatz(seq: Mapping[int, LaurentPoly], qhat: LaurentPoly, phat: LaurentPoly) -> AnsatzCoefficients:
    """Fit P(2m+1) = a1 [m+1]_{qhat,phat} - a2 [m]_{qhat,phat} to a sequence
    keyed by odd n.

    a1 is the n=1 entry and a2 = a1 (qhat + phat) - P(3); both follow from
    the first two knots, after which every entry of seq is checked against
    the ansatz and any deviation raises AnsatzMismatch; the named pair it
    returns unpacks as a1, a2 and equals FamilySpec.ansatz.  Every key passes
    odd_index first, so a key that is no knot index raises InvalidTorusIndex.
    qhat and phat must be single terms with coefficient +/-1 (ValueError
    otherwise) in the sequence's context (ContextMismatch otherwise).  seq
    must be a mapping (TypeError otherwise, before anything is read).
    """
    if not isinstance(seq, Mapping):
        raise TypeError(
            f"seq must be a mapping from odd n to P(n), got {type(seq).__name__}; "
            "pass dict(gen_odd_sequence(...))"
        )
    indices = sorted((odd_index(n), n) for n in seq)
    for needed in (1, 3):
        if needed not in seq:
            raise ValueError(f"sequence must contain entries 1 and 3, missing {needed}")
    a1 = seq[1]
    a2 = a1 * uv_number(2, qhat, phat) - seq[3]  # [2] = qhat + phat
    for m, n in indices:
        expected = a1 * uv_number(m + 1, qhat, phat) - a2 * uv_number(m, qhat, phat)
        if expected != seq[n]:
            raise AnsatzMismatch(f"entry n={n} is {seq[n]} but the ansatz gives {expected}")
    return AnsatzCoefficients(a1, a2)
