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
from typing import Mapping

from .laurent import (
    ContextMismatch,
    LaurentPoly,
    Monomial,
    NotAPerfectSquare,
    TorkitError,
    VarContext,
    exact_sqrt,
)
from .qnumbers import qp_number
from .report import CheckReport, compare


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


@dataclass(frozen=True)
class TorusSequence:
    """Invariants of T(n,2) for odd n, keyed by n, with a display label."""

    label: str
    entries: Mapping[int, LaurentPoly]

    def entry(self, n: int) -> LaurentPoly:
        try:
            return self.entries[n]
        except KeyError:
            raise KeyError(f"sequence {self.label!r} has no entry for n={n}") from None

    @property
    def n_max(self) -> int:
        return max(self.entries)


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


def gen_odd_sequence(pair: KnotStepPair, n_max: int, label: str = "") -> TorusSequence:
    """Knot values for odd n <= n_max from the bases P(1) = 1, P(3) = k1 + k2."""
    odd_index(n_max)
    entries: dict[int, LaurentPoly] = {1: LaurentPoly.one(pair.context)}
    if n_max >= 3:
        entries[3] = pair.k1 + pair.k2
    for n in range(5, n_max + 1, 2):
        entries[n] = pair.k1 * entries[n - 2] + pair.k2 * entries[n - 4]
    return TorusSequence(label, entries)


def gen_full_sequence(
    pair: SkeinPair, base1: LaurentPoly, base2: LaurentPoly, n_max: int
) -> dict[int, LaurentPoly]:
    """All values for 1 <= n <= n_max from caller-supplied bases.

    base1 is the n=1 value (normally 1); base2 is the n=2 torus-link value,
    which the knot-only machinery never determines, so the caller owns it.
    """
    if type(n_max) is not int or n_max < 1:
        raise ValueError(f"n_max must be an integer >= 1, got {n_max!r}")
    _require_same_context(base1, pair.l1, "bases and pair")
    _require_same_context(base2, pair.l1, "bases and pair")
    seq = {1: base1}
    if n_max >= 2:
        seq[2] = base2
    for n in range(3, n_max + 1):
        seq[n] = pair.l1 * seq[n - 1] + pair.l2 * seq[n - 2]
    return seq


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


def _qp_at(m: int, qhat: Monomial, phat: Monomial, context: VarContext) -> LaurentPoly:
    # [m] for the concrete parameter pair, via substitution into [m]_{q,p}
    return qp_number(m).substitute_monomial(context, {"q": qhat, "p": phat})


def fit_ansatz(seq: TorusSequence, qhat: Monomial, phat: Monomial) -> AnsatzCoefficients:
    """Fit P(2m+1) = a1 [m+1]_{qhat,phat} - a2 [m]_{qhat,phat} to a sequence.

    a1 is the n=1 entry and a2 = a1 (qhat + phat) - P(3); both follow from
    the first two knots, after which every entry of seq is checked against
    the ansatz and any deviation raises AnsatzMismatch.
    """
    for needed in (1, 3):
        if needed not in seq.entries:
            raise ValueError(f"sequence must contain entries 1 and 3, missing {needed}")
    a1 = seq.entry(1)
    context = a1.context
    step = LaurentPoly.from_monomial(context, qhat) + LaurentPoly.from_monomial(context, phat)
    a2 = a1 * step - seq.entry(3)
    for n in sorted(seq.entries):
        m = (n - 1) // 2
        expected = a1 * _qp_at(m + 1, qhat, phat, context) - a2 * _qp_at(m, qhat, phat, context)
        if expected != seq.entry(n):
            raise AnsatzMismatch(
                f"entry n={n} is {seq.entry(n)} but the ansatz gives {expected}"
            )
    return AnsatzCoefficients(a1, a2)


def verify_interleave(
    pair: SkeinPair, base2: LaurentPoly, n_max: int, name: str = "interleave"
) -> CheckReport:
    """Compare the odd entries of the full recurrence against the knot-only
    recurrence for odd n <= n_max.

    The comparison uses the caller's base2; the odd subsequence agrees with
    gen_odd_sequence exactly when base2 satisfies l1*base2 = l1^2 + l2 - l2^2,
    the n=3 consistency condition.
    """
    odd = gen_odd_sequence(l_to_k(pair), n_max)
    full = gen_full_sequence(pair, LaurentPoly.one(pair.context), base2, n_max)
    return compare(name, ((n, full[n], value) for n, value in odd.entries.items()))
