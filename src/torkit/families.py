"""The four T(n,2) invariant families and the substitutions between them.

Each family starts from its defining crossing relationship

    c_plus * P(+) + c_minus * P(-) = c_zero * P(0)

which rearranges (divide by the single-term c_plus) into the step form
P(+) = l1 P(0) + l2 P(-) with l1 = c_zero / c_plus and l2 = -c_minus / c_plus.
For the torus braids T(n,2) that step is exactly P(n+1) = l1 P(n) +
l2 P(n-1), and composing it once gives the knot-only pair (k1, k2).

Family data, with m = (n-1)/2 for odd n:

    alexander              t        l1 = t^(1/2) - t^(-1/2)   l2 = 1
                                    closed form [m+1]_t - [m]_t
    generalized-alexander  q, p     l1 = q^(1/2) - p^(1/2)    l2 = (qp)^(1/2)
                                    closed form [m+1]_{q,p} - qp [m]_{q,p}
    jones                  t        l1 = t^(3/2) - t^(1/2)    l2 = t^2
                                    closed form [m+1]_{t^3,t} - t^4 [m]_{t^3,t}
    homfly                 a, z     l1 = a z                  l2 = a^2
                                    closed form a^(2m) ([m+1]_w - a^2 [m]_w)

with w = z^2 + 2 and [k]_w = sum_j C(k+j, 2j+1) z^(2j) (Chebyshev U; cf.
V. Jones, Ann. of Math. 126, 1987).  value(n) is always the closed form and
sequence(n_max) the knot-step recurrence: two independent paths.

Note on the alexander step: with l2 = 1 and k1 = t + t^(-1), only
l1 = +/-(t^(1/2) - t^(-1/2)) satisfies l1^2 + 2 l2 = k1; the superficially
similar sum t^(1/2) + t^(-1/2) squares to t + 2 + t^(-1) and overshoots k1
by 4.  The difference form is therefore the only consistent choice, and the
canonical-positive sign convention picks the leading coefficient +1.

The generalized invariant reduces to alexander under p -> q^(-1) (the
surviving variable is written t here, t and q being the same axis) and to
jones under (q, p) -> (t^3, t).  The homfly invariant maps onto the
generalized one under a -> (qp)^(1/4), z -> (qp)^(-1/4) (q - p) expressed as
q^(1/4) p^(-1/4) - q^(-1/4) p^(1/4).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Callable, Optional

from .laurent import (
    LaurentPoly,
    Monomial,
    Substitution,
    VarContext,
    parse,
)
from .qnumbers import QP_CTX, T_CTX, jones_number, q_number, qp_number
from .skein import EvenIndexUnsupported  # noqa: F401  (re-exported)
from .skein import (
    KnotStepPair,
    SkeinPair,
    gen_odd_sequence,
    l_to_k,
    odd_index,
)

AZ_CTX = VarContext(("a", "z"))


@dataclass(frozen=True)
class FamilySpec:
    """Everything one invariant family carries.

    skein_form holds (c_plus, c_minus, c_zero) of the defining relationship;
    skein and knot_step are derived from it; closed_form maps m to the
    T(2m+1,2) value and reads neither.  hopf, when present, is the n=2 link
    value consistent with the knot values (the generalized family has none:
    l1 * base2 = l1^2 + l2 - l2^2 has no Laurent-polynomial solution there).
    """

    name: str
    context: VarContext
    skein_form: tuple[LaurentPoly, LaurentPoly, LaurentPoly]
    skein: SkeinPair
    knot_step: KnotStepPair
    closed_form: Callable[[int], LaurentPoly]
    hopf: Optional[LaurentPoly] = None

    def value(self, n: int) -> LaurentPoly:
        """The T(n,2) value for odd n, from the closed form."""
        return self.closed_form(odd_index(n))

    def sequence(self, n_max: int) -> dict[int, LaurentPoly]:
        """Values for every odd n <= n_max, keyed by n, from the knot-step recurrence."""
        return gen_odd_sequence(self.knot_step, n_max)


def _invert_monomial(m: Monomial) -> Monomial:
    if m.coeff not in (1, -1):
        raise ValueError("only +/-1 monomials invert exactly")
    return Monomial(tuple(-q for q in m.quarters), m.coeff)


def _build_family(
    name: str,
    context: VarContext,
    c_plus: str,
    c_minus: str,
    c_zero: str,
    closed_form: Callable[[int], LaurentPoly],
    hopf: Optional[str] = None,
) -> FamilySpec:
    plus = parse(c_plus, context)
    minus = parse(c_minus, context)
    zero = parse(c_zero, context)
    # Rearrange c_plus*P(+) + c_minus*P(-) = c_zero*P(0) into
    # P(+) = l1*P(0) + l2*P(-):  l1 = c_zero/c_plus, l2 = -c_minus/c_plus.
    # c_plus is a single +/-1 monomial in every family, so the division is
    # an exact monomial inverse (for jones, c_plus = t^(-1), this is the
    # multiply-through-by-t step).
    inv = LaurentPoly.from_monomial(context, _invert_monomial(plus.leading_monomial()))
    pair = SkeinPair(zero * inv, -(minus * inv))
    return FamilySpec(
        name=name,
        context=context,
        skein_form=(plus, minus, zero),
        skein=pair,
        knot_step=l_to_k(pair),
        closed_form=closed_form,
        hopf=parse(hopf, context) if hopf else None,
    )


_QP = parse("q*p", QP_CTX)
_T4 = parse("t^4", T_CTX)


def _alexander_closed(m: int) -> LaurentPoly:
    return q_number(m + 1, "t") - q_number(m, "t")


def _generalized_closed(m: int) -> LaurentPoly:
    return qp_number(m + 1) - _QP * qp_number(m)


def _jones_closed(m: int) -> LaurentPoly:
    return jones_number(m + 1) - _T4 * jones_number(m)


def _homfly_closed(m: int) -> LaurentPoly:
    # a^(2m) [m+1]_w and -a^(2m+2) [m]_w: disjoint keys, nonzero coefficients.
    terms = {(8 * m, 8 * j): comb(m + 1 + j, 2 * j + 1) for j in range(m + 1)}
    terms.update({(8 * m + 8, 8 * j): -comb(m + j, 2 * j + 1) for j in range(m)})
    return LaurentPoly._make(AZ_CTX, terms)


ALEXANDER = _build_family(
    "alexander",
    T_CTX,
    c_plus="1",
    c_minus="-1",
    c_zero="t^(1/2) - t^(-1/2)",
    closed_form=_alexander_closed,
    hopf="t^(1/2) - t^(-1/2)",
)

GENERALIZED_ALEXANDER = _build_family(
    "generalized-alexander",
    QP_CTX,
    c_plus="1",
    c_minus="-q^(1/2)*p^(1/2)",
    c_zero="q^(1/2) - p^(1/2)",
    closed_form=_generalized_closed,
    hopf=None,
)

JONES = _build_family(
    "jones",
    T_CTX,
    c_plus="t^(-1)",
    c_minus="-t",
    c_zero="t^(1/2) - t^(-1/2)",
    closed_form=_jones_closed,
    hopf="-t^(1/2) - t^(5/2)",
)

HOMFLY = _build_family(
    "homfly",
    AZ_CTX,
    c_plus="a^(-1)",
    c_minus="-a",
    c_zero="z",
    closed_form=_homfly_closed,
    hopf="a*z + a*z^(-1) - a^3*z^(-1)",
)

FAMILIES: dict[str, FamilySpec] = {
    spec.name: spec for spec in (ALEXANDER, GENERALIZED_ALEXANDER, JONES, HOMFLY)
}


def alexander_torus(n: int) -> LaurentPoly:
    """Alexander value of T(n,2), odd n: [m+1]_t - [m]_t with m = (n-1)/2."""
    return ALEXANDER.value(n)


def generalized_alexander_torus(n: int) -> LaurentPoly:
    """Generalized Alexander value of T(n,2), odd n: [m+1]_{q,p} - qp [m]_{q,p}."""
    return GENERALIZED_ALEXANDER.value(n)


def jones_torus(n: int) -> LaurentPoly:
    """Jones value of T(n,2), odd n: [m+1]_{t^3,t} - t^4 [m]_{t^3,t}."""
    return JONES.value(n)


def homfly_torus(n: int) -> LaurentPoly:
    """Homfly value of T(n,2), odd n: a^(2m) ([m+1]_w - a^2 [m]_w), w = z^2 + 2."""
    return HOMFLY.value(n)


# Compiled once, so homfly_to_generalized keeps the powers of z it builds.
_TO_ALEXANDER = Substitution(QP_CTX, T_CTX, {"q": "t", "p": "t^(-1)"})
_TO_JONES = Substitution(QP_CTX, T_CTX, {"q": "t^3", "p": "t"})
_HOMFLY_TO_GENERALIZED = Substitution(
    AZ_CTX,
    QP_CTX,
    {"a": "q^(1/4)*p^(1/4)", "z": "q^(1/4)*p^(-1/4) - q^(-1/4)*p^(1/4)"},
)


def to_alexander(f: LaurentPoly) -> LaurentPoly:
    """Specialize p -> q^(-1); the surviving axis is written t."""
    return f.substitute_monomial(T_CTX, _TO_ALEXANDER)


def to_jones(f: LaurentPoly) -> LaurentPoly:
    """Specialize (q, p) -> (t^3, t)."""
    return f.substitute_monomial(T_CTX, _TO_JONES)


def homfly_to_generalized(f: LaurentPoly) -> LaurentPoly:
    """Substitute a -> (qp)^(1/4) and z -> q^(1/4) p^(-1/4) - q^(-1/4) p^(1/4).

    z is replaced by a genuine two-term polynomial, so f must carry only
    nonnegative powers of z; torus-knot homfly values do.
    """
    return f.substitute_poly(QP_CTX, _HOMFLY_TO_GENERALIZED)
