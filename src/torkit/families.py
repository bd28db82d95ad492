"""The four T(n,2) invariant families and the substitutions between them.

Each family starts from its defining crossing relationship

    c_plus * P(+) + c_minus * P(-) = c_zero * P(0)

which rearranges (divide by the single-term c_plus) into the step form
P(+) = l1 P(0) + l2 P(-) with l1 = c_zero / c_plus and l2 = -c_minus / c_plus.
For the torus braids T(n,2) that step is exactly P(n+1) = l1 P(n) +
l2 P(n-1), and composing it once gives the knot-only pair (k1, k2).

Family data, with m = (n-1)/2 for odd n:

    alexander              t        l1 = t^(1/2) - t^(-1/2)   l2 = 1
                                    U_m = [m]_t               k2 = -1
    generalized-alexander  q, p     l1 = q^(1/2) - p^(1/2)    l2 = (qp)^(1/2)
                                    U_m = [m]_{q,p}           k2 = -qp
    jones                  t        l1 = t^(3/2) - t^(1/2)    l2 = t^2
                                    U_m = [m]_{t^3,t}         k2 = -t^4
    homfly                 a, z     l1 = a z                  l2 = a^2
                                    U_m = a^(2m-2) [m]_w      k2 = -a^4

U is the family's Lucas sequence, U_0 = 0, U_1 = 1 and U_{m+1} = k1 U_m +
k2 U_{m-1} (E. Lucas, Amer. J. Math. 1, 1878), and every closed form is
P(2m+1) = U_{m+1} + k2 U_m.  Here w = z^2 + 2 and [k]_w = sum_j C(k+j, 2j+1)
z^(2j) (Chebyshev U; cf. V. Jones, Ann. of Math. 126, 1987).  value(n) is
always the closed form and sequence(n_max) the knot-step recurrence: two
independent paths.

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

from collections.abc import Callable, Iterator

from .laurent import LaurentPoly, Substitution, VarContext, _Frozen, parse
from .qnumbers import QP_CTX, T_CTX, jones_number, q_number, qp_number
from .skein import (
    KnotStepPair,
    SkeinPair,
    gen_odd_sequence,
    l_to_k,
    odd_index,
)

AZ_CTX = VarContext(("a", "z"))


class FamilySpec(_Frozen):
    """Everything one invariant family carries.

    skein_form holds (c_plus, c_minus, c_zero) of the defining relationship;
    skein and knot_step are derived from it; closed_form maps m to the
    T(2m+1,2) value U_{m+1} + k2 U_m with k2 bound when the family is built,
    so it never reads knot_step.  hopf, when present, is the n=2 link
    value consistent with the knot values (the generalized family has none:
    l1 * base2 = l1^2 + l2 - l2^2 has no Laurent-polynomial solution there).
    ansatz, when present, is the paper's (a1, a2), the oracle that verify
    checks fit_ansatz against (homfly has none: the fit needs its second shape).
    """

    __slots__ = ("name", "context", "skein_form", "skein", "knot_step", "closed_form", "hopf", "ansatz")

    def __init__(
        self,
        name: str,
        context: VarContext,
        skein_form: tuple[LaurentPoly, LaurentPoly, LaurentPoly],
        skein: SkeinPair,
        knot_step: KnotStepPair,
        closed_form: Callable[[int], LaurentPoly],
        hopf: LaurentPoly | None = None,
        ansatz: tuple[LaurentPoly, LaurentPoly] | None = None,
    ):
        super().__init__(name, context, skein_form, skein, knot_step, closed_form, hopf, ansatz)

    def value(self, n: int) -> LaurentPoly:
        """The T(n,2) value for odd n, from the closed form."""
        return self.closed_form(odd_index(n))

    def sequence(self, n_max: int) -> dict[int, LaurentPoly]:
        """Values for every odd n <= n_max, keyed by n, from the knot-step recurrence."""
        return dict(gen_odd_sequence(self.knot_step, n_max))


def _build_family(
    name: str,
    context: VarContext,
    c_plus: str,
    c_minus: str,
    c_zero: str,
    lucas: Callable[[int], LaurentPoly],
    hopf: str | None = None,
    ansatz: tuple[str, str] | None = None,
) -> FamilySpec:
    plus = parse(c_plus, context)
    minus = parse(c_minus, context)
    zero = parse(c_zero, context)
    # Rearrange c_plus*P(+) + c_minus*P(-) = c_zero*P(0) into
    # P(+) = l1*P(0) + l2*P(-):  l1 = c_zero/c_plus, l2 = -c_minus/c_plus.
    # c_plus is a single +/-1 term in every family, a unit of the ring, so the
    # division is the exact power c_plus ** -1 (for jones, c_plus = t^(-1): times t).
    inv = plus ** -1
    pair = SkeinPair(zero * inv, -(minus * inv))
    knot_step = l_to_k(pair)
    k2 = knot_step.k2
    return FamilySpec(
        name=name,
        context=context,
        skein_form=(plus, minus, zero),
        skein=pair,
        knot_step=knot_step,
        closed_form=lambda m: lucas(m + 1) + k2 * lucas(m),
        hopf=parse(hopf, context) if hopf else None,
        ansatz=(parse(ansatz[0], context), parse(ansatz[1], context)) if ansatz else None,
    )


def _w_coefficients(k: int) -> Iterator[int]:
    """C(k+j, 2j+1) for j = 0..k-1, the coefficients of z^(2j) in [k]_w, each
    from the one before: C(k+j+1, 2j+3) = C(k+j, 2j+1) (k+j+1)(k-j-1) / ((2j+2)(2j+3))."""
    c = k
    for j in range(k):
        yield c
        c = c * (k + j + 1) * (k - j - 1) // ((2 * j + 2) * (2 * j + 3))


def _homfly_lucas(k: int) -> LaurentPoly:
    """a^(2k-2) [k]_w, the U_k of homfly's knot step (a^2 w, -a^4)."""
    return LaurentPoly._make(AZ_CTX, {(8 * k - 8, 8 * j): c for j, c in enumerate(_w_coefficients(k))})


# Each U looks its q-number up by name at call time, so a wrapper rebound here (a tracer's) sees every call.
ALEXANDER = _build_family(
    "alexander",
    T_CTX,
    c_plus="1",
    c_minus="-1",
    c_zero="t^(1/2) - t^(-1/2)",
    lucas=lambda k: q_number(k, "t"),
    hopf="t^(1/2) - t^(-1/2)",
    ansatz=("1", "1"),
)

GENERALIZED_ALEXANDER = _build_family(
    "generalized-alexander",
    QP_CTX,
    c_plus="1",
    c_minus="-q^(1/2)*p^(1/2)",
    c_zero="q^(1/2) - p^(1/2)",
    lucas=lambda k: qp_number(k),
    hopf=None,
    ansatz=("1", "q*p"),
)

JONES = _build_family(
    "jones",
    T_CTX,
    c_plus="t^(-1)",
    c_minus="-t",
    c_zero="t^(1/2) - t^(-1/2)",
    lucas=lambda k: jones_number(k),
    hopf="-t^(1/2) - t^(5/2)",
    ansatz=("1", "t^4"),
)

HOMFLY = _build_family(
    "homfly",
    AZ_CTX,
    c_plus="a^(-1)",
    c_minus="-a",
    c_zero="z",
    lucas=_homfly_lucas,
    hopf="a*z + a*z^(-1) - a^3*z^(-1)",
)

FAMILIES: dict[str, FamilySpec] = {
    spec.name: spec for spec in (ALEXANDER, GENERALIZED_ALEXANDER, JONES, HOMFLY)
}


def alexander_torus(n: int) -> LaurentPoly:
    """Alexander value of T(n,2), odd n: U_{m+1} + k2 U_m = [m+1]_t - [m]_t, m = (n-1)/2."""
    return ALEXANDER.value(n)


def generalized_alexander_torus(n: int) -> LaurentPoly:
    """Generalized Alexander value of T(n,2), odd n: U_{m+1} + k2 U_m = [m+1]_{q,p} - qp [m]_{q,p}."""
    return GENERALIZED_ALEXANDER.value(n)


def jones_torus(n: int) -> LaurentPoly:
    """Jones value of T(n,2), odd n: U_{m+1} + k2 U_m = [m+1]_{t^3,t} - t^4 [m]_{t^3,t}."""
    return JONES.value(n)


def homfly_torus(n: int) -> LaurentPoly:
    """Homfly value of T(n,2), odd n: U_{m+1} + k2 U_m = a^(2m) ([m+1]_w - a^2 [m]_w), w = z^2 + 2."""
    return HOMFLY.value(n)


# Compiled once: each value is parsed and checked here, not on every call.
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
