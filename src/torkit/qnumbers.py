"""The paper's deformed integers [n]_{u,v} and their three named cases.

For single-term LaurentPolys u and v of one context, each with coefficient
+/-1, [n]_{u,v} = (u^n - v^n) / (u - v) is built directly as the explicit
sum u^(n-1) + u^(n-2) v + ... + v^(n-1), never by division; uv_number is
the one place that builds it.  The named cases are the symmetric q-number
[n]_q = [n]_{q,q^(-1)} (q_number), its two-parameter cousin [n]_{q,p}
(qp_number), which recovers [n]_q under p -> q^(-1), and the Jones-flavored
[n]_{t^3,t} (jones_number).  Every [n]_{u,v} satisfies

    [n+1]_{u,v} = (u + v) [n]_{u,v} - u v [n-1]_{u,v}

so it is the Lucas sequence U_n of the knot step (u + v, -uv), the U of
the families' closed forms.  verify_q_recurrence and verify_qp_recurrence
confirm it by exact polynomial equality against _steps, the one recurrence
stepper, which skein's sequences run too.  It steps small entries with
laurent._linear, then each entry as one Kronecker-packed int
(laurent._packed_steps) for as long as the slots fit in 64 bits.
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import cache
from itertools import islice, repeat

from .laurent import _PACKED_MIN_TERMS, ContextMismatch, LaurentPoly, VarContext, _linear, _packed_steps, parse
from .report import CheckReport, compare


def uv_number(n: int, u: LaurentPoly, v: LaurentPoly) -> LaurentPoly:
    """[n]_{u,v} as the explicit sum of n terms u^(n-1-j) v^j, j = 0..n-1.

    Term j sits at (n-1) u + j (v - u) in exponents and carries the sign
    s1 * s2^j, with s1 the sign of u^(n-1) and s2 = sign(u) sign(v).  When u
    and v share exponents all n terms meet in one key, where they sum (or
    cancel, when the signs differ).  n must be an int >= 0 (bool is
    rejected).  The result lives in u's context; v must live there too
    (ContextMismatch otherwise), and each of u and v must be a single term
    with coefficient +/-1 (ValueError otherwise).
    """
    if type(n) is not int or n < 0:
        raise ValueError(f"[n]_{{u,v}} is defined for integers n >= 0, got {n!r}")
    context = u.context
    if v.context is not context and v.context != context:
        raise ContextMismatch(f"u and v must share one context, got {context.names} and {v.context.names}")
    if u.num_terms != 1 or v.num_terms != 1:
        raise ValueError("[n]_{u,v} needs u and v to be single terms")
    ((ux, us),), ((vx, vs),) = u.terms.items(), v.terms.items()
    if us not in (1, -1) or vs not in (1, -1):
        raise ValueError("[n]_{u,v} needs u and v to have coefficient +1 or -1")
    s1 = us if n % 2 == 0 else 1
    if ux == vx:
        total = n * s1 if us == vs else s1 * (n % 2)
        top = tuple((n - 1) * e for e in ux)  # where all n terms meet
        return LaurentPoly._make(context, {top: total} if total else {})
    # Each variable's exponents across the terms: (n-1) x + j (y - x), j = 0..n-1.
    axes = [
        range((n - 1) * x, n * y - x, y - x) if x != y else repeat((n - 1) * x, n)
        for x, y in zip(ux, vx)
    ]
    terms = dict.fromkeys(zip(*axes), s1)
    if us != vs:  # s2 = -1: the odd-numbered terms flip sign
        for key in islice(terms, 1, None, 2):
            terms[key] = -s1
    return LaurentPoly._make(context, terms)


# The named cases' contexts (families shares T_CTX and QP_CTX) and parameter pairs.
T_CTX = VarContext(("t",))
QP_CTX = VarContext(("q", "p"))
_QP_PAIR = (parse("q", QP_CTX), parse("p", QP_CTX))
_JONES_PAIR = (parse("t^3", T_CTX), parse("t", T_CTX))


@cache
def _q_pair(var: str) -> tuple[LaurentPoly, LaurentPoly]:
    """(x, x^(-1)) for the variable named var, parsed once per name."""
    context = VarContext((var,))
    return parse(var, context), parse(f"{var}^(-1)", context)


def q_number(n: int, var: str = "q") -> LaurentPoly:
    """[n]_q = [n]_{q,q^(-1)}, the sum of the n monomials q^(n-1-2j), in the
    one variable named var; each name's pair (var, var^(-1)) is parsed once."""
    return uv_number(n, *_q_pair(var))


def qp_number(n: int) -> LaurentPoly:
    """[n]_{q,p}, the sum of the n monomials q^(n-1-j) p^j."""
    return uv_number(n, *_QP_PAIR)


def jones_number(n: int) -> LaurentPoly:
    """[n]_{t^3,t}, the sum of the n monomials t^(3(n-1-j)+j)."""
    return uv_number(n, *_JONES_PAIR)


def _steps(
    c1: LaurentPoly, c2: LaurentPoly, first: LaurentPoly, second: LaurentPoly
) -> Iterator[LaurentPoly]:
    """first, second, then c1 * cur + c2 * prev for each later entry, holding
    only the two entries the next step reads.  While cur has fewer than
    _PACKED_MIN_TERMS terms a step is one fused _linear call, which merges
    the shifted, scaled copies of cur and prev into one dict; from there on
    _packed_steps adds them as big ints, until its proofs need slots wider
    than 64 bits (HOMFLY's knot step from n = 97), and _linear takes the
    rest.  This is the one recurrence stepper: the skein steps run it with
    (l1, l2) and (k1, k2), the recurrence checks with (u + v, -uv)."""
    prev, cur = first, second
    yield prev
    yield cur
    while cur.num_terms < _PACKED_MIN_TERMS:
        prev, cur = cur, _linear(c1, cur, c2, prev)
        yield cur
    for entry in _packed_steps(c1, c2, prev, cur):
        prev, cur = cur, entry
        yield cur
    while True:
        prev, cur = cur, _linear(c1, cur, c2, prev)
        yield cur


def _verify_recurrence(name: str, build, pair, n_max: int) -> CheckReport:
    """Check [n+1] = (u + v)[n] - uv [n-1] exactly for 1 <= n <= n_max, where
    build(n) is [n]_{u,v} for the pair (u, v) of single +/-1 terms: each
    build(n+1) against the recurrence stepped from build(0) and build(1)."""
    u, v = pair
    stepped = islice(_steps(u + v, -(u * v), build(0), build(1)), 2, None)
    return compare(name, ((n - 1, build(n), rhs) for n, rhs in zip(range(2, n_max + 2), stepped)))


def verify_q_recurrence(n_max: int) -> CheckReport:
    """Check [n+1] = (q + q^(-1))[n] - [n-1] exactly for 1 <= n <= n_max."""
    return _verify_recurrence("q-number-recurrence", q_number, _q_pair("q"), n_max)


def verify_qp_recurrence(n_max: int) -> CheckReport:
    """Check [n+1] = (q + p)[n] - qp [n-1] exactly for 1 <= n <= n_max."""
    return _verify_recurrence("qp-number-recurrence", qp_number, _QP_PAIR, n_max)
