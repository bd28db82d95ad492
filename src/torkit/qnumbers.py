"""The paper's deformed integers [n]_{u,v} and their three named cases.

For single-term LaurentPolys u and v of one context, each with coefficient
+/-1, [n]_{u,v} = (u^n - v^n) / (u - v) is built directly as the explicit
sum u^(n-1) + u^(n-2) v + ... + v^(n-1), never by division; _uv_number is
the one place that builds it.  uv_number checks its pair on every call; the
named cases pass pairs checked once and skip that check.  They are the
symmetric q-number [n]_q = [n]_{q,q^(-1)} (q_number), its two-parameter
cousin [n]_{q,p} (qp_number), which recovers [n]_q under p -> q^(-1), and
the Jones-flavored [n]_{t^3,t} (jones_number).  Every [n]_{u,v} satisfies

    [n+1]_{u,v} = (u + v) [n]_{u,v} - u v [n-1]_{u,v}

so it is the Lucas sequence U_n of the knot step (u + v, -uv), the U of
the families' closed forms.  verify_q_recurrence and verify_qp_recurrence
confirm it by exact polynomial equality against laurent._steps, the one
recurrence stepper.
"""

from __future__ import annotations

from functools import cache
from itertools import islice, repeat

from .laurent import ContextMismatch, LaurentPoly, VarContext, _steps, parse
from .report import CheckReport, compare


def uv_number(n: int, u: LaurentPoly, v: LaurentPoly) -> LaurentPoly:
    """[n]_{u,v} as the explicit sum of n terms u^(n-1-j) v^j, j = 0..n-1.

    n must be an int >= 0 (bool is rejected).  The result lives in u's
    context; v must live there too (ContextMismatch otherwise), and each of
    u and v must be a single term with coefficient +/-1 (ValueError
    otherwise).
    """
    return _uv_number(n, *_checked(u, v))


def _checked(u: LaurentPoly, v: LaurentPoly) -> tuple:
    """(context, u's term, v's term), each term an (exponents, sign) item,
    once u and v pass uv_number's checks on the pair."""
    context = u.context
    if v.context is not context and v.context != context:
        raise ContextMismatch(f"u and v must share one context, got {context.names} and {v.context.names}")
    if u.num_terms != 1 or v.num_terms != 1:
        raise ValueError("[n]_{u,v} needs u and v to be single terms")
    (u_term,), (v_term,) = u.terms.items(), v.terms.items()
    if u_term[1] not in (1, -1) or v_term[1] not in (1, -1):
        raise ValueError("[n]_{u,v} needs u and v to have coefficient +1 or -1")
    return context, u_term, v_term


def _uv_number(n: int, context: VarContext, u_term: tuple, v_term: tuple) -> LaurentPoly:
    """[n]_{u,v} from a pair that _checked has passed; n is still checked.

    Term j sits at (n-1) u + j (v - u) in exponents and carries the sign
    s1 * s2^j, with s1 the sign of u^(n-1) and s2 = sign(u) sign(v).  When u
    and v share exponents all n terms meet in one key, where they sum (or
    cancel, when the signs differ).
    """
    if type(n) is not int or n < 0:
        raise ValueError(f"[n]_{{u,v}} is defined for integers n >= 0, got {n!r}")
    (ux, us), (vx, vs) = u_term, v_term
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


# The named cases' contexts (families shares T_CTX and QP_CTX) and pairs,
# each checked once here, so that the named builders skip the check.
T_CTX = VarContext(("t",))
QP_CTX = VarContext(("q", "p"))
_QP_PAIR = _checked(parse("q", QP_CTX), parse("p", QP_CTX))
_JONES_PAIR = _checked(parse("t^3", T_CTX), parse("t", T_CTX))


@cache
def _q_pair(var: str) -> tuple:
    """The checked pair (x, x^(-1)) for the variable named var, built once per name."""
    context = VarContext((var,))
    return _checked(parse(var, context), parse(f"{var}^(-1)", context))


def q_number(n: int, var: str = "q") -> LaurentPoly:
    """[n]_q = [n]_{q,q^(-1)}, the sum of the n monomials q^(n-1-2j), in the
    one variable named var; each name's pair (var, var^(-1)) is parsed once."""
    return _uv_number(n, *_q_pair(var))


def qp_number(n: int) -> LaurentPoly:
    """[n]_{q,p}, the sum of the n monomials q^(n-1-j) p^j."""
    return _uv_number(n, *_QP_PAIR)


def jones_number(n: int) -> LaurentPoly:
    """[n]_{t^3,t}, the sum of the n monomials t^(3(n-1-j)+j)."""
    return _uv_number(n, *_JONES_PAIR)


def _verify_recurrence(name: str, build, pair, n_max: int) -> CheckReport:
    """Check [n+1] = (u + v)[n] - uv [n-1] exactly for 1 <= n <= n_max, where
    build(n) is [n]_{u,v} for the checked pair (u, v): each build(n+1)
    against the recurrence stepped from build(0) and build(1)."""
    context, *terms = pair
    u, v = (LaurentPoly._make(context, dict([term])) for term in terms)
    stepped = islice(_steps(u + v, -(u * v), build(0), build(1)), 2, None)
    return compare(name, ((n - 1, build(n), rhs) for n, rhs in zip(range(2, n_max + 2), stepped)))


def verify_q_recurrence(n_max: int) -> CheckReport:
    """Check [n+1] = (q + q^(-1))[n] - [n-1] exactly for 1 <= n <= n_max."""
    return _verify_recurrence("q-number-recurrence", q_number, _q_pair("q"), n_max)


def verify_qp_recurrence(n_max: int) -> CheckReport:
    """Check [n+1] = (q + p)[n] - qp [n-1] exactly for 1 <= n <= n_max."""
    return _verify_recurrence("qp-number-recurrence", qp_number, _QP_PAIR, n_max)
