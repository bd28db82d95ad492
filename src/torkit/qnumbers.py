"""Symmetric q-numbers and their two-parameter (q,p) generalization.

The symmetric q-number [n]_q = (q^n - q^-n) / (q - q^-1) is built directly
as the explicit sum q^(n-1) + q^(n-3) + ... + q^(1-n), never by division.
Its two-parameter cousin [n]_{q,p} = (q^n - p^n) / (q - p) is the sum
q^(n-1) + q^(n-2)*p + ... + p^(n-1), and specializing p -> q^(-1) recovers
[n]_q.  The Jones-flavored special case uses the pair (t^3, t).

Both sequences satisfy three-term recurrences:

    [n+1]_q    = (q + q^(-1)) [n]_q    - [n-1]_q
    [n+1]_{q,p} = (q + p)     [n]_{q,p} - q p [n-1]_{q,p}

which verify_q_recurrence and verify_qp_recurrence confirm by exact
polynomial equality.
"""

from __future__ import annotations

import enum

from .laurent import LaurentPoly, VarContext, parse
from .report import CheckReport, compare


def _check_count(n: int, what: str) -> None:
    """n must be an int >= 0; bool and other int look-alikes are rejected."""
    if type(n) is not int or n < 0:
        raise ValueError(f"{what} are defined for integers n >= 0, got {n!r}")


# The default variables' contexts; the sums below build their terms directly.
_Q_CTX = VarContext(("q",))
_QP_CTX = VarContext(("q", "p"))
_T_CTX = VarContext(("t",))


def q_number(n: int, var: str = "q") -> LaurentPoly:
    """[n]_q as the explicit sum of n monomials q^(n-1-2j), j = 0..n-1."""
    _check_count(n, "q-numbers")
    context = _Q_CTX if var == "q" else VarContext((var,))
    return LaurentPoly._make(context, {(4 * (n - 1 - 2 * j),): 1 for j in range(n)})


def qp_number(n: int, variables: tuple[str, str] = ("q", "p")) -> LaurentPoly:
    """[n]_{q,p} as the explicit sum of n monomials q^(n-1-j) p^j."""
    _check_count(n, "q,p-numbers")
    context = _QP_CTX if tuple(variables) == ("q", "p") else VarContext(tuple(variables))
    return LaurentPoly._make(context, {(4 * (n - 1 - j), 4 * j): 1 for j in range(n)})


def jones_number(n: int, var: str = "t") -> LaurentPoly:
    """[n] for the parameter pair (t^3, t): the sum of t^(3(n-1-j)+j)."""
    _check_count(n, "q,p-numbers")
    context = _T_CTX if var == "t" else VarContext((var,))
    return LaurentPoly._make(context, {(4 * (3 * (n - 1 - j) + j),): 1 for j in range(n)})


class QNumberKind(enum.Enum):
    """Which number family a caller wants, keyed by CLI spelling."""

    SYMMETRIC = "q"
    TWO_PARAMETER = "qp"
    JONES = "jones"

    def construct(self, n: int) -> LaurentPoly:
        if self is QNumberKind.SYMMETRIC:
            return q_number(n)
        if self is QNumberKind.TWO_PARAMETER:
            return qp_number(n)
        return jones_number(n)


def _neighbours(build, n_max: int):
    """(n, [n-1], [n], [n+1]) for 1 <= n <= n_max, building each number once."""
    below, here = build(0), build(1)
    for n in range(1, n_max + 1):
        above = build(n + 1)
        yield n, below, here, above
        below, here = here, above


def verify_q_recurrence(n_max: int) -> CheckReport:
    """Check [n+1] = (q + q^(-1))[n] - [n-1] exactly for 1 <= n <= n_max."""
    step = parse("q + q^(-1)", _Q_CTX)
    cases = ((n, above, step * here - below) for n, below, here, above in _neighbours(q_number, n_max))
    return compare("q-number-recurrence", cases)


def verify_qp_recurrence(n_max: int) -> CheckReport:
    """Check [n+1] = (q + p)[n] - qp [n-1] exactly for 1 <= n <= n_max."""
    step = parse("q + p", _QP_CTX)
    qp = parse("q*p", _QP_CTX)
    cases = ((n, above, step * here - qp * below) for n, below, here, above in _neighbours(qp_number, n_max))
    return compare("qp-number-recurrence", cases)
