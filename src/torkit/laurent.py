"""Exact sparse Laurent polynomials in one or two named variables.

Exponents are counted in quarter units (a stored count of 2 means the power
1/2), coefficients are arbitrary-precision integers, and the zero polynomial
is the empty term mapping.  The canonical term order is descending
lexicographic on the exponent tuple (first variable's quarters, then the
second's); it fixes printing order, JSON term order, and the leading term
used to normalize the sign of exact square roots.

All values are immutable after construction and every operation is a pure
function of its inputs, so polynomials can be shared freely across threads.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, prod
from typing import Iterable, Iterator, Mapping, Union


class TorkitError(Exception):
    """Base class for every error this library raises on purpose."""


class ContextMismatch(TorkitError):
    """Two operands live in different variable contexts."""


class MissingAssignment(TorkitError):
    """A substitution or evaluation left a context variable unassigned."""


class NegativePowerOfPolynomial(TorkitError):
    """A multi-term polynomial was raised to a negative power."""


class NotAPerfectSquare(TorkitError):
    """The argument of exact_sqrt has no square root with integer coefficients."""


class NonIntegralExponent(TorkitError):
    """An operation needed an integer exponent but met a fractional one."""


class ZeroBase(TorkitError):
    """A variable was evaluated at zero, where negative powers blow up."""


class UnknownVariable(TorkitError):
    """A name does not belong to the variable context in play."""


class ParseError(TorkitError):
    """Malformed polynomial text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_NAME_RE = re.compile(r"[A-Za-z_]\w*\Z")


@dataclass(frozen=True)
class VarContext:
    """An ordered tuple of one or two distinct variable names.

    The context is fixed for the lifetime of any polynomial built in it;
    operations on operands from different contexts raise ContextMismatch.
    """

    names: tuple[str, ...]

    def __post_init__(self):
        if not 1 <= len(self.names) <= 2:
            raise ValueError("a context holds one or two variables")
        if len(set(self.names)) != len(self.names):
            raise ValueError("variable names must be distinct")
        for name in self.names:
            if not _NAME_RE.match(name):
                raise ValueError(f"invalid variable name {name!r}")

    @classmethod
    def of(cls, *names: str) -> VarContext:
        return cls(tuple(names))

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise UnknownVariable(
                f"variable {name!r} is not in context {self.names}"
            ) from None

    def __len__(self) -> int:
        return len(self.names)

    def __iter__(self) -> Iterator[str]:
        return iter(self.names)

    def __contains__(self, name: str) -> bool:
        return name in self.names


@dataclass(frozen=True)
class Monomial:
    """A single term: one exponent per context variable, counted in quarter
    units (2 means the power 1/2), and a nonzero integer coefficient."""

    quarters: tuple[int, ...]
    coeff: int

    def __post_init__(self):
        if self.coeff == 0:
            raise ValueError("monomial coefficient must be nonzero")

    @classmethod
    def from_quarters(cls, quarters: Iterable[int], coeff: int = 1) -> Monomial:
        return cls(tuple(quarters), coeff)

    def total_degree(self) -> Fraction:
        return Fraction(sum(self.quarters), 4)


# Internal term keys are raw quarter-count tuples; tuple comparison is
# exactly the lexicographic order the canonical term order needs.
_Quarters = "tuple[int, ...]"

PolyLike = Union["LaurentPoly", int]


class LaurentPoly:
    """Immutable sparse Laurent polynomial over a fixed variable context.

    Terms map exponent tuples (quarter counts, one per context variable) to
    nonzero integer coefficients; the zero polynomial has no terms.  The
    representation is canonical: equal polynomials have identical term
    mappings.
    """

    __slots__ = ("_context", "_terms")

    def __init__(self, context: VarContext, terms: Mapping | Iterable = ()):
        if not isinstance(context, VarContext):
            raise TypeError("context must be a VarContext")
        arity = len(context)
        items = terms.items() if isinstance(terms, Mapping) else terms
        clean: dict = {}
        get = clean.get
        for exps, coeff in items:
            exps = tuple(exps)
            if len(exps) != arity:
                raise ValueError(
                    f"exponent tuple {exps} does not match context arity {arity}"
                )
            # type(), not isinstance(): bool is an int subclass and is rejected.
            for q in exps:
                if type(q) is not int:
                    raise TypeError("exponent quarters must be integers")
            if type(coeff) is not int:
                raise TypeError("coefficients must be integers")
            if coeff:
                clean[exps] = get(exps, 0) + coeff
        self._context = context
        self._terms = {k: v for k, v in clean.items() if v}

    @classmethod
    def _make(cls, context: VarContext, terms: dict) -> LaurentPoly:
        """Trusted construction for results the kernel computed itself.

        `terms` must be a fresh dict whose keys are int tuples of the
        context's arity and whose values are nonzero ints; it is stored as-is.
        """
        self = object.__new__(cls)
        self._context = context
        self._terms = terms
        return self

    # -- construction helpers ------------------------------------------------

    @classmethod
    def zero(cls, context: VarContext) -> LaurentPoly:
        return cls(context)

    @classmethod
    def one(cls, context: VarContext) -> LaurentPoly:
        return cls.constant(context, 1)

    @classmethod
    def constant(cls, context: VarContext, value: int) -> LaurentPoly:
        return cls(context, {(0,) * len(context): value})

    @classmethod
    def variable(cls, context: VarContext, name: str) -> LaurentPoly:
        exps = [0] * len(context)
        exps[context.index(name)] = 4
        return cls(context, {tuple(exps): 1})

    @classmethod
    def from_monomial(cls, context: VarContext, mono: Monomial) -> LaurentPoly:
        if len(mono.quarters) != len(context):
            raise ContextMismatch(
                f"monomial arity {len(mono.quarters)} does not match context {context.names}"
            )
        return cls(context, {mono.quarters: mono.coeff})

    # -- basic queries --------------------------------------------------------

    @property
    def context(self) -> VarContext:
        return self._context

    @property
    def terms(self) -> dict:
        """A copy of the canonical term mapping (quarters tuple -> coeff)."""
        return dict(self._terms)

    @property
    def num_terms(self) -> int:
        return len(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def coefficient(self, quarters: Iterable[int]) -> int:
        return self._terms.get(tuple(quarters), 0)

    def leading_monomial(self) -> Monomial:
        """The term that is greatest in the canonical (descending lex) order."""
        if not self._terms:
            raise ValueError("the zero polynomial has no leading term")
        key = max(self._terms)
        return Monomial.from_quarters(key, self._terms[key])

    def monomials(self) -> Iterator[Monomial]:
        """Terms in canonical order (descending lex on exponent tuples)."""
        for key in sorted(self._terms, reverse=True):
            yield Monomial.from_quarters(key, self._terms[key])

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if type(other) is int:
            other = LaurentPoly.constant(self._context, other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._context == other._context and self._terms == other._terms

    __hash__ = None  # mutable-looking mapping inside; identity semantics unwanted

    # -- ring operations -------------------------------------------------------

    def _coerce(self, other: PolyLike) -> LaurentPoly:
        if type(other) is int:
            return LaurentPoly.constant(self._context, other)
        if isinstance(other, LaurentPoly):
            if other._context != self._context:
                raise ContextMismatch(
                    f"contexts differ: {self._context.names} vs {other._context.names}"
                )
            return other
        raise TypeError(f"cannot combine LaurentPoly with {type(other).__name__}")

    def __add__(self, other: PolyLike) -> LaurentPoly:
        other = self._coerce(other)
        big, small = self._terms, other._terms
        if len(big) < len(small):
            big, small = small, big
        out = dict(big)
        get = out.get
        for exps, c in small.items():
            total = get(exps, 0) + c
            if total:
                out[exps] = total
            else:
                del out[exps]
        return LaurentPoly._make(self._context, out)

    __radd__ = __add__

    def __neg__(self) -> LaurentPoly:
        return LaurentPoly._make(self._context, {k: -v for k, v in self._terms.items()})

    def __sub__(self, other: PolyLike) -> LaurentPoly:
        return self + (-self._coerce(other))

    def __rsub__(self, other: PolyLike) -> LaurentPoly:
        return (-self) + other

    def __mul__(self, other: PolyLike) -> LaurentPoly:
        """The product, by the cheapest method the operands' shape allows:
        zero, scaling by a single term, Kronecker packing for large dense
        operands, and the pairwise loop otherwise."""
        other = self._coerce(other)
        a, b = self._terms, other._terms
        if len(a) > len(b):
            a, b = b, a
        if not a:
            out = {}
        elif len(a) == 1:
            out = _scale_terms(a, b)
        else:
            out = _kronecker_terms(a, b) if len(a) >= _KRONECKER_MIN_TERMS else None
            if out is None:
                out = _pairwise_terms(a, b)
        return LaurentPoly._make(self._context, out)

    __rmul__ = __mul__

    def __pow__(self, e: int) -> LaurentPoly:
        if not isinstance(e, int):
            return NotImplemented
        if e < 0:
            raise ValueError("negative powers of a general Laurent polynomial are undefined")
        result = LaurentPoly.one(self._context)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    # -- substitution ----------------------------------------------------------

    def _monomial_assignment(self, target: VarContext, name: str, value) -> Monomial:
        mono = _as_monomial(target, value, f"assignment for {name!r}")
        if mono.coeff not in (1, -1):
            raise ValueError(
                f"assignment for {name!r} must have coefficient +1 or -1, got {mono.coeff}"
            )
        return mono

    def substitute_monomial(
        self, target: VarContext, assignments: Mapping[str, object]
    ) -> LaurentPoly:
        """Map every variable to a single +/-1 monomial in the target context.

        Exponents combine in quarter units; a result finer than quarters, or a
        -1 sign raised to a fractional power, raises NonIntegralExponent.
        Assignments may be Monomial values, single-term polynomials, or text
        parsed in the target context.
        """
        maps = []
        for name in self._context:
            if name not in assignments:
                raise MissingAssignment(f"no assignment for variable {name!r}")
            mono = self._monomial_assignment(target, name, assignments[name])
            maps.append((mono.coeff, mono.quarters))
        for name in assignments:
            if name not in self._context:
                raise UnknownVariable(f"assignment for {name!r}, which is not in {self._context.names}")
        out: dict = {}
        for exps, coeff in self._terms.items():
            vec = [0] * len(target)
            c = coeff
            for e, (sign, mexps) in zip(exps, maps):
                if e == 0:
                    continue
                for j, me in enumerate(mexps):
                    num = e * me
                    if num % 4:
                        raise NonIntegralExponent(
                            "substitution would need an exponent finer than quarter units"
                        )
                    vec[j] += num // 4
                if sign < 0:
                    if e % 4:
                        raise NonIntegralExponent(
                            "sign -1 cannot be raised to a fractional power"
                        )
                    if (e // 4) % 2:
                        c = -c
            key = tuple(vec)
            out[key] = out.get(key, 0) + c
        return LaurentPoly._make(target, {k: v for k, v in out.items() if v})

    def substitute_poly(
        self, target: VarContext, assignments: Mapping[str, object]
    ) -> LaurentPoly:
        """Map variables to arbitrary polynomials in the target context.

        A variable assigned a multi-term polynomial (or a monomial whose
        coefficient is not +/-1) must appear with nonnegative integer
        exponents only; single +/-1 monomials may carry any exponent.
        """
        plans = []
        for name in self._context:
            if name not in assignments:
                raise MissingAssignment(f"no assignment for variable {name!r}")
            value = assignments[name]
            if isinstance(value, str):
                value = parse(value, target)
            if isinstance(value, Monomial):
                value = LaurentPoly.from_monomial(target, value)
            if not isinstance(value, LaurentPoly):
                raise TypeError(f"assignment for {name!r} must be a polynomial")
            if value.context != target:
                raise ContextMismatch(
                    f"assignment for {name!r} lives in {value.context.names}, not {target.names}"
                )
            if value.num_terms == 1 and value.leading_monomial().coeff in (1, -1):
                plans.append((name, "mono", value.leading_monomial()))
            else:
                plans.append((name, "poly", value))
        for name in assignments:
            if name not in self._context:
                raise UnknownVariable(f"assignment for {name!r}, which is not in {self._context.names}")
        power_cache: dict = {}

        def poly_power(name: str, g: LaurentPoly, k: int) -> LaurentPoly:
            key = (name, k)
            if key not in power_cache:
                power_cache[key] = g ** k
            return power_cache[key]

        total: dict = {}
        get = total.get
        for exps, coeff in self._terms.items():
            vec = [0] * len(target)
            c = coeff
            factors = []
            for e, (name, kind, data) in zip(exps, plans):
                if e == 0:
                    continue
                if kind == "mono":
                    for j, me in enumerate(data.quarters):
                        num = e * me
                        if num % 4:
                            raise NonIntegralExponent(
                                "substitution would need an exponent finer than quarter units"
                            )
                        vec[j] += num // 4
                    if data.coeff < 0:
                        if e % 4:
                            raise NonIntegralExponent(
                                "sign -1 cannot be raised to a fractional power"
                            )
                        if (e // 4) % 2:
                            c = -c
                else:
                    if e < 0:
                        raise NegativePowerOfPolynomial(
                            f"{name!r} appears with a negative exponent but is assigned a general polynomial"
                        )
                    if e % 4:
                        raise NonIntegralExponent(
                            f"{name!r} appears with a fractional exponent but is assigned a general polynomial"
                        )
                    factors.append(poly_power(name, data, e // 4))
            piece = LaurentPoly._make(target, {tuple(vec): c})
            for f in factors:
                piece = piece * f
            for key, v in piece._terms.items():
                total[key] = get(key, 0) + v
        return LaurentPoly._make(target, {k: v for k, v in total.items() if v})

    # -- evaluation ------------------------------------------------------------

    def eval_rational(self, point: Mapping[str, object]) -> Fraction:
        """Exact value at a rational point; every exponent must be integral."""
        values = []
        for name in self._context:
            if name not in point:
                raise MissingAssignment(f"no value for variable {name!r}")
            v = Fraction(point[name])
            if v == 0:
                raise ZeroBase(f"variable {name!r} evaluated at zero")
            values.append(v)
        for name in point:
            if name not in self._context:
                raise UnknownVariable(f"value given for {name!r}, which is not in {self._context.names}")
        total = Fraction(0)
        for exps, coeff in self._terms.items():
            prod = Fraction(coeff)
            for v, e in zip(values, exps):
                if e % 4:
                    raise NonIntegralExponent(
                        f"exponent {Fraction(e, 4)} is not an integer; clear quarter powers first"
                    )
                prod *= v ** (e // 4)
            total += prod
        return total

    # -- rendering ---------------------------------------------------------------

    def canonical_string(self) -> str:
        """Deterministic text form, terms in canonical (descending lex) order."""
        if not self._terms:
            return "0"
        parts = []
        for key in sorted(self._terms, reverse=True):
            coeff = self._terms[key]
            factors = [
                _render_varpow(name, q)
                for name, q in zip(self._context.names, key)
                if q != 0
            ]
            body = "*".join(factors)
            mag = abs(coeff)
            if body and mag == 1:
                text = body
            elif body:
                text = f"{mag}*{body}"
            else:
                text = str(mag)
            if not parts:
                parts.append(text if coeff > 0 else "-" + text)
            else:
                parts.append((" + " if coeff > 0 else " - ") + text)
        return "".join(parts)

    def __str__(self) -> str:
        return self.canonical_string()

    def __repr__(self) -> str:
        return f"LaurentPoly({self._context.names}, {self.canonical_string()!r})"


# -- multiplication kernels ------------------------------------------------------
#
# Each takes two term dicts of one context, `a` the one with fewer terms, and
# returns a fresh term dict of the product with no zero coefficients.

# Kronecker packing beats the pairwise loop once the smaller operand has this
# many terms.  On the products of the perfbench workloads it loses below 16
# terms, ties from 16 to 23 and at least halves the time from 24; cutoffs of
# 16, 24 and 48 give the same end-to-end times there.
_KRONECKER_MIN_TERMS = 24


def _scale_terms(mono: dict, b: dict) -> dict:
    """b times the single term of mono.  A shift is injective and a product
    of nonzero ints is nonzero, so nothing merges and nothing cancels."""
    ((key, c),) = mono.items()
    if len(key) == 1:
        (x,) = key
        return {(y + x,): v * c for (y,), v in b.items()}
    x0, x1 = key
    return {(y0 + x0, y1 + x1): v * c for (y0, y1), v in b.items()}


def _pairwise_terms(a: dict, b: dict) -> dict:
    """Schoolbook product with the exponent keys unpacked per arity."""
    out: dict = {}
    get = out.get
    if len(next(iter(a))) == 1:
        for (x,), ca in a.items():
            for (y,), cb in b.items():
                k = x + y
                out[k] = get(k, 0) + ca * cb
        return {(k,): v for k, v in out.items() if v}
    for (x0, x1), ca in a.items():
        for (y0, y1), cb in b.items():
            k = (x0 + y0, x1 + y1)
            out[k] = get(k, 0) + ca * cb
    return {k: v for k, v in out.items() if v}


def _kronecker_terms(a: dict, b: dict) -> dict | None:
    """Product by Kronecker substitution (Harvey, J. Symbolic Comput. 44,
    2009), or None when the product's exponent box has more than half as
    many slots as there are term pairs, where the pairwise loop wins.

    Each variable's exponents are shifted to start at 0 and divided by
    their common stride; the product's box, read in row-major order, numbers
    the slots.  Two variables are numbered in the coordinates (x0, x1) or
    (x0, x0 + x1), whichever box is smaller: terms on a few antidiagonals
    ([m]_{q,p}, the powers of z = q^(1/4)p^(-1/4) - q^(-1/4)p^(1/4), the
    generalized Alexander values) fill a thin band of the first box and all
    of the second.  Each operand becomes one int with a slot every 4*h bits,
    wide enough for any product coefficient, and a single big-int multiply
    gives every coefficient at once.  Adding 8 in the top hex digit of every
    slot makes all slots nonnegative, so one hex rendering unpacks them; only
    power-of-two bases are used, so no int/str digit limit applies.
    """
    cols_a, cols_b = [list(col) for col in zip(*a)], [list(col) for col in zip(*b)]
    lows_a, lows_b, strides, spans = _box(cols_a, cols_b)
    sheared = False
    if len(spans) == 2:
        cols_a[1] = [x0 + x1 for x0, x1 in a]
        cols_b[1] = [x0 + x1 for x0, x1 in b]
        alt = _box(cols_a, cols_b)
        if prod(alt[3]) < prod(spans):
            lows_a, lows_b, strides, spans = alt
            a = {(x0, x0 + x1): c for (x0, x1), c in a.items()}
            b = {(x0, x0 + x1): c for (x0, x1), c in b.items()}
            sheared = True
    slots = prod(spans)
    if 2 * slots > len(a) * len(b):
        return None
    bound = max(map(abs, a.values())) * max(map(abs, b.values())) * len(a)
    h = bound.bit_length() // 4 + 1  # hex digits per slot: room for sign and bound
    packed = _pack(a, lows_a, strides, spans, h) * _pack(b, lows_b, strides, spans, h)
    empty = "8" + "0" * (h - 1)
    text = format(packed + int(empty * slots, 16), "x").zfill(slots * h)
    half = 1 << (4 * h - 1)
    out = {}
    top = slots - 1
    if len(spans) == 1:
        lo, (stride,) = lows_a[0] + lows_b[0], strides
        for j in range(slots):
            chunk = text[j * h : (j + 1) * h]
            if chunk != empty:
                out[(lo + (top - j) * stride,)] = int(chunk, 16) - half
        return out
    lo0, lo1 = lows_a[0] + lows_b[0], lows_a[1] + lows_b[1]
    (g0, g1), span1 = strides, spans[1]
    for j in range(slots):
        chunk = text[j * h : (j + 1) * h]
        if chunk != empty:
            k0, k1 = divmod(top - j, span1)
            out[(lo0 + k0 * g0, lo1 + k1 * g1)] = int(chunk, 16) - half
    if sheared:
        return {(x0, d - x0): c for (x0, d), c in out.items()}
    return out


def _box(cols_a: list, cols_b: list) -> tuple[list, list, list, list]:
    """Per coordinate column: each operand's lowest value, the stride common
    to both operands, and the number of slots the product spans."""
    lows_a, lows_b, strides, spans = [], [], [], []
    for xa, xb in zip(cols_a, cols_b):
        lo_a, lo_b = min(xa), min(xb)
        stride = gcd(*[x - lo_a for x in xa], *[y - lo_b for y in xb]) or 1
        lows_a.append(lo_a)
        lows_b.append(lo_b)
        strides.append(stride)
        spans.append((max(xa) - lo_a + max(xb) - lo_b) // stride + 1)
    return lows_a, lows_b, strides, spans


def _pack(terms: dict, lows: list, strides: list, spans: list, h: int) -> int:
    """The operand as one int with h hex digits per slot of the product's box."""
    if len(spans) == 1:
        ((lo,), (g,)) = lows, strides
        index = [(x - lo) // g for (x,) in terms]
    else:
        (lo0, lo1), (g0, g1), span1 = lows, strides, spans[1]
        index = [(x - lo0) // g0 * span1 + (y - lo1) // g1 for x, y in terms]
    n = max(index) + 1
    fmt = f"0{h}x"
    pos = ["0" * h] * n
    neg = pos.copy()
    for i, c in zip(index, terms.values()):
        if c > 0:
            pos[n - 1 - i] = format(c, fmt)
        else:
            neg[n - 1 - i] = format(-c, fmt)
    return int("".join(pos), 16) - int("".join(neg), 16)


def _schoolbook_mul(f: LaurentPoly, g: LaurentPoly) -> LaurentPoly:
    """The plain pairwise product through the validating constructor: the
    oracle every fast path of __mul__ is tested against."""
    out: dict = {}
    for ea, ca in f._terms.items():
        for eb, cb in g._terms.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            out[key] = out.get(key, 0) + ca * cb
    return LaurentPoly(f.context, out)


def _render_varpow(name: str, quarters: int) -> str:
    if quarters == 4:
        return name
    if quarters % 4 == 0:
        e = quarters // 4
        return f"{name}^{e}" if e > 0 else f"{name}^({e})"
    g = gcd(abs(quarters), 4)
    return f"{name}^({quarters // g}/{4 // g})"


def _as_monomial(target: VarContext, value, who: str) -> Monomial:
    if isinstance(value, str):
        value = parse(value, target)
    if isinstance(value, LaurentPoly):
        if value.context != target:
            raise ContextMismatch(
                f"{who} lives in {value.context.names}, not {target.names}"
            )
        if value.num_terms != 1:
            raise ValueError(f"{who} must be a single monomial")
        value = value.leading_monomial()
    if not isinstance(value, Monomial):
        raise TypeError(f"{who} must be a Monomial, single-term polynomial, or text")
    if len(value.quarters) != len(target):
        raise ContextMismatch(
            f"{who} has arity {len(value.quarters)}, context {target.names} needs {len(target)}"
        )
    return value


# -- exact square root -------------------------------------------------------


def exact_sqrt(f: LaurentPoly) -> LaurentPoly:
    """The exact square root g of f with g*g == f, canonical-positive.

    The leading term of g is the term-wise square root of f's leading term;
    the remaining terms come from a long-division-style iteration that
    subtracts the partial square and divides the leading remainder by twice
    the leading root term.  By convention exact_sqrt(0) == 0 even though
    zero has no leading term.

    The stop rule is a proof, not a step budget.  The Newton polytope of g*g
    is twice that of g (Ostrowski), so every exponent of a root lies in half
    of f's exponent bounding box.  Each candidate term is strictly smaller in
    lex order than the one before, so the candidates are distinct points of
    that finite box: a candidate outside it, or an inexact division, proves
    that f is not a perfect square, and otherwise the remainder empties.
    So the step count is bounded by the points of the half box, not by the
    number of terms: a sparse non-square can take one step per exponent.
    """
    if f.is_zero():
        return f
    terms = f._terms
    lead = max(terms)
    lc = terms[lead]
    if lc < 0:
        raise NotAPerfectSquare("leading coefficient is negative")
    root = isqrt(lc)
    if root * root != lc:
        raise NotAPerfectSquare(f"leading coefficient {lc} is not a perfect square")
    if any(q % 2 for q in lead):
        raise NotAPerfectSquare("leading exponent is not twice a quarter count")
    box = [(min(col), max(col)) for col in zip(*terms)]
    g_lead = tuple(q // 2 for q in lead)
    g_terms = {g_lead: root}
    twice = 2 * root

    # Every key below lies in f's box, so the remainder is kept on int keys,
    # which add and compare several times faster than tuples: x0*w + x1, with
    # w wider than the box's second side, is linear and keeps lex order on
    # the box.  In one variable w = 0 and the key is x0.
    lo1, hi1 = box[-1]
    w = hi1 - lo1 + 1 if len(box) == 2 else 0
    remainder = {x[0] * w + x[-1]: c for x, c in terms.items()}
    half = g_lead[0] * w + g_lead[-1]
    del remainder[2 * half]
    g_packed = [(half, root)]
    get = remainder.get

    while remainder:
        rk = max(remainder)
        rc = remainder[rk]
        if w:
            x0 = (rk - lo1) // w
            rx = (x0, rk - x0 * w)
        else:
            rx = (rk,)
        t_exps = tuple(a - b for a, b in zip(rx, g_lead))
        if not all(lo <= 2 * t <= hi for t, (lo, hi) in zip(t_exps, box)):
            raise NotAPerfectSquare("a root term would lie outside half the exponent box")
        if rc % twice:
            raise NotAPerfectSquare("remainder coefficient not divisible by twice the leading root")
        t_coeff = rc // twice
        t_key = rk - half
        # remainder -= 2 * g * t + t^2, with g not yet containing t
        step = 2 * t_coeff
        for gk, gc in g_packed:
            key = gk + t_key
            left = get(key, 0) - gc * step
            if left:
                remainder[key] = left
            else:
                del remainder[key]
        key = 2 * t_key
        left = get(key, 0) - t_coeff * t_coeff
        if left:
            remainder[key] = left
        else:
            del remainder[key]
        g_packed.append((t_key, t_coeff))
        g_terms[t_exps] = t_coeff
    return LaurentPoly._make(f.context, g_terms)


# -- parsing ---------------------------------------------------------------


def _tokenize(text: str):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("int", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
            continue
        if ch in "+-*^()/":
            tokens.append((ch, ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, text: str, context: VarContext):
        self.tokens = _tokenize(text)
        self.context = context
        self.idx = 0

    def peek(self):
        return self.tokens[self.idx]

    def advance(self):
        tok = self.tokens[self.idx]
        self.idx += 1
        return tok

    def expect(self, kind: str, what: str):
        tok = self.advance()
        if tok[0] != kind:
            raise ParseError(f"expected {what}", tok[2])
        return tok

    def parse(self) -> LaurentPoly:
        terms: dict = {}
        sign = 1
        tok = self.peek()
        if tok[0] in "+-":
            self.advance()
            sign = -1 if tok[0] == "-" else 1
        while True:
            coeff, exps = self.parse_term()
            terms[exps] = terms.get(exps, 0) + sign * coeff
            tok = self.advance()
            if tok[0] == "end":
                break
            if tok[0] == "+":
                sign = 1
            elif tok[0] == "-":
                sign = -1
            else:
                raise ParseError("expected '+', '-', or end of input", tok[2])
        return LaurentPoly(self.context, terms)

    def parse_term(self):
        tok = self.peek()
        if tok[0] == "int":
            self.advance()
            coeff = int(tok[1])
            if self.peek()[0] == "*":
                self.advance()
                return coeff, self.parse_varpows()
            return coeff, (0,) * len(self.context)
        if tok[0] == "name":
            return 1, self.parse_varpows()
        raise ParseError("expected a term", tok[2])

    def parse_varpows(self):
        exps = [0] * len(self.context)
        while True:
            tok = self.expect("name", "a variable name")
            if tok[1] not in self.context:
                raise UnknownVariable(
                    f"unknown variable {tok[1]!r} at position {tok[2]} (context {self.context.names})"
                )
            idx = self.context.index(tok[1])
            quarters = 4
            if self.peek()[0] == "^":
                self.advance()
                quarters = self.parse_exponent()
            exps[idx] += quarters
            if self.peek()[0] == "*":
                self.advance()
                continue
            return tuple(exps)

    def parse_exponent(self) -> int:
        tok = self.advance()
        if tok[0] == "int":
            return 4 * int(tok[1])
        if tok[0] == "-":
            inner = self.expect("int", "an integer exponent")
            return -4 * int(inner[1])
        if tok[0] == "(":
            sign = 1
            if self.peek()[0] == "-":
                self.advance()
                sign = -1
            num = int(self.expect("int", "an integer numerator")[1])
            den = 1
            if self.peek()[0] == "/":
                self.advance()
                den_tok = self.expect("int", "an exponent denominator")
                den = int(den_tok[1])
                if den not in (2, 4):
                    raise ParseError(
                        "exponent denominator must be 2 or 4 (powers are quarter-integral)",
                        den_tok[2],
                    )
            self.expect(")", "')'")
            return sign * num * (4 // den)
        raise ParseError("expected an exponent", tok[2])


def parse(text: str, context: VarContext) -> LaurentPoly:
    """Parse the grammar emitted by canonical_string.

    Terms may appear in any order and duplicates merge; exponents are plain
    integers (q^3, q^-1) or parenthesized integers and fractions with
    denominator 2 or 4 (q^(-1), q^(3/2)).  parse(canonical_string(f),
    f.context) == f for every polynomial f.
    """
    return _Parser(text, context).parse()


# -- JSON form ----------------------------------------------------------------


def to_json_obj(f: LaurentPoly) -> dict:
    """JSON-ready dict: quarter-count exponents, decimal-string coefficients,
    terms in canonical order."""
    terms = f._terms
    return {
        "vars": list(f.context.names),
        "exp_denominator": 4,
        "terms": [
            {"exp": list(key), "coeff": str(terms[key])}
            for key in sorted(terms, reverse=True)
        ],
    }


_COEFF_RE = re.compile(r"-?[0-9]+")


def from_json_obj(obj: Mapping) -> LaurentPoly:
    """Decode the to_json_obj form strictly: exponents must be JSON integers
    and coefficients plain decimal strings; anything else is a ValueError."""
    if obj.get("exp_denominator") != 4:
        raise ValueError("exp_denominator must be 4")
    context = VarContext(tuple(obj["vars"]))
    terms: dict = {}
    for entry in obj["terms"]:
        key, coeff = tuple(entry["exp"]), entry["coeff"]
        if any(type(q) is not int for q in key):
            raise ValueError(f"exponents must be integer quarter counts, got {entry['exp']!r}")
        if not isinstance(coeff, str) or not _COEFF_RE.fullmatch(coeff):
            raise ValueError(f"coefficient must be a decimal integer string, got {coeff!r}")
        terms[key] = terms.get(key, 0) + int(coeff)
    return LaurentPoly(context, terms)


def to_json(f: LaurentPoly) -> str:
    return json.dumps(to_json_obj(f), separators=(",", ":"))


def from_json(text: str) -> LaurentPoly:
    return from_json_obj(json.loads(text))
