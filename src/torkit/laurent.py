"""Exact sparse Laurent polynomials in one or two named variables.

Exponents are counted in quarter units (a stored count of 2 means the power
1/2), coefficients are arbitrary-precision integers, and the zero polynomial
is the empty term mapping.  The canonical term order is descending
lexicographic on the exponent tuple (first variable's quarters, then the
second's); it fixes printing order, JSON term order, and the leading term
used to normalize the sign of exact square roots.

Polynomials are immutable after construction and every operation is a pure
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


_NAME_RE = re.compile(r"[A-Za-z_]\w*", re.ASCII)


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
            if not _NAME_RE.fullmatch(name):
                raise ValueError(f"invalid variable name {name!r}")

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


PolyLike = Union["LaurentPoly", int]
Assignments = Union[Mapping[str, object], "Substitution"]


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
        if type(e) is not int:  # not isinstance(): bool is an int subclass and is rejected
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

    def substitute_monomial(self, target: VarContext, assignments: Assignments) -> LaurentPoly:
        """Map every variable to a single +/-1 monomial in the target context.

        Exponents combine in quarter units; a result finer than quarters, or a
        -1 sign raised to a fractional power, raises NonIntegralExponent.
        Values are Monomials, polynomials or text in the target context (or a
        compiled Substitution of them), each a +/-1 monomial, else ValueError.
        """
        if not isinstance(assignments, Substitution):
            assignments = Substitution(self._context, target, assignments)
        assignments._require_units()
        return assignments._apply(self, target)

    def substitute_poly(self, target: VarContext, assignments: Assignments) -> LaurentPoly:
        """Map variables to arbitrary polynomials in the target context.

        A variable assigned a multi-term polynomial (or a monomial whose
        coefficient is not +/-1) must appear with nonnegative integer
        exponents only; single +/-1 monomials may carry any exponent.
        """
        if not isinstance(assignments, Substitution):
            assignments = Substitution(self._context, target, assignments)
        return assignments._apply(self, target)

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
        """Deterministic text form, terms in canonical (descending lex) order.

        One pass per arity: each term is written as " + " or " - " and its
        magnitude, and the first term's separator becomes "" or "-" at the end.
        """
        terms = self._terms
        if not terms:
            return "0"
        parts = []
        append = parts.append
        if len(self._context) == 1:
            (name,) = self._context.names
            for key in sorted(terms, reverse=True):
                c = terms[key]
                sep = " + " if c > 0 else " - "
                if c < 0:
                    c = -c
                e = key[0]
                if not e:
                    append(f"{sep}{c if c < _BIG else _decimal(c)}")
                elif c == 1:
                    append(sep + _render_varpow(name, e))
                else:
                    append(f"{sep}{c if c < _BIG else _decimal(c)}*{_render_varpow(name, e)}")
        else:
            # Powers of each variable, built once per distinct exponent; the
            # second variable's carry the "*" that joins them to the first's.
            name0, name1 = self._context.names
            first, second = {}, {}
            for key in sorted(terms, reverse=True):
                c = terms[key]
                sep = " + " if c > 0 else " - "
                if c < 0:
                    c = -c
                e0, e1 = key
                body = ""
                if e0:
                    body = first.get(e0) or first.setdefault(e0, _render_varpow(name0, e0))
                if e1:
                    tail = second.get(e1) or second.setdefault(e1, "*" + _render_varpow(name1, e1))
                    body = body + tail if body else tail[1:]
                if not body:
                    append(f"{sep}{c if c < _BIG else _decimal(c)}")
                elif c == 1:
                    append(sep + body)
                else:
                    append(f"{sep}{c if c < _BIG else _decimal(c)}*{body}")
        lead = parts[0]
        parts[0] = lead[3:] if lead[1] == "+" else "-" + lead[3:]
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
        e = _decimal(quarters // 4)
        return f"{name}^{e}" if quarters > 0 else f"{name}^({e})"
    g = gcd(quarters, 4)
    return f"{name}^({_decimal(quarters // g)}/{4 // g})"


# -- compiled substitution ---------------------------------------------------


class Substitution:
    """Values in `target` for the variables of `source`, parsed and checked
    once, for substitute_poly or substitute_monomial in place of a mapping.
    A variable assigned a +/-1 monomial (a "mono" plan) takes any exponent;
    one assigned anything else (a "poly" plan) takes whole exponents >= 0,
    and each power of it is built once and kept, finished, for the object's life.
    substitute_monomial takes mono plans only.  A mapping passed instead is
    compiled to one of these first, so both forms raise the same errors.
    """

    __slots__ = ("source", "target", "_plans")

    def __init__(self, source: VarContext, target: VarContext, assignments: Mapping[str, object]):
        self.source, self.target = source, target
        # Per variable (name, sign, shifts, powers); a mono plan has powers None.
        self._plans = []
        for name in source:
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
            ((key, sign),) = value._terms.items() if value.num_terms == 1 else (((), 0),)
            if sign in (1, -1):
                self._plans.append((name, sign, tuple((j, q) for j, q in enumerate(key) if q), None))
            else:
                self._plans.append((name, None, None, {1: value, 2: value * value}))
        for name in assignments:
            if name not in source:
                raise UnknownVariable(f"assignment for {name!r}, which is not in {source.names}")

    def _require_units(self) -> None:
        """Raise ValueError unless every variable has a mono plan."""
        for name, _, _, powers in self._plans:
            if powers is not None:
                who, coeffs = f"assignment for {name!r}", list(powers[1]._terms.values())
                if len(coeffs) != 1:
                    raise ValueError(f"{who} must be a single monomial")
                raise ValueError(f"{who} must have coefficient +1 or -1, got {_decimal(coeffs[0])}")

    def _apply(self, f: LaurentPoly, target: VarContext) -> LaurentPoly:
        """f with each term's mono shifts applied and its poly powers scaled into one sum."""
        if (f.context, target) != (self.source, self.target):
            raise ContextMismatch(
                f"substitution maps {self.source.names} to {self.target.names}, "
                f"not {f.context.names} to {target.names}"
            )
        plans, width = self._plans, len(target)
        total: dict = {}
        get = total.get
        for exps, c in f._terms.items():
            vec = [0] * width
            power = None
            for e, (name, sign, shifts, powers) in zip(exps, plans):
                if e == 0:
                    continue
                if powers is None:
                    for j, me in shifts:
                        num = e * me
                        if num % 4:
                            raise NonIntegralExponent(
                                "substitution would need an exponent finer than quarter units"
                            )
                        vec[j] += num // 4
                    if sign < 0:
                        if e % 4:
                            raise NonIntegralExponent("sign -1 cannot be raised to a fractional power")
                        if (e // 4) % 2:
                            c = -c
                    continue
                if e < 0:
                    raise NegativePowerOfPolynomial(
                        f"{name!r} appears with a negative exponent but is assigned a general polynomial"
                    )
                if e % 4:
                    raise NonIntegralExponent(
                        f"{name!r} appears with a fractional exponent but is assigned a general polynomial"
                    )
                g = _power(powers, e // 4)
                power = g if power is None else power * g
            if power is None:
                key = tuple(vec)
                total[key] = get(key, 0) + c
            elif width == 1:
                (s,) = vec
                for (y,), v in power._terms.items():
                    key = (y + s,)
                    total[key] = get(key, 0) + c * v
            else:
                s0, s1 = vec
                for (y0, y1), v in power._terms.items():
                    key = (y0 + s0, y1 + s1)
                    total[key] = get(key, 0) + c * v
        return LaurentPoly._make(target, {k: v for k, v in total.items() if v})


def _power(powers: dict, k: int) -> LaurentPoly:
    """g^k, k >= 1, from a table holding g and g^2.  A missing power is built
    from the nearest one of k's parity by steps of g^2, each kept."""
    j = k
    while j not in powers:
        j -= 2
    for j in range(j, k, 2):
        powers[j + 2] = powers[j] * powers[2]
    return powers[k]


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
    A second bound caps the root: on the unit torus Parseval and Cauchy-Schwarz
    give sum g_i^2 <= ||f||_2, so each step spends its coefficient's square
    from isqrt(sum c^2), and the step count is the smaller of the two bounds.
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
        raise NotAPerfectSquare(f"leading coefficient {_decimal(lc)} is not a perfect square")
    if any(q % 2 for q in lead):
        raise NotAPerfectSquare("leading exponent is not twice a quarter count")
    box = [(min(col), max(col)) for col in zip(*terms)]
    g_lead = tuple(q // 2 for q in lead)
    g_terms = {g_lead: root}
    twice = 2 * root
    budget = isqrt(sum(c * c for c in terms.values())) - lc

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
        budget -= t_coeff * t_coeff
        if budget < 0:
            raise NotAPerfectSquare("root coefficients would pass the norm bound isqrt(sum c^2)")
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

# Polynomial text is ASCII; whitespace may separate tokens but never splits one.
_WS = r"[ \t\n\r\f\v]*"
_BAD_CHAR_RE = re.compile(r"[^ \t\n\r\f\v0-9A-Za-z_+*^()/-]")
_SIGN_RE = re.compile(rf"{_WS}([+-]?){_WS}")
_COEFF_RE = re.compile(rf"([0-9]+){_WS}(\*{_WS})?")
# Groups: name, "(", "-", numerator, denominator, "*".
_FACTOR_RE = re.compile(
    rf"({_NAME_RE.pattern}){_WS}"
    rf"(?:\^{_WS}(\()?{_WS}(-?){_WS}([0-9]+){_WS}(?(2)(?:/{_WS}([0-9]+){_WS})?\){_WS}))?"
    rf"(\*{_WS})?",
    re.ASCII,
)


def parse(text: str, context: VarContext) -> LaurentPoly:
    """Parse the grammar emitted by canonical_string.

    Terms may appear in any order and duplicates merge; a term is a
    coefficient, `*`-joined variable powers, or a coefficient `*` powers.
    Exponents are plain integers (q^3, q^-1) or parenthesized integers and
    fractions with denominator 2 or 4 (q^(-1), q^(3/2)); a malformed
    exponent is reported at its `^`.  Only ASCII is accepted, whitespace
    being space, tab, newline, return, form feed and vertical tab.
    parse(canonical_string(f), f.context) == f for every polynomial f.
    """
    if not isinstance(context, VarContext):
        raise TypeError("context must be a VarContext")
    bad = _BAD_CHAR_RE.search(text)
    if bad:
        raise ParseError(f"unexpected character {bad[0]!r}", bad.start())
    names, end, terms = context.names, len(text), {}
    sign = _SIGN_RE.match(text)
    while True:
        pos, coeff, more = sign.end(), 1, True
        if m := _COEFF_RE.match(text, pos):
            pos, digits, more = m.end(), m[1], m[2]
            coeff = int(digits) if len(digits) <= _DIGITS else _digits_int(digits)
        exps = [0] * len(names)
        while more:
            if not (m := _FACTOR_RE.match(text, pos)):
                raise ParseError("expected a term" if pos == sign.end() else "expected a variable name", pos)
            name, _, minus, num, den, more = m.groups()
            if name not in names:
                raise UnknownVariable(f"unknown variable {name!r} at position {pos} (context {names})")
            quarters = 4 if num is None else 4 * (int(num) if len(num) <= _DIGITS else _digits_int(num))
            if den is not None:
                den = den.lstrip("0")  # a denominator of any length is read without int()
                if den not in ("2", "4"):
                    raise ParseError(
                        "exponent denominator must be 2 or 4 (powers are quarter-integral)", m.start(5)
                    )
                quarters //= int(den)
            exps[names.index(name)] += -quarters if minus else quarters
            pos = m.end()
            if text.startswith("^", pos) and not more:
                raise ParseError("malformed exponent", pos)
        key = tuple(exps)
        terms[key] = terms.get(key, 0) + (-coeff if sign[1] == "-" else coeff)
        if pos == end:
            return LaurentPoly._make(context, {k: v for k, v in terms.items() if v})
        sign = _SIGN_RE.match(text, pos)
        if not sign[1]:
            raise ParseError("expected '+', '-', or end of input", pos)


# -- JSON form ----------------------------------------------------------------


def to_json_obj(f: LaurentPoly) -> dict:
    """JSON-ready dict: quarter-count exponents, decimal-string coefficients,
    terms in canonical order."""
    terms = f._terms
    return {
        "vars": list(f.context.names),
        "exp_denominator": 4,
        "terms": [
            {"exp": list(key), "coeff": str(c) if -_BIG < (c := terms[key]) < _BIG else _decimal(c)}
            for key in sorted(terms, reverse=True)
        ],
    }


# The one decimal-integer rule for outside input: JSON coefficients and CLI
# integers.  int() alone would also take "+5", " 5 ", "1_000" and "\u0663".
_DECIMAL_RE = re.compile(r"-?[0-9]+")
# CPython >= 3.11 refuses str() and int() past 4300 digits by default, and a
# process may lower that global limit to 640.  Past _DIGITS digits (_BIG),
# _digits_int and _decimal convert in chunks of _DIGITS, within any limit.
_DIGITS = 600
_BIG = 10**_DIGITS


def decimal_int(text: str) -> int:
    """`text` as an int if it is an optional '-' and ASCII digits, else ValueError."""
    if not (isinstance(text, str) and _DECIMAL_RE.fullmatch(text)):
        raise ValueError(f"expected a decimal integer string, got {_shown(text)}")
    return _digits_int(text)


def _digits_int(text: str) -> int:
    """int(text) for text already known to be an optional '-' and ASCII
    digits (a JSON integer, a matched token), of any length."""
    if len(text) <= _DIGITS:
        return int(text)
    n, digits = 0, text.lstrip("-")
    for i in range(0, len(digits), _DIGITS):
        chunk = digits[i : i + _DIGITS]
        n = n * 10 ** len(chunk) + int(chunk)
    return -n if text[0] == "-" else n


def _decimal(n: int) -> str:
    """str(n) for an int of any size."""
    if -_BIG < n < _BIG:
        return str(n)
    sign, n, chunks = "-" * (n < 0), abs(n), []
    while n >= _BIG:
        n, low = divmod(n, _BIG)
        chunks.append(f"{low:0{_DIGITS}d}")
    return sign + str(n) + "".join(reversed(chunks))


_SHOWN_CHARS = 80


def _shown(value) -> str:
    """repr(value) for a rejected outside value, cut to its first
    _SHOWN_CHARS characters and its length when longer, or its type name when
    it holds an int past the int/str digit limit, where repr raises."""
    try:
        text = repr(value)
    except ValueError:
        return f"<{type(value).__name__} too long to print>"
    if len(text) <= _SHOWN_CHARS:
        return text
    return f"{text[:_SHOWN_CHARS]}... ({len(text)} characters)"


def from_json_obj(obj: dict) -> LaurentPoly:
    """Decode the to_json_obj form strictly: vars a list of names,
    exp_denominator the integer 4, terms a list of objects whose exponents are
    JSON integers, one per variable, and whose coefficients are decimal
    strings; anything else is a ValueError."""
    if not isinstance(obj, dict):
        raise ValueError("a polynomial is a JSON object")
    names, entries, den = obj.get("vars"), obj.get("terms"), obj.get("exp_denominator")
    if type(den) is not int or den != 4:
        raise ValueError(f"exp_denominator must be the integer 4, got {_shown(den)}")
    if not isinstance(names, list) or not all(isinstance(name, str) for name in names):
        raise ValueError(f"vars must be a list of variable names, got {_shown(names)}")
    if not isinstance(entries, list):
        raise ValueError("terms must be a list of objects")
    context = VarContext(tuple(names))
    terms: dict = {}
    for entry in entries:
        if not isinstance(entry, dict):
            raise ValueError(f"terms must be a list of objects, got an entry {_shown(entry)}")
        exps = entry.get("exp")
        if not isinstance(exps, list) or len(exps) != len(names) or any(type(q) is not int for q in exps):
            raise ValueError(f"exp must be {len(names)} integer quarter counts, got {_shown(exps)}")
        key = tuple(exps)
        terms[key] = terms.get(key, 0) + decimal_int(entry.get("coeff"))
    return LaurentPoly._make(context, {k: v for k, v in terms.items() if v})


def to_json(f: LaurentPoly) -> str:
    """The compact JSON text of to_json_obj(f), written in one pass with one
    %-format per term: byte-identical to
    json.dumps(to_json_obj(f), separators=(",", ":")), for exponents and
    coefficients of any size."""
    terms = f._terms
    out = []
    append = out.append
    if len(f._context) == 1:
        for key in sorted(terms, reverse=True):
            c = terms[key]
            e = key[0]
            append(
                '{"exp":[%s],"coeff":"%s"}'
                % (e if -_BIG < e < _BIG else _decimal(e), c if -_BIG < c < _BIG else _decimal(c))
            )
    else:
        for key in sorted(terms, reverse=True):
            c = terms[key]
            e0, e1 = key
            append(
                '{"exp":[%s,%s],"coeff":"%s"}'
                % (
                    e0 if -_BIG < e0 < _BIG else _decimal(e0),
                    e1 if -_BIG < e1 < _BIG else _decimal(e1),
                    c if -_BIG < c < _BIG else _decimal(c),
                )
            )
    # Variable names are ASCII word characters, which JSON writes as they are.
    return '{"vars":["%s"],"exp_denominator":4,"terms":[%s]}' % ('","'.join(f._context.names), ",".join(out))


def from_json(text: str) -> LaurentPoly:
    # The default int parser stays in C; only an integer past the int/str
    # digit limit, which it refuses, makes the decode fall back to
    # _digits_int, called once per integer.
    try:
        obj = json.loads(text)
    except json.JSONDecodeError:
        raise
    except ValueError:
        obj = json.loads(text, parse_int=_digits_int)
    return from_json_obj(obj)
