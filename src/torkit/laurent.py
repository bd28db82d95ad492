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

import re
import sys
from array import array
from collections.abc import Iterable, Iterator, Mapping
from heapq import heapify, heappop, heappush
from itertools import chain, compress, count, repeat
from math import gcd, isqrt, prod
from operator import add, itemgetter


class TorkitError(Exception):
    """Base class for every error this library raises on purpose."""


class ContextMismatch(TorkitError):
    """Two operands live in different variable contexts."""


class MissingAssignment(TorkitError):
    """A substitution left a context variable unassigned."""


class NegativePowerOfPolynomial(TorkitError):
    """A multi-term polynomial was raised to a negative power."""


class NotAPerfectSquare(TorkitError):
    """The argument of exact_sqrt has no square root with integer coefficients."""


class NonIntegralExponent(TorkitError):
    """An operation needed an integer exponent but met a fractional one."""


class UnknownVariable(TorkitError):
    """A name does not belong to the variable context in play."""


class ParseError(TorkitError):
    """Malformed polynomial text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class _Frozen:
    """Base of the library's immutable records.

    A record's fields are its class's __slots__, in order.  Its __init__
    checks the arguments and passes them here, in that order, to be set
    once.  Records compare and hash by their fields, but only within one
    class; they print as `Name(field=value, ...)`, pickle and copy by
    calling __init__ again, and refuse assignment and deletion.
    """

    __slots__ = ()

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def replace(self, **changes) -> _Frozen:
        """A copy with the named fields changed, checked as a new record is."""
        return self.__class__(**{name: getattr(self, name) for name in self.__slots__} | changes)

    def __setattr__(self, name: str, value: object):
        raise AttributeError(f"cannot assign to field {name!r} of a frozen {type(self).__name__}")

    def __delattr__(self, name: str):
        raise AttributeError(f"cannot delete field {name!r} of a frozen {type(self).__name__}")

    def __eq__(self, other) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, self._values()


_NAME_RE = re.compile(r"[A-Za-z_]\w*", re.ASCII)


class VarContext(_Frozen):
    """An ordered tuple of one or two distinct variable names.

    The context is fixed for the lifetime of any polynomial built in it;
    operations on operands from different contexts raise ContextMismatch.
    """

    __slots__ = ("names",)

    def __init__(self, names: tuple[str, ...]):
        # A str or list would pass the checks below but compare and hash
        # unlike the tuple of the same names.
        if not isinstance(names, tuple) or not all(isinstance(name, str) for name in names):
            raise TypeError(f"variable names must be a tuple of str, got {names!r}")
        if not 1 <= len(names) <= 2:
            raise ValueError("a context holds one or two variables")
        if len(set(names)) != len(names):
            raise ValueError("variable names must be distinct")
        for name in names:
            if not _NAME_RE.fullmatch(name):
                raise ValueError(f"invalid variable name {name!r}")
        super().__init__(names)

    def __len__(self) -> int:
        return len(self.names)


# The operand and assignment types that the annotations below name.
PolyLike = "LaurentPoly | int"
Assignments = "Mapping[str, object] | Substitution"


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

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if type(other) is int:
            other = LaurentPoly.constant(self._context, other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        # The identity test first: nearly every comparison is of one context with itself.
        return (self._context is other._context or self._context == other._context) and self._terms == other._terms

    __hash__ = None  # mutable-looking mapping inside; identity semantics unwanted

    # -- ring operations -------------------------------------------------------

    def _coerce(self, other: PolyLike) -> LaurentPoly:
        if type(other) is int:
            return LaurentPoly.constant(self._context, other)
        if isinstance(other, LaurentPoly):
            if other._context is not self._context and other._context != self._context:
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
        """The e-th power. e < 0 inverts a single +/-1 term (a unit); anything else raises ValueError."""
        if type(e) is not int:  # not isinstance(): bool is an int subclass and is rejected
            return NotImplemented
        if e < 0:
            ((key, sign),) = self._terms.items() if len(self._terms) == 1 else (((), 0),)
            if sign not in (1, -1):
                raise ValueError("only +/-1 terms invert exactly")
            return LaurentPoly._make(self._context, {tuple(e * q for q in key): sign ** (e % 2)})
        result, base = None, self
        while e:
            if e & 1:
                result = base if result is None else result * base
            base = base * base if e > 1 else base
            e >>= 1
        return LaurentPoly.one(self._context) if result is None else result

    # -- substitution ----------------------------------------------------------

    def substitute_monomial(self, target: VarContext, assignments: Assignments) -> LaurentPoly:
        """Map every variable to a single +/-1 monomial in the target context.

        Exponents combine in quarter units; a result finer than quarters, or a
        -1 sign raised to a fractional power, raises NonIntegralExponent.
        Values are polynomials or text in the target context (or a compiled
        Substitution of them), each a single term with coefficient +/-1, else
        ValueError.
        """
        if not isinstance(assignments, Substitution):
            assignments = Substitution(self._context, target, assignments)
        if assignments._not_units:
            raise ValueError(assignments._not_units)
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

    # -- rendering ---------------------------------------------------------------

    def canonical_string(self) -> str:
        """Deterministic text form, terms in canonical (descending lex) order."""
        # A one-variable polynomial repeats no exponent: alone, it keeps no memo.
        return _text(self, None if len(self._context) == 1 else {}, {})

    def __str__(self) -> str:
        return self.canonical_string()

    def __repr__(self) -> str:
        return f"LaurentPoly({self._context.names}, {self.canonical_string()!r})"


def _steps(c1: LaurentPoly, c2: LaurentPoly, first: LaurentPoly, second: LaurentPoly) -> Iterator[LaurentPoly]:
    """first, second, then P(n+1) = c1 P(n) + c2 P(n-1) for each later entry,
    holding only the two entries the next step reads: the one recurrence stepper.

    While cur has fewer than _PACKED_MIN_TERMS terms a step is one _linear
    call.  From there on _packed_steps makes each entry on one
    Kronecker-packed int, until a step would need slots wider than 64 bits
    (HOMFLY's knot step from n = 97) or more than _PACKED_SLOTS_PER_TERM
    slots per term of cur; it stops at once when c1, c2, prev or cur is zero
    or c1's terms share neither coordinate.  _linear takes the rest.
    """
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


def _linear(c1: LaurentPoly, x: LaurentPoly, c2: LaurentPoly, y: LaurentPoly) -> LaurentPoly:
    """c1*x + c2*y in one dict.

    The first term of c1 gives a shifted, scaled copy of x's terms; every
    other term of c1 (on x) and of c2 (on y) is added into that dict by
    _add_scaled, which deletes each key whose coefficient cancels.  No input
    is mutated.  x, c2 and y must share c1's context (ContextMismatch otherwise).
    """
    x, c2, y = c1._coerce(x), c1._coerce(c2), c1._coerce(y)
    copies = [(key, c, x._terms) for key, c in c1._terms.items()]
    copies += [(key, c, y._terms) for key, c in c2._terms.items()]
    if not copies:
        return LaurentPoly._make(c1._context, {})
    (key, c, terms), *rest = copies
    return LaurentPoly._make(c1._context, _add_scaled(_scale_terms({key: c}, terms), rest))


def _packed_steps(c1: LaurentPoly, c2: LaurentPoly, prev: LaurentPoly, cur: LaurentPoly) -> Iterator[LaurentPoly]:
    """The entries after cur, each on one Kronecker-packed int, for as long
    as _steps' hand-back rules allow.

    Layout: keys are _points whose row is the coordinate c1's terms share,
    x0 or else x0 + x1, each coordinate divided by its gcd over c1, c2,
    prev and cur.  An entry is packed on its hull [r0, r1] x [k0, k1]: the
    term at (r, k) is slot (r - r0) * cols + k - k0 of _pack and _unpack.
    A term (dr, dk, c) of c1 or c2 adds c times its input shifted from the
    input's hull, moved by (dr, dk), to the output's, the union of the
    moved hulls.  In one variable the keys _unpack reads are kept from step
    to step.

    Bounds, checked every step.  Width: every output coefficient is at most
    ||c1||_1 max|cur| + ||c2||_1 max|prev| (each max the bound that made the
    entry, or its terms' own when that is too wide), which must fit a
    signed slot.  Span: no copy wraps into the next row while the output's
    hull spans at most cols columns or one row.  When either fails, both
    inputs are re-packed from their terms, at the _width that holds the
    bound (8, 16, 32 or 64 bits) or at twice the span.
    """
    cur, c2, prev = c1._coerce(cur), c1._coerce(c2), c1._coerce(prev)
    if not (c1._terms and c2._terms and prev._terms and cur._terms):
        return
    flip = len({r for r, _ in _points(c1._terms)}) > 1  # no shared x0: rows run along x0 + x1
    if flip and len({r for r, _ in _points(c1._terms, flip)}) > 1:
        return
    context, polys = c1._context, [f._terms for f in (c1, c2, prev, cur)]
    unscaled = [_points(terms, flip) for terms in polys]
    strides = [gcd(*col) or 1 for col in zip(*chain(*unscaled))]
    gr, gk = strides
    cuts = [[(r // gr, k // gk) for r, k in points] for points in unscaled]

    def hull(points: list) -> tuple:
        rows, columns = zip(*points)
        return min(rows), min(columns), max(rows), max(columns)

    def pack(terms: dict, box: tuple) -> int:
        return _pack(_points(terms, flip), terms.values(), (box[0] * gr, box[1] * gk), strides, cols, width)

    moves = [[(*p, c) for p, c in zip(points, terms.values())] for points, terms in zip(cuts, polys[:2])]
    reach = [hull(points) for points in cuts[:2]]  # each of c1 and c2 moves a hull by this much
    norms = [sum(map(abs, terms.values())) for terms in polys[:2]]
    # Per entry, old (prev) then new (cur): [terms, hull, a bound on max |c|, packed].
    entries = [[terms, hull(p), max(map(abs, terms.values())), 0] for terms, p in zip(polys[2:], cuts[2:])]
    width, cols, known, low = 0, 2 * max(e[1][3] - e[1][1] + 1 for e in entries), [], 0
    while True:
        old, new = entries
        a, b = [*map(add, new[1], reach[0])], [*map(add, old[1], reach[1])]
        r0, k0, r1, k1 = box = min(a[0], b[0]), min(a[1], b[1]), max(a[2], b[2]), max(a[3], b[3])
        bound = norms[0] * new[2] + norms[1] * old[2]
        if bound.bit_length() >= width:  # tighten the inherited bounds to the entries' own maxima
            old[2], new[2] = (max(map(abs, e[0].values()), default=0) for e in entries)
            bound = norms[0] * new[2] + norms[1] * old[2]
        if bound.bit_length() >= width or (r1 > r0 and k1 - k0 >= cols):
            if bound.bit_length() >= 64:
                return
            width = max(width, _width(bound))
            cols = max(cols, 2 * (k1 - k0 + 1))
            old[3], new[3] = pack(old[0], old[1]), pack(new[0], new[1])
        n = (r1 - r0) * cols + k1 - k0 + 1
        if n > _PACKED_SLOTS_PER_TERM * len(new[0]):
            return
        packed = 0
        for e, terms in zip((new, old), moves):
            at = (e[1][0] - r0) * cols + e[1][1] - k0
            for dr, dk, c in terms:
                part = e[3] << width * (at + dr * cols + dk)
                packed += part if c == 1 else -part if c == -1 else c * part
        keys = None
        if len(context) == 1:  # one row, whose keys are kept from step to step
            if k0 < low or k1 >= low + len(known):
                low = 2 * k0 - k1
                known = list(zip(range(low * gk, (2 * k1 - k0 + 1) * gk, gk)))
            keys = known[k0 - low : k1 - low + 1]
        # A hull of one row may be wider than cols: no other row shares its slots.
        row = max(cols, k1 - k0 + 1)
        terms = _unpack(packed, width, n, (r0 * gr, k0 * gk), strides, row, len(context), flip, keys)
        entries = [new, [terms, box, bound, packed]]
        yield LaurentPoly._make(context, terms)


# -- multiplication kernels ------------------------------------------------------
#
# Each takes two term dicts of one context, `a` the one with fewer terms, and
# returns a fresh term dict of the product with no zero coefficients.
# _add_scaled, the one loop that adds shifted, scaled copies into a dict, deletes
# each key whose coefficient cancels; _linear, _pairwise_terms, _apply and _horner use it.

# Kronecker packing beats the pairwise loop once the smaller operand has this
# many terms.  On the products of the perfbench workloads it loses below 16
# terms, ties from 16 to 23 and at least halves the time from 24; cutoffs of
# 16, 24 and 48 give the same end-to-end times there.
_KRONECKER_MIN_TERMS = 24

# exact_sqrt packs its argument when each slot of the packed square is at most
# this many bits wide.  CPython's isqrt divides in quadratic time, so past some
# width the heap loop wins.  Roots of p*p for the torus values, plain and
# scaled by 2^k, n = 25 to 1001: packing won or tied at every width up to 144
# bits (HOMFLY 1.2x at 84 bits, alexander 4x at 144 bits and n = 1001), and
# lost from 168 bits for HOMFLY and from 200 for generalized Alexander; one
# variable breaks even near 270 bits.
_PACKED_SQRT_MAX_BITS = 128

# _steps packs the recurrence once an entry has this many terms;
# packing costs about five _linear steps, which a sequence that ends soon
# after does not win back.  Whole `verify --n-max 21 / 41 / 61` runs took
# 1.00 / 1.00 / 0.93 of the time of _linear alone from 24 terms, and
# 1.12 / 0.98 / 0.92 from 16.
_PACKED_MIN_TERMS = 24
_PACKED_SLOTS_PER_TERM = 8
# Signed array typecodes by slot width in bits, and the byte order _pack and _unpack meet.
_SIGNED = {8 * array(code).itemsize: code for code in "qlihb"}
_BIG_ENDIAN = sys.byteorder == "big"


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
    return _add_scaled(out, [(key, ca, b) for key, ca in a.items()])


def _add_scaled(out: dict, copies: Iterable) -> dict:
    """out, with c * x^shift * terms added for each (shift, c, terms) of
    copies (c and terms nonzero); each key whose coefficient cancels is deleted."""
    get = out.get
    for shift, c, terms in copies:
        if len(shift) == 1:
            (s,) = shift
            for (e,), v in terms.items():
                k = (e + s,)
                v = get(k, 0) + v * c
                if v:
                    out[k] = v
                else:
                    del out[k]
        else:
            s0, s1 = shift
            for (e0, e1), v in terms.items():
                k = (e0 + s0, e1 + s1)
                v = get(k, 0) + v * c
                if v:
                    out[k] = v
                else:
                    del out[k]
    return out


def _kronecker_terms(a: dict, b: dict) -> dict | None:
    """Product by Kronecker substitution (Harvey, J. Symbolic Comput. 44,
    2009), or None when the product's exponent box has more than half as
    many slots as there are term pairs, where the pairwise loop wins.

    Each coordinate of the _points numbering is shifted to start at 0 and
    divided by its common stride; the product's box, read in row-major
    order, numbers the slots.  Two variables are numbered in the
    coordinates (x0, x0 + x1): terms on a few antidiagonals ([m]_{q,p}, the
    powers of z = q^(1/4)p^(-1/4) - q^(-1/4)p^(1/4), the generalized
    Alexander values) fill all of that box, and HOMFLY values fill it as
    fully as the plain (x0, x1) box.  Dense square operands, which no
    library caller makes, get twice the slots of the plain box there, or
    the pairwise loop.  Each operand becomes one int by _pack, with signed
    slots of the _width that holds any product coefficient, and a single
    big-int multiply gives every coefficient at once, read back by _unpack.
    """
    points_a, points_b = _points(a), _points(b)
    (lows_a, lows_b), strides, spans = _box(points_a, points_b)
    slots = prod(spans)
    if 2 * slots > len(a) * len(b):
        return None
    width = _width(max(map(abs, a.values())) * max(map(abs, b.values())) * len(a))
    packed = _pack(points_a, a.values(), lows_a, strides, spans[1], width)
    packed *= _pack(points_b, b.values(), lows_b, strides, spans[1], width)
    corner = [x + y for x, y in zip(lows_a, lows_b)]
    return _unpack(packed, width, slots, corner, strides, spans[1], len(next(iter(a))))


def _points(terms: Iterable, flip: bool = False) -> list:
    """Each exponent key of terms as the point (row, column) that the packed
    kernels number slots by: (0, x0) in one variable, and in two (x0, x0 + x1),
    or (x0 + x1, x0) when flip.  _unpack inverts it."""
    if len(next(iter(terms))) == 1:
        return [(0, x0) for (x0,) in terms]
    if flip:
        return [(x0 + x1, x0) for x0, x1 in terms]
    return [(x0, x0 + x1) for x0, x1 in terms]


def _width(bound: int) -> int:
    """The bits of a signed slot that holds every int of size at most bound:
    8, 16, 32 or 64, which array reads in C, and whole bytes past 64."""
    bits = bound.bit_length()
    return max(8, 1 << bits.bit_length()) if bits < 64 else 8 * (bits // 8 + 1)


def _box(*operands: list) -> tuple[list, list, list]:
    """Each operand is a list of points.  Per operand, its lowest row and
    column; per coordinate, the stride common to all operands and the
    number of slots their product spans."""
    columns = [list(zip(*points)) for points in operands]
    lows = [[min(col) for col in cols] for cols in columns]
    strides, spans = [], []
    for j, cols in enumerate(zip(*columns)):
        steps = [x - low[j] for col, low in zip(cols, lows) for x in col]
        stride = gcd(*steps) or 1
        strides.append(stride)
        spans.append(sum(max(col) - low[j] for col, low in zip(cols, lows)) // stride + 1)
    return lows, strides, spans


def _pack(points: list, coeffs: Iterable, corner: list, strides: list, row: int, width: int) -> int:
    """The coefficients at the points as one int of signed `width`-bit
    slots: the point (r, k) is slot (r - r0) // gr * row + (k - k0) // gk
    for the corner (r0, k0) and the strides (gr, gk).  The slots are
    written in two's complement; xoring the top bit of every slot, then
    subtracting those bits, turns their bytes into the signed sum."""
    (r0, k0), (gr, gk) = corner, strides
    index = [(r - r0) // gr * row + (k - k0) // gk for r, k in points]
    size, n = width // 8, max(index) + 1
    if width <= 64:
        data = array(_SIGNED[width], bytes(size * n))
        for i, c in zip(index, coeffs):
            data[i] = c
        if _BIG_ENDIAN:
            data.byteswap()
    else:
        data = bytearray(size * n)
        for i, c in zip(index, coeffs):
            data[i * size : i * size + size] = c.to_bytes(size, "little", signed=True)
    top = int.from_bytes((bytes(size - 1) + b"\x80") * n, "little")
    return (int.from_bytes(data, "little") ^ top) - top


def _unpack(
    packed: int, width: int, n: int, corner: list, strides: list, row: int, arity: int, flip: bool = False, keys=None
) -> dict:
    """The terms of `packed`, read as n signed `width`-bit slots laid out as
    _pack lays them, rows `row` slots long, and keyed by inverting _points
    in `arity` variables (flipped or not).  `keys`, if given, are the keys
    of the slots in order instead.  `packed` must lie within the slots'
    signed range.  Adding and xoring the top bit of every slot leaves each
    in two's complement, read through int.to_bytes: up to 64 bits as an
    array of signed ints, wider slot by slot; zero slots are dropped in C."""
    size = width // 8
    top = int.from_bytes((bytes(size - 1) + b"\x80") * n, "little")
    data = ((packed + top) ^ top).to_bytes(size * n, "little")
    if width <= 64:
        slots = array(_SIGNED[width], data)
        if _BIG_ENDIAN:
            slots.byteswap()
    else:
        slots = [int.from_bytes(data[i : i + size], "little", signed=True) for i in range(0, size * n, size)]
    if keys is None:  # row by row, as many as the slots fill
        (r0, k0), (gr, gk) = corner, strides
        span = range(k0, k0 + row * gk, gk)
        if arity == 1:
            keys = zip(count(k0, gk))
        elif flip:
            keys = chain.from_iterable(zip(span, range(r - k0, r - span.stop, -gk)) for r in count(r0, gr))
        else:
            keys = chain.from_iterable(zip(repeat(r), range(k0 - r, span.stop - r, gk)) for r in count(r0, gr))
    return dict(compress(zip(keys, slots), slots))


def _text(f: LaurentPoly, first: dict | None, second: dict) -> str:
    """f.canonical_string(), with each variable's rendered powers memoized.

    first and second map an exponent of the first and second variable to
    its text; the second's carry the "*" that joins them to the first's.
    Any power not yet in them is rendered and added, so a caller rendering
    many polynomials of one context (a table's rows) can pass the same two
    dicts to each.  first may be None for a one-variable f rendered alone,
    whose exponents are all distinct, so that a memo would only cost.  One
    pass per arity: each term is written as " + " or " - " and its
    magnitude, and the first term's separator becomes "" or "-" at the end.
    """
    terms = f._terms
    if not terms:
        return "0"
    parts = []
    append = parts.append
    if len(f._context) == 1:
        (name,) = f._context.names
        for key in sorted(terms, reverse=True):
            c = terms[key]
            sep = " + " if c > 0 else " - "
            if c < 0:
                c = -c
            e = key[0]
            if not e:
                append(f"{sep}{c if c < _BIG else _decimal(c)}")
                continue
            if first is None:
                body = _render_varpow(name, e)
            else:
                body = first.get(e) or first.setdefault(e, _render_varpow(name, e))
            if c == 1:
                append(sep + body)
            else:
                append(f"{sep}{c if c < _BIG else _decimal(c)}*{body}")
    else:
        name0, name1 = f._context.names
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


def _render_varpow(name: str, quarters: int) -> str:
    if quarters == 4:
        return name
    if quarters % 4 == 0:
        e = quarters // 4
        if not -_BIG < e < _BIG:
            e = _decimal(e)
        return f"{name}^{e}" if quarters > 0 else f"{name}^({e})"
    g = gcd(quarters, 4)
    return f"{name}^({_decimal(quarters // g)}/{4 // g})"


# -- compiled substitution ---------------------------------------------------


class Substitution:
    """Values in `target` for the variables of `source`, parsed and checked
    once, for substitute_poly or substitute_monomial in place of a mapping.
    Each value is a LaurentPoly of `target` or text that parses in it.
    A variable assigned a single +/-1 term (a "mono" plan) takes any exponent;
    one assigned anything else (a "poly" plan) takes whole exponents >= 0.
    substitute_monomial takes mono plans only, and raises the ValueError kept
    for the first poly plan.  A mapping passed instead is compiled to one of
    these first, so both forms raise the same errors.  The object holds only
    its plans, so no call changes what a later one computes.
    """

    __slots__ = ("source", "target", "_plans", "_not_units")

    def __init__(self, source: VarContext, target: VarContext, assignments: Mapping[str, object]):
        self.source, self.target = source, target
        # Per variable (name, sign, shifts, value); a mono plan has value None.
        self._plans = []
        self._not_units = ""
        for name in source.names:
            if name not in assignments:
                raise MissingAssignment(f"no assignment for variable {name!r}")
            value = assignments[name]
            if isinstance(value, str):
                value = parse(value, target)
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
                self._plans.append((name, None, None, value))
                if not self._not_units:
                    self._not_units = f"assignment for {name!r} " + (
                        f"must have coefficient +1 or -1, got {_decimal(sign)}" if sign else "must be a single monomial"
                    )
        for name in assignments:
            if name not in source.names:
                raise UnknownVariable(f"assignment for {name!r}, which is not in {source.names}")

    def _apply(self, f: LaurentPoly, target: VarContext) -> LaurentPoly:
        """f with each term's mono shifts applied.  Every term is checked
        before anything is packed.  With poly plans, the terms are grouped by
        their shift and, if both plans are poly, by the first one's power; each
        group, a polynomial in the last poly value, is evaluated by _horner
        and times that power of the first value, and _add_scaled adds them."""
        if (f.context, target) != (self.source, self.target):
            raise ContextMismatch(
                f"substitution maps {self.source.names} to {self.target.names}, "
                f"not {f.context.names} to {target.names}"
            )
        plans, width = self._plans, len(target)
        poly = [i for i, plan in enumerate(plans) if plan[3] is not None]
        last = poly[-1] if poly else 0
        # Terms that agree but for the last poly variable share a group and a
        # sign, and pass the others' checks once: seen maps the rest of the
        # exponents to both.
        rest = itemgetter(slice(0, 0) if len(plans) == 1 else 1 - last)
        total, groups, seen = {}, {}, {}
        get, known = total.get, seen.get
        for exps, c in f._terms.items():
            if poly:
                e = exps[last]
                hit = known(rest(exps))
                if hit and e >= 0 and not e & 3:
                    group, sign = hit
                    j = e >> 2
                    group[j] = group.get(j, 0) + sign * c
                    continue
            vec = [0] * width
            flip = False
            for e, (name, sign, shifts, value) in zip(exps, plans):
                if e == 0:
                    continue
                if value is None:
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
                        flip ^= (e // 4) % 2
                    continue
                if e < 0:
                    raise NegativePowerOfPolynomial(
                        f"{name!r} appears with a negative exponent but is assigned a general polynomial"
                    )
                if e % 4:
                    raise NonIntegralExponent(
                        f"{name!r} appears with a fractional exponent but is assigned a general polynomial"
                    )
            key = tuple(vec)
            if poly:
                group = groups.setdefault(exps[0] // 4 if len(poly) == 2 else 0, {}).setdefault(key, {})
                seen[rest(exps)] = group, -1 if flip else 1
                j = exps[last] // 4
                group[j] = group.get(j, 0) + (-c if flip else c)
            else:
                total[key] = get(key, 0) + (-c if flip else c)
        if not poly:
            return LaurentPoly._make(target, {k: v for k, v in total.items() if v})
        pieces = []
        for k, shifted in groups.items():
            terms = _horner(plans[last][3], shifted)
            if k and terms:
                terms = (LaurentPoly._make(target, terms) * plans[0][3] ** k)._terms
            pieces.append(terms)
        total = pieces.pop() if pieces else {}
        _add_scaled(total, [((0,) * width, 1, terms) for terms in pieces])
        return LaurentPoly._make(target, total)


def _horner(value: LaurentPoly, groups: dict) -> dict:
    """The terms of the sum of c * x^shift * value^j over the (j, c) of
    each (shift, coeffs) of groups, j >= 0.

    With g the gcd of all the j, each group is x^shift F(v) for v = value^g
    and F(Y) = sum c Y^(j/g) of degree at most D.  Write v = X^L V with L v's
    lowest exponents.  F(v) is one int (Kronecker packing, as in
    _kronecker_terms) on the box of degree-D sums of v in the _points
    numbering, with rows along the coordinate v's terms share, as
    _packed_steps lays out c1's (z^2 = x - 2 + x^(-1) for HOMFLY's z makes
    one row), and strides that divide every exponent of v, so 0 too.
    Horner's rule: after k steps acc packs the partial sum times X^(-base)
    for base = min(0, -D L) + k L, so every slot index is >= 0; a step
    multiplies acc by V as one shifted, scaled copy per term of V (a power
    of two in a coefficient joins the shift) and adds c at the slot of
    X^(-base).  At k = D, base = min(0, D L).  Every coefficient of F(v) is
    at most sum |c| * ||v||_1^(j/g) in size, which sets the group's slot
    _width; so the final int, though no step before it need be, is read
    back by _unpack at the group's shift, and one _add_scaled call merges
    the groups.

    Inputs with fewer than a quarter of the D + 1 powers per group (say
    z^400 + z) are summed term by term instead, one power at a time.
    """
    g = gcd(*[j for coeffs in groups.values() for j in coeffs])
    v = (value ** g)._terms if g else {}
    if not v:  # only j = 0 counts
        return {shift: coeffs[0] for shift, coeffs in groups.items() if coeffs.get(0)}
    degree = max(map(max, groups.values())) // g
    if 4 * sum(map(len, groups.values())) < (degree + 1) * len(groups):
        copies = [(shift, c, (value ** j)._terms) for shift, coeffs in groups.items() for j, c in coeffs.items() if c]
        return _add_scaled({}, copies)
    flip = len({r for r, _ in _points(v)}) > 1
    points = _points(v, flip)
    lows, strides, base, spans = [], [], [], []
    top = move = 0  # slot indices, row-major: of the first c, and the move of each next c
    for col in zip(*points):
        lo, stride = min(col), gcd(*col) or 1
        low = min(0, degree * lo)
        span = (max(0, degree * max(col)) - low) // stride + 1
        top, move = top * span + max(0, degree * lo) // stride, move * span + lo // stride
        lows.append(lo), strides.append(stride), base.append(low), spans.append(span)
    # Each term of V as (slot, twos, c) with c odd: 2^twos moves into its bits.
    steps = []
    for (r, k), c in zip(points, v.values()):
        twos = (c & -c).bit_length() - 1
        steps.append(((r - lows[0]) // strides[0] * spans[1] + (k - lows[1]) // strides[1], twos, c >> twos))
    steps.sort()
    norm, slots = sum(map(abs, v.values())), prod(spans)
    pieces = []
    for (shift, coeffs), corner in zip(groups.items(), _points(groups, flip)):
        width = _width(sum(abs(c) * norm ** (j // g) for j, c in coeffs.items()))
        (first, lead), *copies = [(width * i + twos, c) for i, twos, c in steps]
        acc, at, down = 0, width * top, width * move
        for c in map(coeffs.get, range(degree * g, -1, -g)):
            if acc:
                product = acc << first if lead == 1 else lead * (acc << first)
                for bits, k in copies:
                    if k == 1:
                        product += acc << bits
                    elif k == -1:
                        product -= acc << bits
                    else:
                        product += k * (acc << bits)
                acc = product
            if c:
                acc += c << at
            at -= down
        low = [b + x for b, x in zip(base, corner)]
        pieces.append(_unpack(acc, width, slots, low, strides, spans[1], len(shift), flip))
    zero = (0,) * len(shift)
    return _add_scaled(pieces.pop(), [(zero, 1, terms) for terms in pieces])


# -- exact square root -------------------------------------------------------


def exact_sqrt(f: LaurentPoly) -> LaurentPoly:
    """The exact square root g of f with g*g == f, canonical-positive.

    By convention exact_sqrt(0) == 0 even though zero has no leading term.
    The leading term of g is the term-wise square root of f's leading term,
    so a leading coefficient that is not a positive square, or a leading
    exponent that is odd, proves that f is not a perfect square.  After
    those three checks one of two paths runs.  Every root satisfies
    sum g_i^2 <= N = isqrt(sum c^2) over f's coefficients c: on the unit
    torus Parseval and Cauchy-Schwarz give sum g_i^2 <= ||f||_2.

    Which path.  An f of at least _KRONECKER_MIN_TERMS terms whose slots
    (below) are at most _PACKED_SQRT_MAX_BITS wide and whose exponent box
    holds at most four slots per term tries the packed path.  Everything
    else takes the heap loop: the 3-term roots of k_to_l, where packing is
    2-4x slower, wide coefficients (HOMFLY squares from n = 95),
    sparse boxes, and whatever the packed path cannot prove a root of.  The
    heap loop alone raises NotAPerfectSquare, so every message is its own.

    The packed path returns only a root it has proved.  It packs f once at
    B = 2^width, on f's own exponent box in the _points coordinates
    (x0, x0 + x1) that _kronecker_terms numbers, with signed slots of the
    _width that holds +-N and so every c: F = Q(B^span1, B) for the polynomial Q(y, z) of f's slot rows
    and columns (one variable: F = Q(B)).  Then G = isqrt(F) must satisfy
    G * G == F, and G's signed slots, placed at half of f's lowest
    exponents with f's strides, give g and its P with P(B^span1, B) = G.
    Two more checks make the evaluation one-to-one on P^2 - Q:
    sum g_i^2 <= N bounds every coefficient of P^2 by N (Cauchy-Schwarz),
    so every coefficient of P^2 - Q is smaller than B; and for two
    variables each slot column k1 of g has 2 * k1 < span1, so P^2 has no
    column past f's and its terms go to distinct powers of B, as Q's do.
    A polynomial with coefficients smaller than B whose terms go to
    distinct powers of B is zero if its value at B is, and P^2 - Q is worth
    G * G - F = 0 there: P^2 == Q.  That puts f's leading term in slot
    (2a, 2b) for P's top slot (a, b), so in each coordinate f's lowest
    exponent has the parity of its leading one, which is even: the halves
    are exact, no parity check is needed, and g*g == f term for term.
    G > 0, so g's top slot, its leading term, is positive, and a root is
    unique up to sign: g is the loop's root.  Slots wider than the cutoff,
    a box of more than four slots per term (a few far terms would make F
    huge) or a failed check send f to the loop.

    The heap loop is long division.  It subtracts the partial square and
    divides the leading remainder by twice the leading root term, and its
    stop rule is a proof, not a step budget.  The Newton polytope of g*g
    is twice that of g (Ostrowski), so every exponent of a root lies in half
    of f's exponent bounding box.  Each candidate term is strictly smaller in
    lex order than the one before, so the candidates are distinct points of
    that finite box: a candidate outside it, or an inexact division, proves
    that f is not a perfect square, and otherwise the remainder empties.
    Each step spends its coefficient's square from N, and the step count is
    the smaller of the two bounds.

    Each step takes the leading remainder term from a max-heap frontier, not
    from a scan of the remainder.  Keys only fall: the step at r = g_lead + t
    changes only the keys g_k + t (g_k <= g_lead) and 2t, cancels r itself
    and creates nothing at or above r.  So a popped key that is no longer in
    the remainder is stale for good and is skipped, and since every key is
    pushed when a step creates it, the top live key of the heap is the
    remainder's greatest: the steps are those of the scan, in its order.
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
    norm = isqrt(sum(c * c for c in terms.values()))
    if len(terms) >= _KRONECKER_MIN_TERMS:
        g_terms = _packed_sqrt(terms, norm)
        if g_terms is not None:
            return LaurentPoly._make(f.context, g_terms)
    box = [(min(col), max(col)) for col in zip(*terms)]
    (lo0, hi0), (lo1, hi1) = box[0], box[-1]
    g0, g1 = lead[0] // 2, lead[-1] // 2
    twice = 2 * root
    budget = norm - lc

    # Every key below lies in f's box, so the remainder is kept on int keys,
    # which add and compare several times faster than tuples: x0*w + x1, with
    # w wider than the box's second side, is linear and keeps lex order on
    # the box.  In one variable w = 0 and the key is x0.
    w = hi1 - lo1 + 1 if len(lead) == 2 else 0
    remainder = {x[0] * w + x[-1]: c for x, c in terms.items()}
    half = g0 * w + g1
    del remainder[2 * half]
    # The remainder's leading term r = g_lead + t gives the root term t, and
    # t lies in half the box exactly when lo + lead <= 2 * r <= hi + lead.
    min0, max0 = lo0 + lead[0], hi0 + lead[0]
    min1, max1 = lo1 + lead[-1], hi1 + lead[-1]
    frontier = [-k for k in remainder]
    heapify(frontier)
    doubled = [(half, twice)]  # the root's terms with twice their coefficients
    get = remainder.get

    while remainder:
        rk = -heappop(frontier)
        rc = get(rk)
        if rc is None:
            continue
        if w:
            x0 = (rk - lo1) // w
            x1 = rk - x0 * w
        else:
            x0 = x1 = rk
        if not (min0 <= 2 * x0 <= max0 and min1 <= 2 * x1 <= max1):
            raise NotAPerfectSquare("a root term would lie outside half the exponent box")
        if rc % twice:
            raise NotAPerfectSquare("remainder coefficient not divisible by twice the leading root")
        t_coeff = rc // twice
        budget -= t_coeff * t_coeff
        if budget < 0:
            raise NotAPerfectSquare("root coefficients would pass the norm bound isqrt(sum c^2)")
        t_key = rk - half
        # remainder -= (2g + t) * t, with g not yet containing t
        doubled.append((t_key, t_coeff))
        for gk, gc in doubled:
            key = gk + t_key
            old = get(key)
            if old is None:
                remainder[key] = -gc * t_coeff
                heappush(frontier, -key)
            else:
                left = old - gc * t_coeff
                if left:
                    remainder[key] = left
                else:
                    del remainder[key]
        doubled[-1] = (t_key, 2 * t_coeff)
    # g_lead + t lies in f's box, where its key decodes uniquely.
    if w:
        g_terms = {}
        for t_key, c in doubled:
            x0 = (t_key + half - lo1) // w
            g_terms[(x0 - g0, t_key + half - x0 * w - g1)] = c // 2
    else:
        g_terms = {(t_key,): c // 2 for t_key, c in doubled}
    return LaurentPoly._make(f.context, g_terms)


def _packed_sqrt(terms: dict, norm: int) -> dict | None:
    """exact_sqrt's packed path: the root's terms, proved as its docstring
    says, or None.  terms are f's, norm is N = isqrt(sum c^2)."""
    width = _width(norm)  # slots hold +-norm, so every c and every g_i too
    if width > _PACKED_SQRT_MAX_BITS:
        return None
    points, arity = _points(terms), len(next(iter(terms)))
    (lows,), strides, spans = _box(points)
    if prod(spans) > 4 * len(terms):
        return None
    packed = _pack(points, terms.values(), lows, strides, spans[1], width)
    root = isqrt(packed)
    if root * root != packed:
        return None
    halves = [lo // 2 for lo in lows]
    # G's base-B digits, plus one slot: a signed top slot may carry into the next.
    g_terms = _unpack(root, width, root.bit_length() // width + 2, halves, strides, spans[1], arity)
    if sum(c * c for c in g_terms.values()) > norm:
        return None
    if arity == 2 and 2 * (max(k for _, k in _points(g_terms)) - halves[1]) >= strides[1] * spans[1]:
        return None
    return g_terms


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
    strings, and no other keys; anything else is a ValueError."""
    if not isinstance(obj, dict):
        raise ValueError("a polynomial is a JSON object")
    names, entries, den = obj.get("vars"), obj.get("terms"), obj.get("exp_denominator")
    if type(den) is not int or den != 4:
        raise ValueError(f"exp_denominator must be the integer 4, got {_shown(den)}")
    if not isinstance(names, list) or not all(isinstance(name, str) for name in names):
        raise ValueError(f"vars must be a list of variable names, got {_shown(names)}")
    if not isinstance(entries, list):
        raise ValueError("terms must be a list of objects")
    if len(obj) != 3:
        raise ValueError(f"unknown key {_other_key(obj, 'vars', 'exp_denominator', 'terms')} in a polynomial")
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
        if len(entry) != 2:
            raise ValueError(f"unknown key {_other_key(entry, 'exp', 'coeff')} in a term")
    return LaurentPoly._make(context, {k: v for k, v in terms.items() if v})


def _other_key(obj: dict, *keys: str) -> str:
    """The first key of obj that is not one of keys, as _shown prints it."""
    return _shown(next(key for key in obj if key not in keys))


def to_json(f: LaurentPoly) -> str:
    """The compact JSON text of to_json_obj(f): byte-identical to
    json.dumps(to_json_obj(f), separators=(",", ":")), for exponents and
    coefficients of any size.

    The terms are written with str in one comprehension per arity; an
    exponent or coefficient past the int/str digit limit makes that pass
    raise ValueError, and the terms are written again through _decimal.
    """
    # Sorted by key alone: comparing two items compares their keys twice.
    items = sorted(f._terms.items(), key=itemgetter(0), reverse=True)
    try:
        if len(f._context) == 2:
            terms = [f'{{"exp":[{e0},{e1}],"coeff":"{c}"}}' for (e0, e1), c in items]
        else:
            terms = [f'{{"exp":[{e}],"coeff":"{c}"}}' for (e,), c in items]
    except ValueError:
        terms = [f'{{"exp":[{",".join(map(_decimal, key))}],"coeff":"{_decimal(c)}"}}' for key, c in items]
    # Variable names are ASCII word characters, which JSON writes as they are.
    names = '","'.join(f._context.names)
    return f'{{"vars":["{names}"],"exp_denominator":4,"terms":[{",".join(terms)}]}}'


def from_json(text: str) -> LaurentPoly:
    # Imported here, not at the top: only decoding needs json, and a process
    # that never decodes starts without it.
    import json

    # The default int parser stays in C; only an integer past the int/str
    # digit limit, which it refuses, makes the decode fall back to
    # _digits_int, called once per integer.
    # The C decoder recurses once per level of nesting, so a deep enough
    # array or object raises RecursionError, reported here as bad input.
    try:
        try:
            obj = json.loads(text)
        except json.JSONDecodeError:
            raise
        except ValueError:
            obj = json.loads(text, parse_int=_digits_int)
    except RecursionError:
        raise ValueError("JSON nested too deeply to decode") from None
    return from_json_obj(obj)
