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
from math import gcd, isqrt
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
        for exps, coeff in items:
            exps = tuple(exps)
            if len(exps) != arity:
                raise ValueError(
                    f"exponent tuple {exps} does not match context arity {arity}"
                )
            if not all(isinstance(q, int) for q in exps):
                raise TypeError("exponent quarters must be integers")
            if not isinstance(coeff, int):
                raise TypeError("coefficients must be integers")
            if coeff:
                clean[exps] = clean.get(exps, 0) + coeff
        self._context = context
        self._terms = {k: v for k, v in clean.items() if v}

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
        if isinstance(other, int):
            other = LaurentPoly.constant(self._context, other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._context == other._context and self._terms == other._terms

    __hash__ = None  # mutable-looking mapping inside; identity semantics unwanted

    # -- ring operations -------------------------------------------------------

    def _coerce(self, other: PolyLike) -> LaurentPoly:
        if isinstance(other, int):
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
        out = dict(self._terms)
        for exps, c in other._terms.items():
            out[exps] = out.get(exps, 0) + c
        return LaurentPoly(self._context, out)

    __radd__ = __add__

    def __neg__(self) -> LaurentPoly:
        return LaurentPoly(self._context, {k: -v for k, v in self._terms.items()})

    def __sub__(self, other: PolyLike) -> LaurentPoly:
        return self + (-self._coerce(other))

    def __rsub__(self, other: PolyLike) -> LaurentPoly:
        return (-self) + other

    def __mul__(self, other: PolyLike) -> LaurentPoly:
        other = self._coerce(other)
        out: dict = {}
        for ea, ca in self._terms.items():
            for eb, cb in other._terms.items():
                key = tuple(x + y for x, y in zip(ea, eb))
                out[key] = out.get(key, 0) + ca * cb
        return LaurentPoly(self._context, out)

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
        return LaurentPoly(target, out)

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

        total = LaurentPoly.zero(target)
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
            piece = LaurentPoly(target, {tuple(vec): c})
            for f in factors:
                piece = piece * f
            total = total + piece
        return total

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
    the leading root term.  The iteration is bounded by 4*num_terms(f)**2
    steps; exceeding the bound, or any inexact division along the way, means
    f is not a perfect square.  By convention exact_sqrt(0) == 0 even though
    zero has no leading term.
    """
    if f.is_zero():
        return f
    terms = f.terms
    lead = max(terms)
    lc = terms[lead]
    if lc < 0:
        raise NotAPerfectSquare("leading coefficient is negative")
    root = isqrt(lc)
    if root * root != lc:
        raise NotAPerfectSquare(f"leading coefficient {lc} is not a perfect square")
    if any(q % 2 for q in lead):
        raise NotAPerfectSquare("leading exponent is not twice a quarter count")
    g_lead = tuple(q // 2 for q in lead)
    g_terms = {g_lead: root}
    twice = 2 * root

    # Remainder f - g^2, maintained incrementally as g grows.
    remainder = dict(terms)
    remainder[lead] -= lc
    remainder = {k: v for k, v in remainder.items() if v}

    max_steps = 4 * len(terms) ** 2
    for _ in range(max_steps):
        if not remainder:
            return LaurentPoly(f.context, g_terms)
        rk = max(remainder)
        rc = remainder[rk]
        if rc % twice:
            raise NotAPerfectSquare("remainder coefficient not divisible by twice the leading root")
        t_exps = tuple(a - b for a, b in zip(rk, g_lead))
        t_coeff = rc // twice
        # remainder -= 2 * g * t + t^2, with g not yet containing t
        for gk, gc in g_terms.items():
            key = tuple(a + b for a, b in zip(gk, t_exps))
            remainder[key] = remainder.get(key, 0) - 2 * gc * t_coeff
        key = tuple(2 * a for a in t_exps)
        remainder[key] = remainder.get(key, 0) - t_coeff * t_coeff
        remainder = {k: v for k, v in remainder.items() if v}
        g_terms[t_exps] = g_terms.get(t_exps, 0) + t_coeff
    if not remainder:
        return LaurentPoly(f.context, g_terms)
    raise NotAPerfectSquare("no exact square root within the iteration bound")


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
    terms = f.terms
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
