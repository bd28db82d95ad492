"""Command-line interface: compute, table, verify, convert, qnum.

Exit codes: 0 on success (and when every verification check passes), 1 when
any verification check fails, 2 on usage errors such as an even torus index
or an unsupported conversion.  JSON output embeds polynomials in the exact
interchange form of the laurent module, one record per line in table mode.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from dataclasses import dataclass
from functools import cache, partial
from typing import Callable, Optional

from .families import (
    FAMILIES,
    FamilySpec,
    homfly_to_generalized,
    to_alexander,
    to_jones,
)
from .laurent import LaurentPoly, TorkitError, decimal_int, to_json
from .qnumbers import (
    jones_number,
    q_number,
    qp_number,
    verify_q_recurrence,
    verify_qp_recurrence,
)
from .report import CheckReport, compare, counterexample
from .skein import (
    InvalidTorusIndex,
    KnotStepPair,
    fit_ansatz,
    gen_full_sequence,
    k_to_l,
    l_to_k,
    odd_index,
    solve_parameters,
)

FAMILY_NAMES = tuple(FAMILIES)

_CONVERSIONS: dict[tuple[str, str], Callable[[LaurentPoly], LaurentPoly]] = {
    ("generalized-alexander", "alexander"): to_alexander,
    ("generalized-alexander", "jones"): to_jones,
    ("homfly", "generalized-alexander"): homfly_to_generalized,
}

# qnum's --kind spellings and the numbers they print.
_NUMBER_KINDS = {"q": q_number, "qp": qp_number, "jones": jones_number}


@dataclass(frozen=True)
class OutputRecord:
    """One rendered result: which family, which index, and the polynomial."""

    family: str
    n: int
    polynomial: LaurentPoly
    representation: str = "text"

    def render(self) -> str:
        if self.representation == "json":
            # The bytes of json.dumps({"family", "n", "polynomial": to_json_obj(...)},
            # separators=(",", ":")), with the polynomial written by to_json.
            return (
                f'{{"family":{json.dumps(self.family)},"n":{json.dumps(self.n)},'
                f'"polynomial":{to_json(self.polynomial)}}}'
            )
        return self.polynomial.canonical_string()


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def cmd_compute(args: argparse.Namespace) -> int:
    value = FAMILIES[args.family].value(args.n)
    print(OutputRecord(args.family, args.n, value, args.format).render())
    return 0


def cmd_table(args: argparse.Namespace) -> int:
    seq = FAMILIES[args.family].sequence(args.n_max)
    for n, value in seq.items():
        record = OutputRecord(args.family, n, value, args.format)
        if args.format == "json":
            print(record.render())
        else:
            print(f"{n}\t{record.render()}")
    return 0


def cmd_convert(args: argparse.Namespace) -> int:
    key = (args.source, args.target)
    if key not in _CONVERSIONS:
        supported = ", ".join(f"{s}->{t}" for s, t in _CONVERSIONS)
        return _usage_error(
            f"no conversion from {args.source!r} to {args.target!r}; supported: {supported}"
        )
    converted = _CONVERSIONS[key](FAMILIES[args.source].value(args.n))
    record = OutputRecord(f"{args.source}->{args.target}", args.n, converted, args.format)
    print(record.render())
    return 0


def cmd_qnum(args: argparse.Namespace) -> int:
    if args.n < 0:
        return _usage_error(f"--n must be >= 0, got {args.n}")
    value = _NUMBER_KINDS[args.kind](args.n)
    record = OutputRecord(f"qnum:{args.kind}", args.n, value, args.format)
    print(record.render())
    return 0


# -- the verification battery -------------------------------------------------

def _guarded(name: str, check: Callable[[str], CheckReport]) -> CheckReport:
    # A check that blows up should read as a failure, not a crash.
    try:
        return check(name)
    except TorkitError as exc:
        return CheckReport(name, 0, f"{type(exc).__name__}: {exc}")


def run_verification(
    n_max: int, registry: Optional[dict[str, FamilySpec]] = None
) -> list[CheckReport]:
    """Every cross-check the library makes, in a fixed deterministic order.

    n_max is an odd torus index of at least 3, since the ansatz fit needs
    T(3,2); anything else raises InvalidTorusIndex.  Each family's inputs are
    built once, inside the guard of the first check that reads them, and
    shared by the checks after it.
    """
    if odd_index(n_max) < 1:
        raise InvalidTorusIndex(f"verification needs n_max >= 3, got {n_max}: fit_ansatz needs T(3,2)")
    reg = registry if registry is not None else FAMILIES

    @cache
    def values(family: str) -> dict[int, LaurentPoly]:
        return {n: reg[family].value(n) for n in range(1, n_max + 1, 2)}

    @cache
    def recurrence(family: str) -> dict[int, LaurentPoly]:
        return reg[family].sequence(n_max)

    @cache
    def full(family: str) -> dict[int, LaurentPoly]:
        spec = reg[family]
        base2 = spec.hopf if spec.hopf is not None else spec.skein.l1
        return gen_full_sequence(spec.skein, LaurentPoly.one(spec.context), base2, n_max)

    def agree(
        name: str,
        lhs: dict[int, LaurentPoly],
        rhs: dict[int, LaurentPoly],
        mapping: Callable[[LaurentPoly], LaurentPoly] = lambda value: value,
    ) -> CheckReport:
        # mapping(lhs[n]) against rhs[n] for every n that rhs holds.
        return compare(name, ((n, mapping(lhs[n]), value) for n, value in rhs.items()))

    def qp_reduction(name: str) -> CheckReport:
        cases = ((n, to_alexander(qp_number(n)), q_number(n, "t")) for n in range(n_max + 1))
        return compare(name, cases)

    def ansatz(family: str, name: str) -> CheckReport:
        spec = reg[family]
        qhat, phat = solve_parameters(spec.knot_step)
        coeffs = fit_ansatz(recurrence(family), qhat, phat)
        a1, a2 = spec.ansatz
        failure = ""
        if coeffs.a1 != a1 or coeffs.a2 != a2:
            failure = counterexample(1, f"(a1, a2) = ({coeffs.a1}, {coeffs.a2})", f"({a1}, {a2})")
        return CheckReport(name, (n_max + 1) // 2, failure)

    def roundtrip(family: str, name: str) -> CheckReport:
        k = l_to_k(reg[family].skein)
        again = l_to_k(k_to_l(k))
        failure = ""
        if again.k1 != k.k1 or again.k2 != k.k2:
            failure = counterexample(0, f"({again.k1}, {again.k2})", f"({k.k1}, {k.k2})")
        return CheckReport(name, 1, failure)

    def skein_form(family: str, name: str) -> CheckReport:
        seq = full(family)
        c_plus, c_minus, c_zero = reg[family].skein_form
        cases = (
            (n, c_plus * seq[n] + c_minus * seq[n - 2], c_zero * seq[n - 1])
            for n in range(3, n_max + 1)
        )
        return compare(name, cases)

    checks = [
        # Each lambda binds its loop variables as defaults, and builds its
        # sequences when the guard calls it.
        *(
            (f"closed-form-vs-recurrence[{f}]", lambda name, f=f: agree(name, recurrence(f), values(f)))
            for f in reg
        ),
        *(
            (f"substitute[{s}->{t}]", lambda name, s=s, t=t, m=m: agree(name, values(s), values(t), m))
            for (s, t), m in _CONVERSIONS.items()
        ),
        ("q-number-recurrence", lambda name: verify_q_recurrence(n_max)),
        ("qp-number-recurrence", lambda name: verify_qp_recurrence(n_max)),
        ("qp-number-reduces-to-q", qp_reduction),
        *(
            (f"ansatz[{f}]", partial(ansatz, f))
            for f, spec in reg.items()
            if spec.ansatz is not None
        ),
        # The odd entries of the full step against the family's own knot step.
        *(
            (f"interleave[{f}]", lambda name, f=f: agree(name, full(f), recurrence(f)))
            for f, spec in reg.items()
            if spec.hopf is not None
        ),
        *((f"k-roundtrip[{f}]", partial(roundtrip, f)) for f in reg),
        *((f"skein-form[{f}]", partial(skein_form, f)) for f in reg),
    ]
    return [_guarded(name, check) for name, check in checks]


def _corrupted_registry(family: str) -> dict[str, FamilySpec]:
    # Deliberately flips the sign of k2 for one family, to demonstrate that
    # verification actually catches a wrong knot-step coefficient.
    registry = dict(FAMILIES)
    spec = registry[family]
    broken = KnotStepPair(spec.knot_step.k1, -spec.knot_step.k2)
    registry[family] = dataclasses.replace(spec, knot_step=broken)
    return registry


def cmd_verify(args: argparse.Namespace) -> int:
    registry = _corrupted_registry(args.corrupt_family) if args.corrupt_family else None
    reports = run_verification(args.n_max, registry)
    for report in reports:
        print(report.format_line())
    failed = [r for r in reports if not r.passed]
    print(f"{len(reports) - len(failed)}/{len(reports)} checks passed")
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="torkit",
        description="Exact polynomial invariants of T(n,2) torus knots from q- and (q,p)-numbers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("text", "json"), default="text")

    p_compute = sub.add_parser("compute", help="one invariant value")
    p_compute.add_argument("--family", required=True, choices=FAMILY_NAMES)
    p_compute.add_argument("--n", type=decimal_int, required=True, help="odd torus index")
    add_format(p_compute)
    p_compute.set_defaults(func=cmd_compute)

    p_table = sub.add_parser("table", help="all odd values up to --n-max")
    p_table.add_argument("--family", required=True, choices=FAMILY_NAMES)
    p_table.add_argument("--n-max", type=decimal_int, required=True, dest="n_max")
    add_format(p_table)
    p_table.set_defaults(func=cmd_table)

    p_verify = sub.add_parser("verify", help="run every identity cross-check")
    p_verify.add_argument("--n-max", type=decimal_int, default=21, dest="n_max")
    p_verify.add_argument(
        "--corrupt-family",
        choices=FAMILY_NAMES,
        default=None,
        help="flip the sign of this family's k2 first (exercises failure reporting)",
    )
    p_verify.set_defaults(func=cmd_verify)

    p_convert = sub.add_parser("convert", help="map one family's value into another")
    p_convert.add_argument("--from", required=True, dest="source", choices=FAMILY_NAMES)
    p_convert.add_argument("--to", required=True, dest="target", choices=FAMILY_NAMES)
    p_convert.add_argument("--n", type=decimal_int, required=True)
    add_format(p_convert)
    p_convert.set_defaults(func=cmd_convert)

    p_qnum = sub.add_parser("qnum", help="print a q-, (q,p)-, or (t^3,t)-number")
    p_qnum.add_argument("--kind", choices=tuple(_NUMBER_KINDS), default="q")
    p_qnum.add_argument("--n", type=decimal_int, required=True)
    add_format(p_qnum)
    p_qnum.set_defaults(func=cmd_qnum)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InvalidTorusIndex as exc:
        return _usage_error(str(exc))
    except TorkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
