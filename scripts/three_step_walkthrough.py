#!/usr/bin/env python3
"""Walk through the derivation pipeline for one family, printing each stage.

The pipeline starts from a knot-step pair (the every-other-index recurrence
coefficients), recovers the underlying two-term skein pair by exact square
roots, splits the recurrence characteristic into two monomial parameters, and
fits the two-coefficient closed form against generated values.  The final
stage cross-checks the fitted form at higher indices than it was fitted on.

Usage:
    python3 scripts/three_step_walkthrough.py [--family NAME] [--n-max N]
"""

from __future__ import annotations

import argparse
import sys

from torkit import (
    FAMILIES,
    InvalidTorusIndex,
    NotTwoParameterForm,
    fit_ansatz,
    gen_odd_sequence,
    k_to_l,
    solve_parameters,
    uv_number,
)
from torkit.laurent import decimal_int
from torkit.skein import odd_index


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--family",
        choices=sorted(FAMILIES),
        default="generalized-alexander",
    )
    parser.add_argument("--n-max", type=decimal_int, default=13, help="largest odd index to fit")
    parser.add_argument(
        "--check-to", type=decimal_int, default=21, help="largest odd index to cross-check"
    )
    return parser


def main() -> int:
    args = build_parser().parse_args()
    try:
        if odd_index(args.n_max) < 1:
            raise InvalidTorusIndex(f"--n-max must be at least 3, got {args.n_max}: the fit needs T(3,2)")
        odd_index(args.check_to)
    except InvalidTorusIndex as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    spec = FAMILIES[args.family]
    pair = spec.knot_step

    print(f"family: {spec.name}  (variables {', '.join(spec.context.names)})")
    print()
    print("step 1: knot-step recurrence  P(n+2) = k1 P(n) + k2 P(n-2)")
    print(f"  k1 = {pair.k1}")
    print(f"  k2 = {pair.k2}")
    skein = k_to_l(pair)
    print("  recovered one-step coefficients by exact square root:")
    print(f"  l1 = {skein.l1}")
    print(f"  l2 = {skein.l2}")
    print()

    print("step 2: split k1 into two monomial parameters u, v with u*v = -k2")
    try:
        u, v = solve_parameters(pair)
    except NotTwoParameterForm as exc:
        print(f"  not available for this family: {exc}")
        print("  (the closed form below needs the two-parameter split; stopping)")
        return 0
    print(f"  u = {u}")
    print(f"  v = {v}")
    print()

    print(f"step 3: fit P(2m+1) = a1*[m+1] - a2*[m] against indices 1..{args.n_max}")
    seq = gen_odd_sequence(pair, args.n_max)
    coeffs = fit_ansatz(seq, u, v)
    print(f"  a1 = {coeffs.a1}")
    print(f"  a2 = {coeffs.a2}")
    print()

    print(f"cross-check: closed form vs recurrence up to n = {args.check_to}")
    long_seq = gen_odd_sequence(pair, args.check_to)
    for n in range(1, args.check_to + 1, 2):
        m = (n - 1) // 2
        closed = coeffs.a1 * uv_number(m + 1, u, v) - coeffs.a2 * uv_number(m, u, v)
        status = "ok" if closed == long_seq[n] else "MISMATCH"
        print(f"  n = {n:>2}: {status}  {long_seq[n]}")
        if status != "ok":
            return 1
    print()
    print("all cross-checks agree")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
