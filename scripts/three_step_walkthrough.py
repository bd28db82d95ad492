#!/usr/bin/env python3
"""Walk every family, in registry order, through the derivation pipeline.

From the knot-step pair (k1, k2), recover the one-step skein pair (l1, l2) by
exact square roots, split k1 into two monomial parameters u, v, and fit the
two-coefficient closed form on n <= 13.  The cross-check fits again on
n <= 21, which checks the closed form against every entry of the recurrence.
"""

from __future__ import annotations

import argparse

from torkit import (
    FAMILIES, FamilySpec, NotTwoParameterForm, fit_ansatz, gen_odd_sequence, k_to_l, solve_parameters,
)

FIT_TO, CHECK_TO = 13, 21


def walk(spec: FamilySpec) -> None:
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
        return
    print(f"  u = {u}")
    print(f"  v = {v}")
    print()

    print(f"step 3: fit P(2m+1) = a1*[m+1] - a2*[m] against indices 1..{FIT_TO}")
    coeffs = fit_ansatz(dict(gen_odd_sequence(pair, FIT_TO)), u, v)
    print(f"  a1 = {coeffs.a1}")
    print(f"  a2 = {coeffs.a2}")
    print()

    print(f"cross-check: closed form vs recurrence up to n = {CHECK_TO}")
    long_seq = dict(gen_odd_sequence(pair, CHECK_TO))
    fit_ansatz(long_seq, u, v)  # raises AnsatzMismatch at the first entry that deviates
    for n, value in long_seq.items():
        print(f"  n = {n:>2}: ok  {value}")
    print()
    print("all cross-checks agree")


def main() -> None:
    argparse.ArgumentParser(description=__doc__).parse_args()
    for spec in FAMILIES.values():
        walk(spec)
        print()


if __name__ == "__main__":
    main()
