#!/usr/bin/env python3
"""Print invariant tables for every family side by side.

Usage:
    python3 scripts/invariant_tables.py [--n-max N] [--family NAME]

Each row is one odd torus index; columns are the exact polynomials.
"""

from __future__ import annotations

import argparse
import sys

from torkit import FAMILIES, InvalidTorusIndex
from torkit.laurent import decimal_int
from torkit.skein import odd_index

FAMILY_NAMES = sorted(FAMILIES)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-max", type=decimal_int, default=9, help="largest odd index")
    parser.add_argument(
        "--family",
        choices=FAMILY_NAMES,
        action="append",
        help="restrict to one family (repeatable; default: all)",
    )
    return parser


def main() -> int:
    args = build_parser().parse_args()
    try:
        odd_index(args.n_max)
    except InvalidTorusIndex as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    families = args.family or list(FAMILY_NAMES)
    for family in families:
        print(f"== {family} ==")
        for n, value in FAMILIES[family].sequence(args.n_max).items():
            print(f"  T({n},2): {value}")
        print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
