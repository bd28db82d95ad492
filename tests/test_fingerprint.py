"""The mod-p point oracle at sizes the exact oracles cannot reach.

Each check evaluates both sides of an identity with conftest.fingerprint, a
ring map to the integers mod PRIME, so it costs one pass over the terms of
each side: closed forms against the knot step at n = 20001, the three
substitutions at a point composed through the mapping, and products of
family values where the schoolbook multiply is too slow.  Each check has a
counterpart showing that it fails on a wrong value.
"""

from __future__ import annotations

import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from conftest import PRIME, fingerprint, stepped_fingerprint
from torkit import (
    AZ_CTX,
    FAMILIES,
    LaurentPoly,
    QP_CTX,
    Substitution,
    homfly_to_generalized,
    laurent,
    to_alexander,
    to_jones,
)
from torkit.cli import _corrupted_registry

FAMILY_NAMES = sorted(FAMILIES)


def random_roots(seed: int, count: int) -> list[int]:
    rng = random.Random(seed)
    return [rng.randrange(1, PRIME) for _ in range(count)]


class TestClosedFormAgainstKnotStep:
    @pytest.mark.parametrize("family", FAMILY_NAMES)
    def test_frozen_n_20001_and_every_corrupted_k2(self, family):
        spec = FAMILIES[family]
        roots = random_roots(20001, len(spec.context))
        value = fingerprint(spec.value(20001), roots)
        assert value == stepped_fingerprint(spec.knot_step, 20001, roots)
        corrupted = _corrupted_registry(family)[family]
        assert value != stepped_fingerprint(corrupted.knot_step, 20001, roots)

    @given(st.sampled_from(FAMILY_NAMES), st.integers(0, 5000), st.integers(1, PRIME - 1), st.integers(1, PRIME - 1))
    @settings(max_examples=10, deadline=None)
    def test_odd_n_up_to_10001(self, family, m, x, y):
        spec, n = FAMILIES[family], 2 * m + 1
        assert fingerprint(spec.value(n), [x, y]) == stepped_fingerprint(spec.knot_step, n, [x, y])


def homfly_at(h: LaurentPoly, a_root: int, z: int) -> int:
    """h mod PRIME with a's fourth root at a_root and z at z itself: knot
    values hold whole powers of z only, so no fourth root of z is needed."""
    terms = h.terms
    assert all(ez % 4 == 0 for _, ez in terms)
    return fingerprint(LaurentPoly(AZ_CTX, {(ea, ez // 4): c for (ea, ez), c in terms.items()}), [a_root, z])


class TestSubstitutionsAtTheComposedPoint:
    @pytest.mark.parametrize("n", [101, 601])
    def test_to_alexander_and_to_jones(self, n):
        g = FAMILIES["generalized-alexander"].value(n)
        (r,) = random_roots(n, 1)
        assert fingerprint(to_alexander(g), [r]) == fingerprint(g, [r, pow(r, -1, PRIME)])
        assert fingerprint(to_jones(g), [r]) == fingerprint(g, [pow(r, 3, PRIME), r])

    @staticmethod
    def composed_point(n: int) -> tuple[list[int], int, int]:
        # Target roots r_q = s_q^4 and r_p = s_p^4, so that a = (qp)^(1/4) has
        # the fourth root s_q s_p, and z = q^(1/4) p^(-1/4) - q^(-1/4) p^(1/4).
        s_q, s_p = random_roots(n, 2)
        r_q, r_p = pow(s_q, 4, PRIME), pow(s_p, 4, PRIME)
        z = (r_q * pow(r_p, -1, PRIME) - r_p * pow(r_q, -1, PRIME)) % PRIME
        return [r_q, r_p], s_q * s_p % PRIME, z

    @pytest.mark.parametrize("n", [101, 601])
    def test_homfly_to_generalized(self, n):
        h = FAMILIES["homfly"].value(n)
        roots, a_root, z = self.composed_point(n)
        assert fingerprint(homfly_to_generalized(h), roots) == homfly_at(h, a_root, z)

    def test_a_wrong_sign_in_z_fails(self):
        # Knot values hold even powers of z only, so negating all of z's image
        # changes nothing; the wrong sign sits on one of its two terms.
        wrong = Substitution(
            AZ_CTX, QP_CTX, {"a": "q^(1/4)*p^(1/4)", "z": "q^(1/4)*p^(-1/4) + q^(-1/4)*p^(1/4)"}
        )
        h = FAMILIES["homfly"].value(101)
        roots, a_root, z = self.composed_point(101)
        assert fingerprint(h.substitute_poly(QP_CTX, wrong), roots) != homfly_at(h, a_root, z)


# Large enough for the Kronecker multiply, in one variable, in two on the
# antidiagonal bands of the generalized Alexander values, and in two on
# HOMFLY's box, where the (x0, x1) and (x0, x0 + x1) numberings tie.
PRODUCTS = [
    ("alexander", 2001, "jones", 1999),
    ("generalized-alexander", 2001, "generalized-alexander", 1999),
    ("homfly", 1001, "homfly", 999),
]


class TestProductsPastTheSchoolbookOracle:
    @pytest.mark.parametrize("left, n1, right, n2", PRODUCTS)
    def test_product_is_the_product_of_fingerprints(self, monkeypatch, left, n1, right, n2):
        f, g = FAMILIES[left].value(n1), FAMILIES[right].value(n2)
        packed = []
        kronecker = laurent._kronecker_terms

        def spy(a, b):
            out = kronecker(a, b)
            packed.append(out is not None)
            return out

        monkeypatch.setattr(laurent, "_kronecker_terms", spy)
        product = f * g
        assert packed == [True]
        roots = random_roots(n1, 2)
        assert fingerprint(product, roots) == fingerprint(f, roots) * fingerprint(g, roots) % PRIME

    def test_a_perturbed_product_fails(self):
        spec = FAMILIES["generalized-alexander"]
        f, g = spec.value(2001), spec.value(1999)
        product = f * g
        perturbed = product + LaurentPoly(QP_CTX, {min(product.terms): 1})
        roots = random_roots(2001, 2)
        assert fingerprint(perturbed, roots) != fingerprint(f, roots) * fingerprint(g, roots) % PRIME
