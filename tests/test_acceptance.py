"""Acceptance battery: the contract this package is shipped against.

Each test covers one numbered criterion and prints a PASS or FAIL line even
under pytest capture, so a plain `pytest tests/test_acceptance.py` shows the
scoreboard.  Every check is exact; there are no tolerances anywhere.
"""

from __future__ import annotations

import functools
import random
import subprocess
import sys
import time
from contextlib import contextmanager

from conftest import CTX_QP, CTX_T, PRIME, fingerprint
from torkit import (
    FAMILIES,
    LaurentPoly,
    alexander_torus,
    fit_ansatz,
    gen_odd_sequence,
    generalized_alexander_torus,
    homfly_to_generalized,
    homfly_torus,
    jones_torus,
    k_to_l,
    l_to_k,
    parse,
    q_number,
    qp_number,
    solve_parameters,
    to_alexander,
    to_jones,
    verify_q_recurrence,
    verify_qp_recurrence,
)
from torkit.cli import main


@contextmanager
def criterion(capsys, cid: str, name: str):
    """Print one scoreboard line per criterion, visible through capture."""
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"{cid} {name}: FAIL")
        raise
    else:
        with capsys.disabled():
            print(f"{cid} {name}: PASS")


def test_c01_trefoil_values(capsys):
    with criterion(capsys, "C01", "trefoil-values"):
        assert generalized_alexander_torus(3) == parse("q + p - q*p", CTX_QP)
        assert alexander_torus(3) == parse("t - 1 + t^(-1)", CTX_T)


def test_c02_closed_form_vs_recurrence(capsys):
    with criterion(capsys, "C02", "closed-form-vs-recurrence"):
        start = time.monotonic()
        gen_seq = dict(gen_odd_sequence(FAMILIES["generalized-alexander"].knot_step, 41))
        alex_seq = dict(gen_odd_sequence(FAMILIES["alexander"].knot_step, 41))
        for n in range(1, 42, 2):
            assert generalized_alexander_torus(n) == gen_seq[n]
            assert alexander_torus(n) == alex_seq[n]
        assert time.monotonic() - start < 1.0


def test_c03_alexander_reduction(capsys):
    with criterion(capsys, "C03", "alexander-reduction"):
        for n in range(1, 42, 2):
            assert to_alexander(generalized_alexander_torus(n)) == alexander_torus(n)


def test_c04_jones_reduction(capsys):
    with criterion(capsys, "C04", "jones-reduction"):
        for n in range(1, 42, 2):
            assert to_jones(generalized_alexander_torus(n)) == jones_torus(n)


def test_c05_homfly_correspondence(capsys):
    with criterion(capsys, "C05", "homfly-correspondence"):
        start = time.monotonic()
        for n in range(1, 26, 2):
            assert homfly_to_generalized(homfly_torus(n)) == generalized_alexander_torus(n)
        assert time.monotonic() - start < 5.0


def test_c06_deformed_number_identities(capsys):
    with criterion(capsys, "C06", "q-number-identities"):
        assert verify_q_recurrence(100).passed
        assert verify_qp_recurrence(100).passed
        for n in range(101):
            assert to_alexander(qp_number(n)) == q_number(n, "t")


def test_c07_algorithm_round_trips(capsys):
    with criterion(capsys, "C07", "algorithm-round-trips"):
        for spec in FAMILIES.values():
            k = l_to_k(spec.skein)
            again = l_to_k(k_to_l(k))
            assert again.k1 == k.k1 and again.k2 == k.k2

        for name, a1, a2 in [
            ("alexander", "1", "1"),
            ("generalized-alexander", "1", "q*p"),
        ]:
            pair = FAMILIES[name].knot_step
            u, v = solve_parameters(pair)
            coeffs = fit_ansatz(dict(gen_odd_sequence(pair, 21)), u, v)
            ctx = FAMILIES[name].context
            assert coeffs.a1 == parse(a1, ctx)
            assert coeffs.a2 == parse(a2, ctx)

        u, v = solve_parameters(FAMILIES["jones"].knot_step)
        assert (u, v) == (parse("t^3", CTX_T), parse("t", CTX_T))


def test_c08_structure_properties(capsys):
    with criterion(capsys, "C08", "structure-properties"):
        for m in range(21):
            n = 2 * m + 1
            g = generalized_alexander_torus(n)
            assert g.num_terms == n
            plus = [key for key, c in g.terms.items() if c == 1]
            minus = [key for key, c in g.terms.items() if c == -1]
            assert len(plus) + len(minus) == n
            assert len(plus) == m + 1
            assert len(minus) == m
            assert all(sum(key) == 4 * m for key in plus)
            assert all(sum(key) == 4 * (m + 1) for key in minus)
            assert g.substitute_monomial(CTX_QP, {"q": "p", "p": "q"}) == g

            a = alexander_torus(n)
            assert a.substitute_monomial(CTX_T, {"t": "t^(-1)"}) == a


def c09_disagreements(invariants) -> int:
    """C09's 100 draws: the draws at which one of the pairs (alexander, jones,
    homfly -> generalized) in invariants(n) has sides that differ mod PRIME.

    Each point is a small rational taken mod PRIME, read as the fourth root
    of its variable, so quarter exponents need no clearing.
    """
    rng = random.Random(20250822)

    def point():
        num = rng.randint(1, 9) * rng.choice([1, -1])
        return num * pow(rng.randint(1, 9), -1, PRIME) % PRIME

    disagreed = 0
    for _ in range(100):
        n = rng.choice(range(1, 16, 2))
        alex_pair, jones_pair, homfly_pair = invariants(n)
        x = point()
        roots = ([x], [x], [point(), point()])
        disagreed += any(
            fingerprint(lhs, r) != fingerprint(rhs, r)
            for (lhs, rhs), r in zip((alex_pair, jones_pair, homfly_pair), roots)
        )
    return disagreed


@functools.cache
def c09_invariants(n):
    g = generalized_alexander_torus(n)
    return (
        (to_alexander(g), alexander_torus(n)),
        (to_jones(g), jones_torus(n)),
        (homfly_to_generalized(homfly_torus(n)), g),
    )


def test_c09_independent_point_oracle(capsys):
    with criterion(capsys, "C09", "independent-point-oracle"):
        assert c09_disagreements(c09_invariants) == 0


def test_c09_oracle_sees_one_changed_coefficient():
    # One coefficient of the jones side moves by 1; every draw checks that pair.
    def changed(n):
        alex_pair, (lhs, rhs), homfly_pair = c09_invariants(n)
        key = max(rhs.terms)
        return alex_pair, (lhs, rhs + LaurentPoly(CTX_T, {key: 1})), homfly_pair

    assert c09_disagreements(changed) == 100


def test_c10_negative_path(capsys):
    with criterion(capsys, "C10", "negative-path"):
        rc = main(["verify", "--n-max", "3", "--corrupt-family", "alexander"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "FAIL" in out
        assert "n=3" in out

        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "torkit",
                "verify",
                "--n-max",
                "3",
                "--corrupt-family",
                "alexander",
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
        assert "n=3" in proc.stdout
