"""Golden output of `torkit verify`: the exact bytes a user sees.

The battery's text is a public contract (scripts and CI parse it), so the
full stdout of a small run and the failure lines of every corrupted-family
run are pinned here byte for byte.
"""

from __future__ import annotations

import pytest

from torkit.cli import main

VERIFY_N_MAX_5 = """\
PASS closed-form-vs-recurrence[alexander] (3 cases)
PASS closed-form-vs-recurrence[generalized-alexander] (3 cases)
PASS closed-form-vs-recurrence[jones] (3 cases)
PASS closed-form-vs-recurrence[homfly] (3 cases)
PASS substitute[generalized-alexander->alexander] (3 cases)
PASS substitute[generalized-alexander->jones] (3 cases)
PASS substitute[homfly->generalized-alexander] (3 cases)
PASS q-number-recurrence (5 cases)
PASS qp-number-recurrence (5 cases)
PASS qp-number-reduces-to-q (6 cases)
PASS ansatz[alexander] (3 cases)
PASS ansatz[generalized-alexander] (3 cases)
PASS ansatz[jones] (3 cases)
PASS interleave[alexander] (3 cases)
PASS interleave[jones] (3 cases)
PASS interleave[homfly] (3 cases)
PASS k-roundtrip[alexander] (1 cases)
PASS k-roundtrip[generalized-alexander] (1 cases)
PASS k-roundtrip[jones] (1 cases)
PASS k-roundtrip[homfly] (1 cases)
PASS skein-form[alexander] (3 cases)
PASS skein-form[generalized-alexander] (3 cases)
PASS skein-form[jones] (3 cases)
PASS skein-form[homfly] (3 cases)
24/24 checks passed
"""

CORRUPTED = {
    "alexander": [
        "FAIL closed-form-vs-recurrence[alexander]: first counterexample at n=3: "
        "t + 1 + t^(-1) != t - 1 + t^(-1)",
        "FAIL ansatz[alexander]: NotTwoParameterForm: the term product 1 does not equal -k2 = -1",
        "FAIL interleave[alexander]: first counterexample at n=3: "
        "t - 1 + t^(-1) != t + 1 + t^(-1)",
        "21/24 checks passed",
    ],
    "generalized-alexander": [
        "FAIL closed-form-vs-recurrence[generalized-alexander]: first counterexample at n=3: "
        "q*p + q + p != -q*p + q + p",
        "FAIL ansatz[generalized-alexander]: NotTwoParameterForm: the term product q*p "
        "does not equal -k2 = -q*p",
        "22/24 checks passed",
    ],
    "jones": [
        "FAIL closed-form-vs-recurrence[jones]: first counterexample at n=3: "
        "t^4 + t^3 + t != -t^4 + t^3 + t",
        "FAIL ansatz[jones]: NotTwoParameterForm: the term product t^4 does not equal -k2 = -t^4",
        "FAIL interleave[jones]: first counterexample at n=3: -t^4 + t^3 + t != t^4 + t^3 + t",
        "21/24 checks passed",
    ],
    "homfly": [
        "FAIL closed-form-vs-recurrence[homfly]: first counterexample at n=3: "
        "a^4 + a^2*z^2 + 2*a^2 != -a^4 + a^2*z^2 + 2*a^2",
        "FAIL interleave[homfly]: first counterexample at n=3: "
        "-a^4 + a^2*z^2 + 2*a^2 != a^4 + a^2*z^2 + 2*a^2",
        "22/24 checks passed",
    ],
}


def test_verify_n_max_5_stdout_is_pinned(capsys):
    rc = main(["verify", "--n-max", "5"])
    assert rc == 0
    assert capsys.readouterr().out == VERIFY_N_MAX_5


@pytest.mark.parametrize("family", sorted(CORRUPTED))
def test_corrupted_family_fail_lines_are_pinned(capsys, family):
    rc = main(["verify", "--n-max", "5", "--corrupt-family", family])
    lines = capsys.readouterr().out.splitlines()
    assert rc == 1
    assert len(lines) == 25
    assert [line for line in lines if not line.startswith("PASS ")] == CORRUPTED[family]
