"""The finite obligations that prove verify's closed-form, substitute,
qp-reduction, ansatz, interleave and skein-form lines for every n, and the
samples those lines still evaluate.

Each obligation is derived again here with schoolbook products and a
term-by-term substitution, so that the proof does not rest only on the
kernels it is about.  Each negative test breaks one obligation and sees
its line fail.
"""

from __future__ import annotations

import pytest

from conftest import CTX_AZ, CTX_QP, CTX_T
from test_laurent_properties import naive_substitute
from test_multiply import schoolbook_mul as mul
from torkit import FAMILIES, KnotStepPair, LaurentPoly, parse, qp_number, solve_parameters, to_alexander
from torkit import cli
from torkit.cli import (
    ansatz_obligation,
    closed_form_obligation,
    interleave_obligation,
    qp_reduction_obligation,
    run_verification,
    sample,
    skein_form_obligation,
    substitution_obligation,
)

# U_2 and U_3 of each family's Lucas sequence, written out by hand:
# [2] and [3] of (t, t^-1), (q, p) and (t^3, t), and a^2 [2]_w, a^4 [3]_w
# with w = z^2 + 2.
LUCAS = {
    "alexander": (CTX_T, "t + t^(-1)", "t^2 + 1 + t^(-2)"),
    "generalized-alexander": (CTX_QP, "q + p", "q^2 + q*p + p^2"),
    "jones": (CTX_T, "t^3 + t", "t^6 + t^4 + t^2"),
    "homfly": (CTX_AZ, "a^2*z^2 + 2*a^2", "a^4*z^4 + 4*a^4*z^2 + 3*a^4"),
}

# Each convert direction's values of the source variables, in the target.
MAPS = {
    ("generalized-alexander", "alexander"): (CTX_T, {"q": "t", "p": "t^(-1)"}),
    ("generalized-alexander", "jones"): (CTX_T, {"q": "t^3", "p": "t"}),
    ("homfly", "generalized-alexander"): (
        CTX_QP,
        {"a": "q^(1/4)*p^(1/4)", "z": "q^(1/4)*p^(-1/4) - q^(-1/4)*p^(1/4)"},
    ),
}

HOPF = [name for name, spec in FAMILIES.items() if spec.hopf is not None]
ANSATZ = [name for name, spec in FAMILIES.items() if spec.ansatz is not None]


def lucas_pair(family: str) -> tuple[LaurentPoly, LaurentPoly]:
    """(k1', k2') = (U_2, U_3 - U_2^2), since U_0 = 0 and U_1 = 1."""
    context, u2, u3 = LUCAS[family]
    u2, u3 = parse(u2, context), parse(u3, context)
    return u2, u3 - mul(u2, u2)


def knot_step(family: str) -> tuple[LaurentPoly, LaurentPoly]:
    """(l1^2 + 2 l2, -l2^2) from the family's skein pair."""
    l1, l2 = FAMILIES[family].skein.l1, FAMILIES[family].skein.l2
    return mul(l1, l1) + 2 * l2, -mul(l2, l2)


def first_values(family: str) -> tuple[LaurentPoly, LaurentPoly]:
    """P(1) = U_1 + k2' U_0 = 1 and P(3) = U_2 + k2' U_1 = k1' + k2'."""
    k1, k2 = lucas_pair(family)
    return LaurentPoly.one(k1.context), k1 + k2


def failing_lines(reports) -> list[str]:
    return [report.format_line() for report in reports if not report.passed]


# -- each obligation holds, derived again -------------------------------------


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_closed_form_obligation_holds(family):
    spec = FAMILIES[family]
    assert lucas_pair(family) == knot_step(family)
    assert (spec.lucas_pair.k1, spec.lucas_pair.k2) == lucas_pair(family)
    assert (spec.knot_step.k1, spec.knot_step.k2) == knot_step(family)
    assert first_values(family) == (spec.value(1), spec.value(3))
    assert closed_form_obligation(spec) == ""


@pytest.mark.parametrize("key", sorted(MAPS), ids="->".join)
def test_substitution_obligation_holds(key):
    source, target = key
    context, assignments = MAPS[key]
    values = {name: parse(text, context) for name, text in assignments.items()}
    mapping = cli._CONVERSIONS[key]
    inputs = (*lucas_pair(source), *first_values(source))
    images = [naive_substitute(f, context, values) for f in inputs]
    assert images == [*lucas_pair(target), *first_values(target)]
    # The map verify applies is the one derived here.
    assert [mapping(f) for f in inputs] == images
    assert substitution_obligation(mapping, FAMILIES[source], FAMILIES[target]) == ""


def test_qp_reduction_obligation_holds():
    # [n]_{q,p} and [n]_t are the Lucas sequences of the generalized and
    # alexander families: their pairs, with [0] = 0 and [1] = 1, derived again.
    context, assignments = MAPS["generalized-alexander", "alexander"]
    values = {name: parse(text, context) for name, text in assignments.items()}
    _, u2, u3 = LUCAS["generalized-alexander"]
    assert [qp_number(n) for n in range(4)] == [
        LaurentPoly.zero(CTX_QP), LaurentPoly.one(CTX_QP), parse(u2, CTX_QP), parse(u3, CTX_QP)
    ]
    inputs = (*lucas_pair("generalized-alexander"), LaurentPoly.zero(CTX_QP), LaurentPoly.one(CTX_QP))
    images = [naive_substitute(f, context, values) for f in inputs]
    assert images == [*lucas_pair("alexander"), LaurentPoly.zero(CTX_T), LaurentPoly.one(CTX_T)]
    assert [to_alexander(f) for f in inputs] == images
    assert qp_reduction_obligation(to_alexander) == ""


@pytest.mark.parametrize("family", ANSATZ)
def test_ansatz_obligation_holds(family):
    spec = FAMILIES[family]
    context, u2, _ = LUCAS[family]
    k1, k2 = knot_step(family)
    # [m]_{qhat,phat} steps by the knot step: [2] = qhat + phat = k1, qhat*phat = -k2.
    qhat, phat = solve_parameters(spec.knot_step)
    assert qhat + phat == parse(u2, context) == k1
    assert mul(qhat, phat) == -k2
    # The ansatz at m = 0 and m = 1 against the knot step's P(1) = 1 and P(3) = k1 + k2.
    a1, a2 = spec.ansatz
    assert (a1, mul(a1, k1) - a2) == (LaurentPoly.one(context), k1 + k2)
    assert ansatz_obligation(spec) == ""


@pytest.mark.parametrize("family", HOPF)
def test_interleave_obligation_holds(family):
    spec = FAMILIES[family]
    l1, l2 = spec.skein.l1, spec.skein.l2
    assert mul(l1, spec.hopf) == mul(l1, l1) + l2 - mul(l2, l2)
    assert knot_step(family) == (spec.knot_step.k1, spec.knot_step.k2)
    assert interleave_obligation(spec) == ""


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_skein_form_obligation_holds(family):
    spec = FAMILIES[family]
    c_plus, c_minus, c_zero = spec.skein_form
    assert mul(c_plus, spec.skein.l1) == c_zero
    assert mul(c_plus, spec.skein.l2) == -c_minus
    assert skein_form_obligation(spec) == ""


def test_the_generalized_family_has_no_interleave_line():
    # l1 * base2 = l1^2 + l2 - l2^2 has no Laurent-polynomial solution there.
    names = [report.name for report in run_verification(5)]
    assert [name for name in names if name.startswith("interleave[")] == [f"interleave[{f}]" for f in HOPF]


# -- each obligation, broken alone, is reported -------------------------------


def test_substitution_obligation_checks_k2():
    # A target whose Lucas pair differs in k2' alone: its values, P(1) and
    # P(3) included, come from the closed form it was built with.
    source, target = FAMILIES["generalized-alexander"], FAMILIES["jones"]
    pair = target.lucas_pair
    wrong = target.replace(lucas_pair=KnotStepPair(pair.k1, pair.k2 + 1))
    mapping = cli._CONVERSIONS["generalized-alexander", "jones"]
    assert substitution_obligation(mapping, source, wrong) == (
        "obligation phi(k2') = k2' fails: -t^4 != -t^4 + 1"
    )


def test_qp_reduction_obligation_checks_phi_of_minus_qp():
    # A ring homomorphism that meets the other three equalities.
    values = {"q": parse("t + t^(-1) - 1", CTX_T), "p": parse("1", CTX_T)}
    assert qp_reduction_obligation(lambda f: naive_substitute(f, CTX_T, values)) == (
        "obligation phi(-qp) = -1 fails: -t + 1 - t^(-1) != -1"
    )


def test_a_wrong_ansatz_a2_fails_its_ansatz_line():
    spec = FAMILIES["jones"]
    a1, a2 = spec.ansatz
    registry = {**FAMILIES, "jones": spec.replace(ansatz=(a1, a2 + 1))}
    assert failing_lines(run_verification(5, registry)) == [
        "FAIL ansatz[jones]: first counterexample at n=1: (a1, a2) = (1, t^4) != (1, t^4 + 1)"
    ]
    # The obligation fails too, on its own.
    assert ansatz_obligation(registry["jones"]) == (
        "obligation a1*k1 - a2 = P(3) fails: -t^4 + t^3 + t - 1 != -t^4 + t^3 + t"
    )


def test_interleave_obligation_checks_the_knot_step():
    spec = FAMILIES["jones"]
    wrong = spec.replace(knot_step=KnotStepPair(spec.knot_step.k1, -spec.knot_step.k2))
    assert interleave_obligation(wrong) == (
        "obligation l_to_k(skein) = knot_step fails: (t^3 + t, -t^4) != (t^3 + t, t^4)"
    )


def test_skein_form_obligation_checks_c_minus():
    spec = FAMILIES["homfly"]
    c_plus, c_minus, c_zero = spec.skein_form
    wrong = spec.replace(skein_form=(c_plus, 2 * c_minus, c_zero))
    assert skein_form_obligation(wrong) == "obligation c_plus*l2 = -c_minus fails: a != 2*a"


def test_a_lucas_pair_off_the_knot_step_fails_with_both_pairs():
    # The closed form was built from the true pair, so every sampled case
    # passes and only the obligations that read lucas_pair fail.
    spec = FAMILIES["homfly"]
    wrong = KnotStepPair(spec.lucas_pair.k1, -spec.lucas_pair.k2)
    registry = {**FAMILIES, "homfly": spec.replace(lucas_pair=wrong)}
    assert failing_lines(run_verification(21, registry)) == [
        "FAIL closed-form-vs-recurrence[homfly]: obligation (k1', k2') = knot_step fails: "
        "(a^2*z^2 + 2*a^2, a^4) != (a^2*z^2 + 2*a^2, -a^4)",
        "FAIL substitute[homfly->generalized-alexander]: obligation phi(k2') = k2' fails: q*p != -q*p",
    ]


def test_a_changed_map_fails_its_substitute_line(monkeypatch):
    key = ("generalized-alexander", "jones")
    monkeypatch.setitem(cli._CONVERSIONS, key, cli._CONVERSIONS["generalized-alexander", "alexander"])
    lines = failing_lines(run_verification(5))
    assert [line.split(":")[0] for line in lines] == ["FAIL substitute[generalized-alexander->jones]"]


@pytest.mark.parametrize("family", HOPF)
def test_a_changed_hopf_value_fails_its_interleave_line(family):
    spec = FAMILIES[family]
    registry = {**FAMILIES, family: spec.replace(hopf=spec.hopf + 1)}
    lines = failing_lines(run_verification(5, registry))
    assert [line.split(":")[0] for line in lines] == [f"FAIL interleave[{family}]"]
    # The obligation fails too, on its own.
    assert interleave_obligation(registry[family]).startswith("obligation l1*hopf = l1^2 + l2 - l2^2 fails: ")


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_a_changed_c_zero_fails_its_skein_form_line(family):
    spec = FAMILIES[family]
    c_plus, c_minus, c_zero = spec.skein_form
    registry = {**FAMILIES, family: spec.replace(skein_form=(c_plus, c_minus, -c_zero))}
    lines = failing_lines(run_verification(5, registry))
    assert [line.split(":")[0] for line in lines] == [f"FAIL skein-form[{family}]"]
    assert skein_form_obligation(registry[family]).startswith("obligation c_plus*l1 = c_zero fails: ")


# -- the samples ---------------------------------------------------------------


def test_the_sample_is_every_n_up_to_21_and_n_max():
    assert sample(41, 1, 2) == [*range(1, 22, 2), 41]
    assert len(sample(41, 1, 2)) == 12
    assert sample(41, 3, 1) == [*range(3, 22), 41]
    assert sample(21, 1, 2) == [*range(1, 22, 2)]
    assert sample(23, 1, 2) == [*range(1, 22, 2), 23]
    assert sample(5, 3, 1) == [3, 4, 5]


def test_proved_lines_count_their_samples():
    lines = {report.name: report.format_line() for report in run_verification(41)}
    assert lines["substitute[homfly->generalized-alexander]"] == (
        "PASS substitute[homfly->generalized-alexander] (proved for all odd n; 12 cases sampled)"
    )
    assert lines["interleave[jones]"] == "PASS interleave[jones] (proved for all odd n; 12 cases sampled)"
    assert lines["skein-form[alexander]"] == "PASS skein-form[alexander] (proved for all n; 20 cases sampled)"
    assert lines["qp-number-reduces-to-q"] == "PASS qp-number-reduces-to-q (proved for all n; 23 cases sampled)"
    assert lines["ansatz[generalized-alexander]"] == (
        "PASS ansatz[generalized-alexander] (proved for all odd n; 12 cases sampled)"
    )
    # The closed form keeps its sweep of every odd n: it alone tests the Lucas code at every n.
    assert lines["closed-form-vs-recurrence[jones]"] == (
        "PASS closed-form-vs-recurrence[jones] (proved for all odd n; 21 cases sampled)"
    )
    assert sum("proved" in line for line in lines.values()) == 18


def test_a_mismatch_at_n_max_alone_is_sampled(monkeypatch):
    # A map that is wrong only past n = 21 is caught at n_max, which every sample holds.
    key = ("homfly", "generalized-alexander")
    real = cli._CONVERSIONS[key]

    def wrong_past_21(f):
        return real(f) + (1 if f.num_terms > 22 else 0)

    monkeypatch.setitem(cli._CONVERSIONS, key, wrong_past_21)
    assert FAMILIES["homfly"].value(21).num_terms <= 22 < FAMILIES["homfly"].value(23).num_terms
    lines = failing_lines(run_verification(25))
    assert [line.split(":")[0] for line in lines] == ["FAIL substitute[homfly->generalized-alexander]"]
    assert "first counterexample at n=25: " in lines[0]


def test_a_reduction_wrong_past_21_is_caught_at_n_max(monkeypatch):
    # The qp line looks to_alexander up when it runs; the substitute line
    # keeps the map _CONVERSIONS holds.
    real = cli.to_alexander
    monkeypatch.setattr(cli, "to_alexander", lambda f: real(f) + (1 if f.num_terms > 21 else 0))
    assert qp_number(21).num_terms == 21 < qp_number(22).num_terms
    lines = failing_lines(run_verification(25))
    assert [line.split(":")[0] for line in lines] == ["FAIL qp-number-reduces-to-q"]
    assert "first counterexample at n=25: " in lines[0]


def test_the_sampled_sweeps_still_call_to_alexander_and_fit_ansatz(monkeypatch):
    # The traced benchmark run of verify needs both layers to record calls.
    mapped, fitted = [], []
    real_map, real_fit = cli.to_alexander, cli.fit_ansatz

    def to_alexander(f):
        mapped.append(f)
        return real_map(f)

    def fit_ansatz(seq, qhat, phat):
        fitted.append(sorted(seq))
        return real_fit(seq, qhat, phat)

    monkeypatch.setattr(cli, "to_alexander", to_alexander)
    monkeypatch.setattr(cli, "fit_ansatz", fit_ansatz)
    assert all(report.passed for report in run_verification(41))
    # The obligation maps four polynomials, then the sweep maps each sampled [n]_{q,p}.
    assert mapped[4:] == [qp_number(n) for n in sample(41, 0, 1)]
    assert fitted == [sample(41, 1, 2)] * len(ANSATZ)
