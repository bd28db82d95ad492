#!/usr/bin/env python3
"""Mutant gate: each fast kernel check, the dict step's accumulate loop,
each part of the frozen records' contract, each guard of the JSON writer
and of the context checks, and each part of verify's finite obligations
and of its sample must be one that some test needs.

Every row of MUTANTS names a file under src/, a snippet that must occur in
it exactly once, the snippet's replacement (a deliberately broken check),
and the pytest node that must then fail.  The script copies src/ and
tests/ to a temporary directory and, for each row, applies the mutant to
the copy and runs that node there; the working tree is never changed.
Before that, every named node must pass on an unchanged copy.

The gate fails, naming the row, when a snippet does not occur exactly once
(the code moved on and the row must be rewritten), when the unchanged nodes
fail, or when a mutant survives (its node passes).  Stdlib only:

    python scripts/mutants.py
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

LAURENT = "torkit/laurent.py"
QNUMBERS = "torkit/qnumbers.py"
SKEIN_TESTS = "tests/test_skein.py"
PROPERTIES = "tests/test_laurent_properties.py"
LAURENT_TESTS = "tests/test_laurent.py"
MULTIPLY_TESTS = "tests/test_multiply.py"
RECORDS = "tests/test_records.py"
QNUMBER_TESTS = "tests/test_qnumbers.py"
CLI = "torkit/cli.py"
OBLIGATION_TESTS = "tests/test_obligations.py"

# (name, file under src/, snippet, replacement, pytest node that must fail)
MUTANTS = [
    # The recurrence stepper, laurent._steps, and its packed kernel, laurent._packed_steps.
    (
        "recurrence: a bound of exactly `width` bits kept in `width`-bit slots (no sign bit)",
        LAURENT,
        "if bound.bit_length() >= width or (r1 > r0",
        "if bound.bit_length() > width or (r1 > r0",
        f"{SKEIN_TESTS}::test_slot_width_bound_is_tight_at_every_width",
    ),
    (
        "recurrence: slots a width too narrow at each width edge (a bound of 2^(w-1) in w-bit slots)",
        LAURENT,
        "width = max(width, _width(bound))",
        "width = max(width, _width(bound >> 1))",
        f"{SKEIN_TESTS}::test_slot_width_bound_is_tight_at_every_width",
    ),
    (
        "recurrence: row span bound off by one",
        LAURENT,
        "(r1 > r0 and k1 - k0 >= cols)",
        "(r1 > r0 and k1 - k0 > cols)",
        f"{SKEIN_TESTS}::test_row_span_bound_meets_its_edge",
    ),
    (
        "recurrence: no hand-over to _linear past 64-bit slots",
        LAURENT,
        "if bound.bit_length() >= 64:\n                return",
        "if False:\n                return",
        f"{SKEIN_TESTS}::test_which_kernel_steps_each_entry",
    ),
    (
        "recurrence: the inherited bounds tightened to each other's maxima",
        LAURENT,
        "old[2], new[2] = (max(",
        "new[2], old[2] = (max(",
        f"{SKEIN_TESTS}::test_fused_steps_match_the_naive_stepper[homfly]",
    ),
    (
        "recurrence: a one-row entry wider than cols read in rows cols slots long",
        LAURENT,
        "row = max(cols, k1 - k0 + 1)",
        "row = cols",
        f"{SKEIN_TESTS}::test_a_one_row_entry_outgrows_the_row_length",
    ),
    (
        "recurrence: kept one-variable keys read one slot late",
        LAURENT,
        "keys = known[k0 - low : k1 - low + 1]",
        "keys = known[k0 - low + 1 : k1 - low + 2]",
        f"{SKEIN_TESTS}::test_fused_steps_match_the_naive_stepper[alexander]",
    ),
    (
        "recurrence: no small-entry cutoff",
        LAURENT,
        "while cur.num_terms < _PACKED_MIN_TERMS:",
        "while cur.num_terms < 0:",
        f"{SKEIN_TESTS}::test_which_kernel_steps_each_entry",
    ),
    # The dict step, laurent._linear, and the accumulate loop it shares, laurent._add_scaled.
    (
        "linear: no delete on cancel in the one-variable loop",
        LAURENT,
        "                    del out[k]\n        else:",
        "                    out[k] = v\n        else:",
        f"{MULTIPLY_TESTS}::test_linear_matches_schoolbook",
    ),
    (
        "linear: x's terms aliased as the first copy when c1 leads with 1",
        LAURENT,
        "_add_scaled(_scale_terms({key: c}, terms), rest)",
        "_add_scaled(terms if c == 1 and not any(key) else _scale_terms({key: c}, terms), rest)",
        f"{MULTIPLY_TESTS}::test_linear_matches_schoolbook",
    ),
    (
        "linear: the shift's sign flipped in the one-variable loop",
        LAURENT,
        "k = (e + s,)",
        "k = (e - s,)",
        f"{MULTIPLY_TESTS}::test_linear_matches_schoolbook",
    ),
    (
        "linear: the shift's sign flipped in the two-variable loop",
        LAURENT,
        "k = (e0 + s0, e1 + s1)",
        "k = (e0 - s0, e1 - s1)",
        f"{MULTIPLY_TESTS}::test_linear_matches_schoolbook",
    ),
    # exact_sqrt's packed path, laurent._packed_sqrt.
    (
        "sqrt: no G * G == F check",
        LAURENT,
        "    if root * root != packed:\n        return None",
        "",
        f"{PROPERTIES}::test_each_packed_check_meets_an_input_only_it_rejects[root squared is the packed square]",
    ),
    (
        "sqrt: no norm bound",
        LAURENT,
        "    if sum(c * c for c in g_terms.values()) > norm:\n        return None",
        "",
        f"{PROPERTIES}::test_each_packed_check_meets_an_input_only_it_rejects[norm bound]",
    ),
    (
        "sqrt: no column bound",
        LAURENT,
        "if arity == 2 and 2 * (max(k for _, k in _points(g_terms))",
        "if False and 2 * (max(k for _, k in _points(g_terms))",
        f"{PROPERTIES}::test_each_packed_check_meets_an_input_only_it_rejects[column bound]",
    ),
    (
        "sqrt: no box guard",
        LAURENT,
        "    if prod(spans) > 4 * len(terms):\n        return None",
        "",
        f"{PROPERTIES}::test_a_sparse_box_is_never_packed",
    ),
    (
        "sqrt: no width cutoff",
        LAURENT,
        "    if width > _PACKED_SQRT_MAX_BITS:\n        return None",
        "",
        f"{PROPERTIES}::test_which_path_takes_a_root[homfly 301 squared]",
    ),
    (
        "sqrt: no _KRONECKER_MIN_TERMS gate",
        LAURENT,
        "if len(terms) >= _KRONECKER_MIN_TERMS:\n        g_terms = _packed_sqrt(",
        "if True:\n        g_terms = _packed_sqrt(",
        f"{PROPERTIES}::test_which_path_takes_a_root[k_to_l jones]",
    ),
    # Packed substitution, laurent._horner.
    (
        "horner: slots a width too narrow at each width edge (a bound of 2^(w-1) in w-bit slots)",
        LAURENT,
        "for j, c in coeffs.items()))",
        "for j, c in coeffs.items()) >> 1)",
        f"{PROPERTIES}::test_slot_width_at_a_power_of_two",
    ),
    (
        "horner: decode low corner off by one",
        LAURENT,
        "low = [b + x for b, x in zip(base,",
        "low = [b + x + 1 for b, x in zip(base,",
        f"{PROPERTIES}::test_homfly_bridge_matches_naive_expansion",
    ),
    (
        "horner: Horner move off by one slot",
        LAURENT,
        "acc, at, down = 0, width * top, width * move",
        "acc, at, down = 0, width * top, width * (move + 1)",
        "tests/test_laurent.py::TestSubstitutePoly::test_homfly_bridge_for_the_trefoil",
    ),
    (
        "horner: groups that share output keys merged by dict.update",
        LAURENT,
        "return _add_scaled(pieces.pop(), [(zero, 1, terms) for terms in pieces])",
        "return {key: c for terms in pieces for key, c in terms.items()}",
        f"{PROPERTIES}::test_images_that_cancel_to_zero[2*a - z-q-2*q]",
    ),
    # The slot reader all four packed kernels share, laurent._unpack.
    (
        "codec: two-variable keys read one slot late",
        LAURENT,
        "zip(repeat(r), range(k0 - r, span.stop - r, gk))",
        "zip(repeat(r), range(k0 - r + gk, span.stop - r + gk, gk))",
        "tests/test_multiply.py::test_large_squares_match_schoolbook[homfly-201]",
    ),
    # exact_sqrt's heap loop.
    (
        "sqrt heap loop: no push of the keys a step creates",
        LAURENT,
        "                heappush(frontier, -key)",
        "                pass",
        f"{LAURENT_TESTS}::TestExactSqrt::test_square_lacking_a_key_that_its_root_steps_create",
    ),
    (
        "sqrt heap loop: a push only for the keys of 2 g t",
        LAURENT,
        "                heappush(frontier, -key)",
        "                if gk != t_key:\n                    heappush(frontier, -key)",
        f"{LAURENT_TESTS}::TestExactSqrt::test_square_lacking_a_key_that_its_root_steps_create",
    ),
    (
        "sqrt heap loop: a push only for the key of t^2",
        LAURENT,
        "                heappush(frontier, -key)",
        "                if gk == t_key:\n                    heappush(frontier, -key)",
        f"{LAURENT_TESTS}::TestExactSqrt::test_square_lacking_a_key_that_its_root_steps_create",
    ),
    (
        "sqrt heap loop: no skip of stale keys",
        LAURENT,
        "        if rc is None:\n            continue\n",
        "",
        f"{LAURENT_TESTS}::TestExactSqrt::test_square_whose_steps_cancel_keys_ahead_of_them",
    ),
    (
        "sqrt heap loop: a popped key decoded without its offset",
        LAURENT,
        "x0 = (rk - lo1) // w",
        "x0 = rk // w",
        f"{LAURENT_TESTS}::TestExactSqrt::test_long_square",
    ),
    (
        "sqrt heap loop: no lower half-box bound",
        LAURENT,
        "min0 <= 2 * x0 <= max0 and min1 <= 2 * x1 <= max1",
        "2 * x0 <= max0 and 2 * x1 <= max1",
        f"{LAURENT_TESTS}::TestExactSqrt::test_formal_root_leaving_the_box_rejected",
    ),
    (
        "sqrt heap loop: no upper half-box bound",
        LAURENT,
        "min0 <= 2 * x0 <= max0 and min1 <= 2 * x1 <= max1",
        "min0 <= 2 * x0 and min1 <= 2 * x1",
        f"{LAURENT_TESTS}::TestExactSqrt::test_root_term_above_the_half_box_rejected",
    ),
    (
        "sqrt heap loop: a norm budget one lower",
        LAURENT,
        "budget = norm - lc",
        "budget = norm - lc - 1",
        f"{LAURENT_TESTS}::TestExactSqrt::test_perfect_square_binomial",
    ),
    # The frozen records' base, laurent._Frozen.
    (
        "records: the base's __eq__ without its class check",
        LAURENT,
        "if other.__class__ is self.__class__:\n            return self._values() == other._values()",
        "if True:\n            return self._values() == other._values()",
        f"{RECORDS}::test_equality_holds_only_within_one_class",
    ),
    (
        "records: the base's __setattr__ assigns instead of raising",
        LAURENT,
        '        raise AttributeError(f"cannot assign to field',
        '        return object.__setattr__(self, name, value)\n        raise AttributeError(f"cannot assign to field',
        f"{RECORDS}::test_fields_cannot_be_assigned_or_deleted",
    ),
    (
        "records: the pickle hook rebuilds with the last field missing",
        LAURENT,
        "return self.__class__, self._values()",
        "return self.__class__, self._values()[:-1]",
        f"{RECORDS}::test_pickle_and_deepcopy_round_trip",
    ),
    # The JSON writer, laurent.to_json, and the context checks that test identity first.
    (
        "json: no fallback past the int/str digit limit",
        LAURENT,
        "    except ValueError:\n        terms = [",
        "    except ZeroDivisionError:\n        terms = [",
        f"{LAURENT_TESTS}::TestJson::test_coefficients_past_the_int_str_digit_limit_round_trip",
    ),
    (
        "contexts: uv_number tests identity only, with no equality fallback",
        QNUMBERS,
        "if v.context is not context and v.context != context:",
        "if v.context is not context:",
        f"{QNUMBER_TESTS}::TestUVNumber::test_v_from_an_equal_context_object_is_no_context_mismatch",
    ),
    # verify's finite obligations and the sample its proved checks evaluate, in cli.
    (
        "obligations: a substitution's without its k2' equality",
        CLI,
        """        ("phi(k2') = k2'", mapping(s.k2), t.k2),\n""",
        "",
        f"{OBLIGATION_TESTS}::test_substitution_obligation_checks_k2",
    ),
    (
        "obligations: the qp reduction's without its phi(-qp) = -1 equality",
        CLI,
        """        ("phi(-qp) = -1", mapping(qp_number(3) - qp2 * qp2), q_number(3, "t") - t2 * t2),\n""",
        "",
        f"{OBLIGATION_TESTS}::test_qp_reduction_obligation_checks_phi_of_minus_qp",
    ),
    (
        "obligations: the ansatz's without a1*k1 - a2 = P(3)",
        CLI,
        """        ("a1*k1 - a2 = P(3)", a1 * k1 - a2, k1 + k2),\n""",
        "",
        f"{OBLIGATION_TESTS}::test_a_wrong_ansatz_a2_fails_its_ansatz_line",
    ),
    (
        "obligations: interleave's without l_to_k(skein) == knot_step",
        CLI,
        """        ("l_to_k(skein) = knot_step", _pair(l_to_k(spec.skein)), _pair(spec.knot_step)),\n""",
        "",
        f"{OBLIGATION_TESTS}::test_interleave_obligation_checks_the_knot_step",
    ),
    (
        "obligations: skein-form's without its c_minus equality",
        CLI,
        """        ("c_plus*l2 = -c_minus", c_plus * spec.skein.l2, -c_minus),\n""",
        "",
        f"{OBLIGATION_TESTS}::test_skein_form_obligation_checks_c_minus",
    ),
    (
        "obligations: a sample that drops n = n_max",
        CLI,
        "return [*low, n_max] if n_max > _SAMPLED_UP_TO else list(low)",
        "return list(low)",
        f"{OBLIGATION_TESTS}::test_the_sample_is_every_n_up_to_21_and_n_max",
    ),
]


def pytest(copy: Path, *nodes: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *nodes]
    return subprocess.run(argv, cwd=copy, env=env, capture_output=True, text=True)


def main() -> int:
    problems = []
    with tempfile.TemporaryDirectory() as tmp:
        # The tests run from the copy too, so that nothing they write (a
        # Hypothesis example database) lands in the working tree.
        copy = Path(tmp)
        for folder in ("src", "tests"):
            shutil.copytree(ROOT / folder, copy / folder, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", copy)
        src = copy / "src"
        baseline = pytest(copy, *sorted({row[4] for row in MUTANTS}))
        if baseline.returncode != 0:
            print(baseline.stdout[-3000:])
            print("FAIL the named nodes do not all pass on an unchanged copy of src/")
            return 1
        for name, file, snippet, replacement, node in MUTANTS:
            path = src / file
            original = path.read_text()
            count = original.count(snippet)
            if count != 1:
                problems.append(f"{name}: its snippet occurs {count} times in src/{file}, not once")
                continue
            path.write_text(original.replace(snippet, replacement))
            start = time.perf_counter()
            # Exit code 1 is a failing test; 2-5 (an error in pytest, a node
            # that does not exist) would only hide the mutant.
            outcome = pytest(copy, node).returncode
            path.write_text(original)
            verdict = "killed" if outcome == 1 else "SURVIVED" if outcome == 0 else f"pytest exit {outcome}"
            print(f"{verdict:8s} {name}  ({node}, {time.perf_counter() - start:.1f} s)")
            if outcome != 1:
                problems.append(f"{name}: {verdict} under {node}")
    for problem in problems:
        print(f"FAIL {problem}")
    print(f"{len(MUTANTS) - len(problems)}/{len(MUTANTS)} mutants killed by their tests")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
