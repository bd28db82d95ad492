"""End-to-end tests for the torkit command line interface.

Exit code contract: 0 on success, 1 when a verification check fails or
another library error ends the command, 2 on usage errors (including even
torus indices).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

from conftest import CTX_QP
from torkit import EvenIndexUnsupported, FamilySpec, InvalidTorusIndex, LaurentPoly, NotAPerfectSquare, TorkitError, jones_number, parse, to_json_obj
from torkit import cli, families, skein
from torkit.cli import _corrupted_registry, main, run_verification
from torkit.skein import odd_index


PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestCompute:
    def test_generalized_trefoil_text(self, capsys):
        rc, out, _ = run(capsys, "compute", "--family", "generalized-alexander", "--n", "3")
        assert rc == 0
        assert out.strip() == "-q*p + q + p"

    def test_alexander_trefoil_text(self, capsys):
        rc, out, _ = run(capsys, "compute", "--family", "alexander", "--n", "3")
        assert rc == 0
        assert out.strip() == "t - 1 + t^(-1)"

    def test_jones_cinquefoil_text(self, capsys):
        rc, out, _ = run(capsys, "compute", "--family", "jones", "--n", "5")
        assert rc == 0
        assert out.strip() == "-t^7 + t^6 - t^5 + t^4 + t^2"

    def test_json_output_round_trips(self, capsys):
        rc, out, _ = run(
            capsys, "compute", "--family", "homfly", "--n", "5", "--format", "json"
        )
        assert rc == 0
        record = json.loads(out)
        assert record["family"] == "homfly"
        assert record["n"] == 5
        from torkit import homfly_torus

        assert record["polynomial"] == to_json_obj(homfly_torus(5))

    def test_even_index_is_usage_error(self, capsys):
        rc, _, err = run(capsys, "compute", "--family", "jones", "--n", "4")
        assert rc == 2
        assert "even" in err.lower()

    def test_unknown_family_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["compute", "--family", "kauffman", "--n", "3"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_nonpositive_index_is_usage_error(self, capsys):
        rc, _, err = run(capsys, "compute", "--family", "jones", "--n", "-3")
        assert rc == 2
        assert err

    def test_other_library_errors_exit_1_with_one_error_line(self, capsys, monkeypatch):
        def value(spec, n):
            raise NotAPerfectSquare("leading coefficient is negative")

        monkeypatch.setattr(FamilySpec, "value", value)
        rc, out, err = run(capsys, "compute", "--family", "jones", "--n", "3")
        assert (rc, out, err) == (1, "", "error: leading coefficient is negative\n")


class TestTable:
    def test_text_rows(self, capsys):
        rc, out, _ = run(capsys, "table", "--family", "alexander", "--n-max", "5")
        assert rc == 0
        lines = out.strip().splitlines()
        assert lines == [
            "1\t1",
            "3\tt - 1 + t^(-1)",
            "5\tt^2 - t + 1 - t^(-1) + t^(-2)",
        ]

    @pytest.mark.parametrize("family", list(families.FAMILIES))
    def test_rows_match_the_closed_form(self, capsys, family):
        rc, out, _ = run(capsys, "table", "--family", family, "--n-max", "9")
        assert rc == 0
        spec = families.FAMILIES[family]
        assert out.splitlines() == [f"{n}\t{spec.value(n)}" for n in range(1, 10, 2)]

    def test_json_rows_are_newline_delimited_records(self, capsys):
        rc, out, _ = run(
            capsys, "table", "--family", "generalized-alexander", "--n-max", "7",
            "--format", "json",
        )
        assert rc == 0
        records = [json.loads(line) for line in out.strip().splitlines()]
        assert [r["n"] for r in records] == [1, 3, 5, 7]
        assert records[1]["polynomial"] == to_json_obj(parse("q + p - q*p", CTX_QP))

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("family", list(families.FAMILIES))
    @pytest.mark.parametrize("n_max", [1, 3, 101, 301])
    def test_streamed_rows_match_the_built_sequence(self, capsys, n_max, family, fmt):
        """Rows printed as the knot step makes them are the rows of the whole
        sequence, built first and each rendered through OutputRecord."""
        rc, out, _ = run(capsys, "table", "--family", family, "--n-max", str(n_max), "--format", fmt)
        expected = ""
        for n, value in families.FAMILIES[family].sequence(n_max).items():
            line = cli.OutputRecord(family, n, value, fmt).render()
            expected += (line if fmt == "json" else f"{n}\t{line}") + "\n"
        assert (rc, out) == (0, expected)

    def test_even_bound_is_usage_error(self, capsys):
        rc, _, err = run(capsys, "table", "--family", "alexander", "--n-max", "6")
        assert rc == 2
        assert err

    def test_recurrence_family_rejects_nonpositive_bound(self, capsys):
        rc, out, err = run(capsys, "table", "--family", "homfly", "--n-max", "0")
        assert rc == 2
        assert out == ""
        assert err


class TestQnum:
    def test_symmetric(self, capsys):
        rc, out, _ = run(capsys, "qnum", "--n", "4")
        assert rc == 0
        assert out.strip() == "q^3 + q + q^(-1) + q^(-3)"

    def test_two_parameter(self, capsys):
        rc, out, _ = run(capsys, "qnum", "--kind", "qp", "--n", "3")
        assert rc == 0
        assert out.strip() == "q^2 + q*p + p^2"

    def test_jones_kind(self, capsys):
        rc, out, _ = run(capsys, "qnum", "--kind", "jones", "--n", "3")
        assert rc == 0
        assert out.strip() == "t^6 + t^4 + t^2"

    def test_negative_rejected(self, capsys):
        rc, _, err = run(capsys, "qnum", "--n", "-1")
        assert rc == 2
        assert err


class TestConvert:
    def test_generalized_to_alexander(self, capsys):
        rc, out, _ = run(
            capsys, "convert", "--from", "generalized-alexander",
            "--to", "alexander", "--n", "5",
        )
        assert rc == 0
        assert out.strip() == "t^2 - t + 1 - t^(-1) + t^(-2)"

    def test_generalized_to_jones(self, capsys):
        rc, out, _ = run(
            capsys, "convert", "--from", "generalized-alexander",
            "--to", "jones", "--n", "3",
        )
        assert rc == 0
        assert out.strip() == "-t^4 + t^3 + t"

    def test_homfly_to_generalized(self, capsys):
        rc, out, _ = run(
            capsys, "convert", "--from", "homfly",
            "--to", "generalized-alexander", "--n", "5",
        )
        assert rc == 0
        assert out.strip() == "-q^2*p + q^2 - q*p^2 + q*p + p^2"

    def test_even_index_is_usage_error(self, capsys):
        rc, out, err = run(
            capsys, "convert", "--from", "homfly",
            "--to", "generalized-alexander", "--n", "4",
        )
        assert rc == 2
        assert out == ""
        assert "even" in err.lower()

    def test_unsupported_direction_is_usage_error(self, capsys):
        rc, _, err = run(
            capsys, "convert", "--from", "alexander", "--to", "jones", "--n", "3"
        )
        assert rc == 2
        assert "convert" in err or "support" in err


# Every integer option, as argv with the value left for last.
INTEGER_OPTIONS = [
    ["compute", "--family", "jones", "--n"],
    ["table", "--family", "alexander", "--n-max"],
    ["verify", "--n-max"],
    ["convert", "--from", "homfly", "--to", "generalized-alexander", "--n"],
    ["qnum", "--n"],
]


class TestJsonRecordBytes:
    """A JSON record is exactly the compact json.dumps of its three fields,
    with the polynomial in to_json_obj form, for every command that prints one."""

    CASES = [
        (("compute", "--family", "generalized-alexander", "--n", "31"), "generalized-alexander",
         lambda n: families.generalized_alexander_torus(n), [31]),
        (("table", "--family", "alexander", "--n-max", "21"), "alexander",
         lambda n: families.alexander_torus(n), list(range(1, 22, 2))),
        (("table", "--family", "jones", "--n-max", "9"), "jones", lambda n: families.jones_torus(n), [1, 3, 5, 7, 9]),
        (("table", "--family", "homfly", "--n-max", "7"), "homfly", lambda n: families.homfly_torus(n), [1, 3, 5, 7]),
        (("convert", "--from", "homfly", "--to", "generalized-alexander", "--n", "11"),
         "homfly->generalized-alexander", lambda n: families.homfly_to_generalized(families.homfly_torus(n)), [11]),
        (("qnum", "--kind", "jones", "--n", "6"), "qnum:jones", lambda n: jones_number(n), [6]),
    ]

    @staticmethod
    def expected(label, n, value):
        return json.dumps({"family": label, "n": n, "polynomial": to_json_obj(value)}, separators=(",", ":"))

    @pytest.mark.parametrize("argv, label, build, ns", CASES, ids=[" ".join(c[0][:3]) for c in CASES])
    def test_render_and_output_equal_json_dumps(self, capsys, argv, label, build, ns):
        lines = [self.expected(label, n, build(n)) for n in ns]
        assert [cli.OutputRecord(label, n, build(n), "json").render() for n in ns] == lines
        rc, out, _ = run(capsys, *argv, "--format", "json")
        assert rc == 0
        assert out == "".join(line + "\n" for line in lines)


class TestStrictIntegers:
    """CLI integers follow the JSON coefficient rule: '-'? and ASCII digits."""

    @pytest.mark.parametrize("argv", INTEGER_OPTIONS, ids=lambda argv: argv[0])
    @pytest.mark.parametrize("value", ["٣", "1_1", " 5 ", "+5", "5.0", ""])
    def test_other_spellings_exit_2_with_no_output(self, capsys, argv, value):
        with pytest.raises(SystemExit) as exc:
            main([*argv, value])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "invalid" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["compute", "--family", "jones", "--n", "-1"], "torus index must be a positive integer, got -1"),
            (["qnum", "--n", "-1"], "--n must be >= 0, got -1"),
            (["compute", "--family", "jones", "--n", "4"], "T(4,2) is a two-component link"),
            (["table", "--family", "alexander", "--n-max", "6"], "T(6,2) is a two-component link"),
            (["verify", "--n-max", "4"], "T(4,2) is a two-component link"),
        ],
    )
    def test_negative_and_even_indices_keep_their_messages(self, capsys, argv, message):
        rc, out, err = run(capsys, *argv)
        assert rc == 2
        assert out == ""
        assert err.startswith(f"error: {message}")

    def test_leading_zeros_are_decimal(self, capsys):
        rc, out, _ = run(capsys, "qnum", "--n", "004")
        assert rc == 0
        assert out.strip() == "q^3 + q + q^(-1) + q^(-3)"


class TestVerify:
    def test_default_battery_passes(self, capsys):
        rc, out, _ = run(capsys, "verify", "--n-max", "9")
        assert rc == 0
        lines = out.strip().splitlines()
        assert all(line.startswith("PASS") for line in lines[:-1])
        assert lines[-1].endswith("checks passed")

    def test_named_checks_present(self, capsys):
        _, out, _ = run(capsys, "verify", "--n-max", "5")
        for fragment in [
            "closed-form-vs-recurrence[jones]",
            "substitute[generalized-alexander->alexander]",
            "substitute[homfly->generalized-alexander]",
            "q-number-recurrence",
            "ansatz[generalized-alexander]",
            "interleave[homfly]",
            "k-roundtrip[alexander]",
            "skein-form[generalized-alexander]",
        ]:
            assert fragment in out, fragment

    def test_corrupt_family_fails_with_counterexample(self, capsys):
        rc, out, _ = run(
            capsys, "verify", "--n-max", "3", "--corrupt-family", "alexander"
        )
        assert rc == 1
        assert "FAIL" in out
        assert "n=3" in out

    def test_ansatz_mismatch_reports_the_fit_against_the_registry(self, monkeypatch, capsys):
        spec = cli.FAMILIES["jones"]
        wrong = (parse("1", families.T_CTX), parse("t^2", families.T_CTX))
        monkeypatch.setitem(cli.FAMILIES, "jones", spec.replace(ansatz=wrong))
        rc, out, _ = run(capsys, "verify", "--n-max", "5")
        assert rc == 1
        assert [line for line in out.splitlines() if not line.startswith("PASS ")] == [
            "FAIL ansatz[jones]: first counterexample at n=1: (a1, a2) = (1, t^4) != (1, t^2)",
            "23/24 checks passed",
        ]

    def test_k_roundtrip_mismatch_reports_both_pairs(self, monkeypatch, capsys):
        real = cli.k_to_l
        monkeypatch.setattr(cli, "k_to_l", lambda k: skein.SkeinPair(real(k).l1, -real(k).l2))
        rc, out, _ = run(capsys, "verify", "--n-max", "5")
        assert rc == 1
        assert [line for line in out.splitlines() if not line.startswith("PASS ")] == [
            "FAIL k-roundtrip[alexander]: first counterexample at n=0: "
            "(t - 4 + t^(-1), -1) != (t + t^(-1), -1)",
            "FAIL k-roundtrip[generalized-alexander]: first counterexample at n=0: "
            "(q - 4*q^(1/2)*p^(1/2) + p, -q*p) != (q + p, -q*p)",
            "FAIL k-roundtrip[jones]: first counterexample at n=0: "
            "(t^3 - 4*t^2 + t, -t^4) != (t^3 + t, -t^4)",
            "FAIL k-roundtrip[homfly]: first counterexample at n=0: "
            "(a^2*z^2 - 2*a^2, -a^4) != (a^2*z^2 + 2*a^2, -a^4)",
            "20/24 checks passed",
        ]

    def test_ansatz_checks_follow_the_registry(self, capsys):
        assert families.FAMILIES["homfly"].ansatz is None
        _, out, _ = run(capsys, "verify", "--n-max", "5")
        ansatz_lines = [line for line in out.splitlines() if "ansatz[" in line]
        assert ansatz_lines == [
            f"PASS ansatz[{f}] (proved for all odd n; 3 cases sampled)"
            for f in ("alexander", "generalized-alexander", "jones")
        ]

    def test_a_failing_report_holds_one_counterexample(self):
        reports = run_verification(101, _corrupted_registry("homfly"))
        failing = [r for r in reports if not r.passed]
        assert [r.name for r in failing] == [
            "closed-form-vs-recurrence[homfly]", "interleave[homfly]"
        ]
        for report in failing:
            assert report.failure.count("counterexample") == 1
            assert report.format_line() == f"FAIL {report.name}: {report.failure}"

    def test_an_input_that_fails_to_build_fails_each_of_its_readers(self, monkeypatch):
        """A builder that raises is caught by the guard of every check that
        reads its input; functools.cache keeps no exception, so each reader
        tries the build again."""
        attempts = []
        value = FamilySpec.value

        def failing_value(spec, n):
            if spec.name != "jones":
                return value(spec, n)
            attempts.append(n)
            raise TorkitError(f"cannot build T({n},2)")

        monkeypatch.setattr(FamilySpec, "value", failing_value)
        reports = run_verification(5)
        assert len(reports) == 24
        assert [r.format_line() for r in reports if not r.passed] == [
            "FAIL closed-form-vs-recurrence[jones]: TorkitError: cannot build T(1,2)",
            "FAIL substitute[generalized-alexander->jones]: TorkitError: cannot build T(1,2)",
        ]
        assert attempts == [1, 1]

    def test_even_bound_is_usage_error(self, capsys):
        rc, _, err = run(capsys, "verify", "--n-max", "8")
        assert rc == 2
        assert err

    def test_even_bound_reports_the_index_check(self, capsys):
        rc, out, err = run(capsys, "verify", "--n-max", "8")
        with pytest.raises(InvalidTorusIndex) as info:
            odd_index(8)
        assert rc == 2
        assert out == ""
        assert err == f"error: {info.value}\n"

    def test_bound_of_one_is_usage_error_naming_the_trefoil(self, capsys):
        rc, out, err = run(capsys, "verify", "--n-max", "1")
        assert rc == 2
        assert out == ""
        assert err.startswith("error: ") and "T(3,2)" in err

    def test_library_call_rejects_bound_of_one_naming_the_trefoil(self):
        with pytest.raises(InvalidTorusIndex) as info:
            run_verification(1)
        assert "T(3,2)" in str(info.value)

    def test_library_call_rejects_even_bound_through_the_index_check(self):
        with pytest.raises(EvenIndexUnsupported) as info:
            run_verification(8)
        with pytest.raises(InvalidTorusIndex) as expected:
            odd_index(8)
        assert str(info.value) == str(expected.value)

    @pytest.mark.parametrize("corrupt", [None, *sorted(families.FAMILIES)])
    def test_each_input_is_built_once(self, monkeypatch, corrupt):
        """No sequence builder runs twice with equal arguments in one run.
        Arguments are compared with ==, since LaurentPoly is unhashable."""
        calls = []

        def recording(label, fn):
            def wrapper(*args, **kwargs):
                calls.append((label, args, kwargs))
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(FamilySpec, "sequence", recording("sequence", FamilySpec.sequence))
        for label in ("gen_odd_sequence", "gen_full_sequence"):
            wrapper = recording(label, getattr(skein, label))
            for module in (cli, families, skein):
                if hasattr(module, label):
                    monkeypatch.setattr(module, label, wrapper)
        registry = _corrupted_registry(corrupt) if corrupt else None
        run_verification(21, registry)
        assert {label for label, _, _ in calls} == {
            "sequence", "gen_odd_sequence", "gen_full_sequence"
        }
        repeated = [
            (label, args)
            for i, (label, args, kwargs) in enumerate(calls)
            if (label, args, kwargs) in calls[:i]
        ]
        assert not repeated

    def test_inputs_are_released_after_their_last_reader(self, monkeypatch):
        """The closed-form values are last read by substitute[...] and the
        knot-step sequences by interleave[...]; neither outlives its readers.
        Besides the 11 values of each family, each substitute[...] obligation
        builds P(1) and P(3) of its two families."""

        class TrackedPoly(LaurentPoly):
            __slots__ = ("__weakref__",)

        class TrackedDict(dict):
            pass

        values, sequences, alive = [], [], {}
        value, sequence = FamilySpec.value, FamilySpec.sequence

        def tracked_value(spec, n):
            out = TrackedPoly._make(spec.context, value(spec, n).terms)
            values.append(weakref.ref(out))
            return out

        def tracked_sequence(spec, n_max):
            out = TrackedDict(sequence(spec, n_max))
            sequences.append(weakref.ref(out))
            return out

        def probe(label, fn):
            def wrapper(*args):
                live = lambda refs: sum(ref() is not None for ref in refs)
                alive.setdefault(label, (live(values), live(sequences)))
                return fn(*args)

            return wrapper

        monkeypatch.setattr(FamilySpec, "value", tracked_value)
        monkeypatch.setattr(FamilySpec, "sequence", tracked_sequence)
        monkeypatch.setattr(cli, "verify_q_recurrence", probe("q-number-recurrence", cli.verify_q_recurrence))
        monkeypatch.setattr(cli, "k_to_l", probe("k-roundtrip", cli.k_to_l))
        assert all(report.passed for report in run_verification(21))
        assert len(values) == 4 * 11 + 3 * 4 and len(sequences) == 4
        assert alive == {"q-number-recurrence": (0, 4), "k-roundtrip": (0, 0)}


class TestSharedParser:
    """main builds its parser once per process and reuses it on every call."""

    def test_later_calls_build_no_parser(self, monkeypatch, capsys):
        main(["qnum", "--n", "2"])
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(parser, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        main(["compute", "--family", "jones", "--n", "3"])
        main(["table", "--family", "alexander", "--n-max", "5", "--format", "json"])
        capsys.readouterr()
        assert built == []
        assert cli.build_parser() is cli.build_parser()

    # Each call may leave state behind for the next: an option set once
    # (--corrupt-family, --format, --kind) must read as its default again.
    SEQUENCE = (
        (("compute", "--family", "nope"), 2),
        (("compute", "--family", "jones", "--n", "4"), 2),
        (("verify", "--n-max", "5", "--corrupt-family", "jones"), 1),
        (("verify", "--n-max", "5"), 0),
        (("table", "--family", "jones", "--n-max", "5", "--format", "json"), 0),
        (("table", "--family", "jones", "--n-max", "5"), 0),
        (("qnum", "--kind", "jones", "--n", "3"), 0),
        (("qnum", "--n", "3"), 0),
        (("compute", "--help"), 0),
        (("compute", "--help"), 0),
    )

    def test_calls_in_one_process_match_fresh_processes(self, monkeypatch, capsys):
        # argparse wraps help and usage text to the terminal width.
        monkeypatch.setenv("COLUMNS", "80")
        outcomes = []
        for argv, code in self.SEQUENCE:
            try:
                rc = main(list(argv))
            except SystemExit as exc:
                rc = exc.code
            captured = capsys.readouterr()
            fresh = subprocess.run([sys.executable, "-m", "torkit", *argv], capture_output=True)
            shared = (rc, captured.out.encode(), captured.err.encode())
            assert shared == (fresh.returncode, fresh.stdout, fresh.stderr), argv
            assert rc == code, argv
            outcomes.append(shared)
        assert outcomes[3][1].endswith(b"\n24/24 checks passed\n")
        assert outcomes[5][1].startswith(b"1\t1\n3\t")
        assert outcomes[7][1] == b"q^2 + 1 + q^(-2)\n"
        assert outcomes[8] == outcomes[9] and outcomes[8][1].startswith(b"usage: torkit compute")


class TestSubprocess:
    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "torkit", "compute", "--family", "jones", "--n", "3"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "-t^4 + t^3 + t"

    def test_import_loads_no_dataclasses_inspect_json_or_typing(self):
        """A fresh `import torkit.cli`, with site start-up left out (-S), adds
        none of dataclasses, inspect, json or typing to sys.modules; the
        first decode loads json, and from_json(to_json(f)) == f still holds."""
        code = (
            "import sys\n"
            "before = set(sys.modules)\n"
            "import torkit.cli\n"
            "from torkit import HOMFLY, from_json, to_json\n"
            "added = set(sys.modules) - before\n"
            "print(sorted(added & {'dataclasses', 'inspect', 'json', 'typing'}))\n"
            "f = HOMFLY.value(7)\n"
            "assert from_json(to_json(f)) == f\n"
            "print('json' in sys.modules)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\nTrue\n"

    def test_closed_stdout_ends_table_quietly(self):
        """A reader that stops after one row (`| head -n 1`) ends a table
        far from its n_max with exit 1 and nothing on stderr."""
        argv = [sys.executable, "-m", "torkit", "table", "--family", "homfly", "--n-max", "100001"]
        with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            try:
                assert proc.stdout.readline() == b"1\t1\n"
                proc.stdout.close()
                _, err = proc.communicate(timeout=60)
            finally:
                proc.kill()
        assert (proc.returncode, err) == (1, b"")

    @staticmethod
    def run_declared_script(*argv):
        """Run the ``[project.scripts] torkit`` entry point the way the
        wrapper that pip generates does, so no install is needed."""
        try:
            import tomllib
        except ModuleNotFoundError:  # Python 3.10
            tomllib = pytest.importorskip("tomli")
        with PYPROJECT.open("rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["torkit"]
        module, attr = target.split(":")
        code = (
            f"import sys; from {module} import {attr} as entry; "
            "sys.argv[0] = 'torkit'; sys.exit(entry())"
        )
        return subprocess.run(
            [sys.executable, "-c", code, *argv], capture_output=True, text=True
        )

    def test_console_script_if_installed(self):
        """The console script that pyproject.toml declares runs the CLI:
        its ``module:attr`` target imports, and called as the installed
        wrapper calls it, ``torkit qnum --n 2`` prints q + q^(-1), exit 0."""
        proc = self.run_declared_script("qnum", "--n", "2")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "q + q^(-1)", proc.stderr

    def test_console_script_exit_code(self):
        """The declared entry point's return value is the process exit code:
        a usage error exits 2."""
        proc = self.run_declared_script("compute", "--family", "jones", "--n", "4")
        assert proc.returncode == 2, proc.stderr

    @pytest.mark.skipif(
        shutil.which("torkit") is None, reason="no torkit executable on PATH"
    )
    def test_console_script_on_path(self):
        """The script an install puts on PATH runs the CLI."""
        proc = subprocess.run(
            ["torkit", "qnum", "--n", "2"], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "q + q^(-1)"

    @pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux")
    def test_table_holds_two_values_not_the_whole_sequence(self):
        """table prints each row as the knot step makes it: at n_max = 1001
        HOMFLY peaks below 40 MiB resident, where holding all 501 values
        took 74 MiB.  The peak is read in a wrapper process, whose only
        child is the table run."""
        code = (
            "import resource, subprocess, sys\n"
            "subprocess.run(sys.argv[1:], stdout=subprocess.DEVNULL, check=True)\n"
            "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)"
        )
        table = ["-m", "torkit", "table", "--family", "homfly", "--n-max", "1001", "--format", "json"]
        proc = subprocess.run(
            [sys.executable, "-c", code, sys.executable, *table], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) < 40 * 1024

    def test_exit_code_surfaces_through_shell(self):
        proc = subprocess.run(
            [sys.executable, "-m", "torkit", "compute", "--family", "jones", "--n", "6"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
