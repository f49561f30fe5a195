"""End-to-end command line behaviour: output formats and exit codes."""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import braidcert.braid
import braidcert.threebraid
from braidcert import cli
from braidcert.braid import BLANKS
from braidcert.cli import main


#: 4,299 zeros and a 1 after the point: a denominator of 4,301 digits,
#: past Python's int-to-str limit, so a traceback once printed.
TOO_LONG = "0." + "0" * 4299 + "1"

#: How an error line shows TOO_LONG and its negative: a 20-character
#: prefix and the length that refused them.
TOO_LONG_SHOWN = ("'0.000000000000000000'... (4302 characters, longer than the"
                  " 600 a number may have)")
NEGATIVE_TOO_LONG_SHOWN = ("'-0.00000000000000000'... (4303 characters, longer"
                           " than the 600 a number may have)")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestOrderAndFloor:
    def test_order(self, capsys):
        code, out, _ = run(capsys, "order", "3: 1", "3: 2 1")
        assert code == 0
        assert out.strip() == "Less"

    def test_order_equal(self, capsys):
        code, out, _ = run(capsys, "order", "3: 1 2", "3: 1 2")
        assert code == 0
        assert out.strip() == "Equal"

    def test_floor_of_full_twist(self, capsys):
        code, out, _ = run(capsys, "floor", "3: 1 2 1 1 2 1")
        assert code == 0
        assert out.strip() == "1"

    def test_floor_json(self, capsys):
        code, out, _ = run(capsys, "floor", "3: 2 2 2", "--report", "json")
        assert code == 0
        assert json.loads(out) == {"floor": 0}


class TestFdtcCommand:
    def test_exact_on_three_strands(self, capsys):
        code, out, _ = run(capsys, "fdtc", "3: 1 2")
        assert code == 0
        assert out.strip() == "c = 1/3"

    def test_interval_on_four_strands(self, capsys):
        code, out, _ = run(capsys, "fdtc", "4: 1 2 3 1 2 3", "--tol", "1/4")
        assert code == 0
        from fractions import Fraction
        inside = out.strip().removeprefix("c in [").removesuffix("]")
        lo, hi = (Fraction(part.strip()) for part in inside.split(","))
        assert hi - lo <= Fraction(1, 4)

    def test_json_uses_rational_strings(self, capsys):
        code, out, _ = run(capsys, "fdtc", "3: 1 2", "--report", "json")
        assert code == 0
        rec = json.loads(out)
        assert rec["kind"] == "exact"
        assert rec["value"] == "1/3"


class TestClassifyAndLspace:
    def test_classify_pa(self, capsys):
        code, out, _ = run(capsys, "classify3", "3: 1 -2")
        assert code == 0
        assert out.strip() == "PseudoAnosov d=0 a=[1]"

    def test_classify_periodic(self, capsys):
        code, out, _ = run(capsys, "classify3", "3: 1 2")
        assert code == 0
        assert out.strip() == "Periodic d=1 m=-3"

    def test_classify_central(self, capsys):
        code, out, _ = run(capsys, "classify3", "3: 1 2 1 1 2 1")
        assert code == 0
        assert out.strip() == "Reducible d=1 m=0 central"

    def test_lspace2(self, capsys):
        code, out, _ = run(capsys, "lspace2", "3: 1 -2")
        assert code == 0
        assert out.strip() == "LSpace"
        # two full twists push the pseudo-Anosov central power out of the
        # L-space window
        code, out, _ = run(capsys, "lspace2",
                           "3: 1 2 1 1 2 1 1 2 1 1 2 1 1 -2")
        assert code == 0
        assert out.strip() == "NotLSpace"


class TestCertifyCommands:
    def test_cover_excellent(self, capsys):
        code, out, _ = run(
            capsys, "certify-cover", "--word", "3: 1 2 1 1 2 1 1 2 1 1 2 1 1 -2",
            "--t", "2")
        assert code == 0
        assert out.splitlines()[0] == "Excellent"

    def test_cover_unknown_exits_two(self, capsys):
        code, out, _ = run(capsys, "certify-cover", "--word", "3: 1 -2", "--t", "2")
        assert code == 2
        assert out.splitlines()[0] == "Unknown"

    def test_genus1_spec_example(self, capsys):
        code, out, _ = run(capsys, "certify-genus1", "--word", "3: -1 -2", "--n", "6")
        assert code == 0
        assert out.splitlines()[0] == "Excellent"

    def test_genus1_total_lspace(self, capsys):
        code, out, _ = run(capsys, "certify-genus1", "--word", "3: -1 -2", "--n", "5")
        assert code == 0
        assert out.splitlines()[0] == "TotalLSpace"

    def test_genus1_split_binding_is_error(self, capsys):
        code, _, err = run(capsys, "certify-genus1", "--word", "3: 2 2", "--n", "2")
        assert code == 1
        assert "split" in err.lower()

    def test_surgery_with_interval(self, capsys):
        code, out, _ = run(
            capsys, "certify-surgery", "--c", "2/5,3/5", "--n", "4", "--q", "3")
        assert code == 2
        assert out.splitlines()[0] == "Unknown"

    def test_surgery_exact(self, capsys):
        code, out, _ = run(
            capsys, "certify-surgery", "--c", "1/2", "--n", "2", "--q", "0",
            "--assert-hyperbolic")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "Excellent"
        assert not any("was not explicitly asserted" in line for line in lines)

    def test_conditionality_note_without_assert_flag(self, capsys):
        code, out, _ = run(
            capsys, "certify-surgery", "--c", "1/2", "--n", "2", "--q", "0")
        assert code == 0
        assert any("was not explicitly asserted" in line
                   for line in out.splitlines())

    def test_satellite(self, capsys):
        code, out, _ = run(
            capsys, "certify-satellite", "--pattern", "3: 1 -2", "--n", "2",
            "--c", "0/1", "--zero-companion")
        assert code == 0
        assert out.splitlines()[0] == "Excellent"

    def test_satellite_non_coprime(self, capsys):
        code, out, _ = run(
            capsys, "certify-satellite", "--pattern", "3: 1 -2", "--n", "3",
            "--c", "0/1", "--zero-companion")
        assert code == 2
        assert out.splitlines()[0] == "Unknown"

    def test_json_report_is_byte_stable(self, capsys):
        argv = ("certify-genus1", "--word", "3: -1 -2", "--n", "6",
                "--report", "json")
        code1, out1, _ = run(capsys, *argv)
        code2, out2, _ = run(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2
        rec = json.loads(out1)
        assert rec["verdict"] == "Excellent"
        assert rec["justifications"][0]["rule"]


class TestErrors:
    def test_parse_error_location(self, capsys):
        code, _, err = run(capsys, "floor", "3: 1 y")
        assert code == 1
        assert "line 1, column 6" in err

    def test_generator_out_of_range(self, capsys):
        code, _, err = run(capsys, "floor", "3: 5")
        assert code == 1
        assert "column" in err

    def test_strand_count_past_the_cap(self, capsys):
        # refused at the strand count, before a kernel table is sized by
        # the generator; one strand fewer is answered
        code, _, err = run(capsys, "order", "1000002: 1000001")
        assert code == 1
        assert "line 1, column 1: strand count must be from 2 to 1000001" in err
        code, out, _ = run(capsys, "order", "1000001: 1000000")
        assert (code, out) == (0, "Positive\n")

    def test_bad_tolerance(self, capsys):
        pa_twisted = "3: 1 2 1 1 2 1 1 2 1 1 2 1 1 -2"
        for argv in (["fdtc", "4: 1"], ["fdtc", "3: 1 2"],
                     ["certify-cover", "--word", pa_twisted, "--t", "2"],
                     ["certify-cover", "--word", "4: 1 2 -3", "--t", "2",
                      "--assert-pa"]):
            code, _, err = run(capsys, *argv, "--tol", "0")
            assert code == 1, argv
            assert "tolerance must be positive" in err, argv

    # the tolerance is refused before the pseudo-Anosov gate, whether or
    # not the gate lets a twist be computed
    @pytest.mark.parametrize("argv", [
        ["--word", "3: 1 2", "--t", "2"],  # not pseudo-Anosov
        ["--word", "4: 1 2 3", "--t", "2", "--assert-pa"],  # proved periodic
        ["--word", "3: 1 -2", "--t", "2"],  # pseudo-Anosov
    ], ids=["refused-3", "refused-asserted-4", "proved-3"])
    def test_cover_refuses_a_bad_tolerance_up_front(self, capsys, argv):
        code, out, err = run(capsys, "certify-cover", *argv, "--tol", "0")
        assert (code, out) == (1, "")
        assert err == "error: BadParameters: tolerance must be positive, got 0\n"

    # int() and Fraction() alone would read "1_0" as 10 and an
    # Arabic-Indic three as 3
    @pytest.mark.parametrize("argv, bad", [
        (["certify-cover", "--word", "3: 1 -2", "--t", "1_0"], "--t"),
        (["certify-genus1", "--word", "3: -1 -2", "--n", "\u0663"], "--n"),
        (["certify-surgery", "--c", "1/2", "--n", "2", "--q", "0",
          "--genus", "1_0"], "--genus"),
        # int() would strip a newline or a vertical tab, which are no blanks
        (["certify-cover", "--word", "3: 1 -2", "--t", "2\n"], "--t"),
        (["certify-genus1", "--word", "3: -1 -2", "--n", "\x0b3"], "--n"),
    ])
    def test_integer_options_take_ascii_decimals_only(self, capsys, argv, bad):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        value = argv[argv.index(bad) + 1]
        assert capsys.readouterr().err.splitlines()[-1].endswith(
            f"error: argument {bad}: invalid int value: {value!r}")

    @pytest.mark.parametrize("argv, what", [
        (["fdtc", "4: 1 2 3", "--tol", "1/1_2"], "tol"),
        (["certify-surgery", "--c", "1_0/3", "--n", "2", "--q", "0"],
         "twist value"),
        (["certify-surgery", "--c", "0,\u0661", "--n", "2", "--q", "0"],
         "interval endpoint"),
        # only ASCII space and tab are blanks around a value
        (["certify-surgery", "--c", "0,\u30001/2", "--n", "4", "--q", "0"],
         "interval endpoint"),
        (["certify-surgery", "--c", "1/2\u3000", "--n", "4", "--q", "0"],
         "twist value"),
        (["fdtc", "4: 1 2 3", "--tol", "1/4\n"], "tol"),
        (["certify-surgery", "--c", "\x0c1/2", "--n", "4", "--q", "0"],
         "twist value"),
    ])
    def test_rational_options_take_ascii_decimals_only(self, capsys, argv, what):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: BadParameters: {what} must be a rational")

    # Fraction() alone would read exponents: these made rationals past
    # Python's int-to-str limit, a traceback when printed
    @pytest.mark.parametrize("argv, what, text", [
        (["fdtc", "4: 1 2 3 1", "--tol", "1e-5000"], "tol", "1e-5000"),
        (["certify-cover", "--word", "4: 1 2 3 1", "--t", "2", "--assert-pa",
          "--tol", "1e-5000"], "tol", "1e-5000"),
        (["certify-surgery", "--c", "1e5000", "--n", "2", "--q", "1"],
         "twist value", "1e5000"),
        (["certify-satellite", "--pattern", "3: 1 -2", "--n", "2", "--c",
          "1e5000"], "twist value", "1e5000"),
        (["fdtc", "4: 1 2", "--tol", "1e-10000000"], "tol", "1e-10000000"),
    ])
    def test_exponents_are_refused(self, capsys, argv, what, text):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1
        assert (code, out) == (1, "")
        assert err.splitlines() == [f"error: BadParameters: {what} must be a"
                                    f" rational like 5/12, got {text!r}"]

    @pytest.mark.parametrize("argv, what, shown", [
        (["fdtc", "4: 1 2 3 1", "--tol", "-" + TOO_LONG], "tol",
         NEGATIVE_TOO_LONG_SHOWN),
        (["fdtc", "4: 1 2 3 1", "--tol", TOO_LONG], "tol", TOO_LONG_SHOWN),
        (["certify-satellite", "--pattern", "3: 1 -2", "--n", "2", "--c",
          TOO_LONG], "twist value", TOO_LONG_SHOWN),
    ], ids=["negative-tol", "tol", "satellite-c"])
    def test_rationals_too_long_to_print_are_refused(self, capsys, argv, what,
                                                     shown):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.splitlines() == [f"error: BadParameters: {what} must be a"
                                    f" rational like 5/12, got {shown}"]

    def test_integers_too_long_are_shown_by_a_prefix(self, capsys,
                                                     monkeypatch, tmp_path):
        # each place that reads an integer echoes 20 characters of it and
        # the length that refused it, not the whole text
        ones = "1" * 700
        shown = ("'11111111111111111111'... (700 characters, longer than the"
                 " 600 a number may have)")
        assert run(capsys, "order", f"3: {ones}", "3: 1")[2].splitlines() == [
            f"error: ParseError: line 1, column 4: letter {shown} is not an"
            f" integer"]
        assert run(capsys, "order", f"{ones}: 1", "3: 1")[2].splitlines() == [
            f"error: ParseError: line 1, column 1: strand count {shown} is not"
            f" an integer"]
        p = tmp_path / "corpus.tsv"
        p.write_text(f"g1\tGenus1\tn={ones}\t3: -1 -2\n")
        assert run(capsys, "corpus", str(p))[1].splitlines() == [
            f"g1\terror: ParseError: line 1, column 1: parameter n must be an"
            f" integer, got {shown}"]
        with pytest.raises(SystemExit):
            main(["certify-genus1", "--word", "3: -1 -2", "--n", ones])
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"braidcert certify-genus1: error: argument --n: invalid int value:"
            f" {shown}")
        monkeypatch.setenv("BRAIDCERT_REDUCTION_BUDGET", ones)
        assert run(capsys, "floor", "3: 1 2")[2].splitlines() == [
            f"error: BadParameters: BRAIDCERT_REDUCTION_BUDGET must be an"
            f" integer, got {shown}"]

    def test_tolerance_below_the_letter_cap_is_an_error_line(self, capsys):
        # the finest tolerance text that parses: k = ceil(1/tol) would have
        # as many digits as the text has characters
        cap = braidcert.braid._MAX_NUMBER_CHARS
        code, out, err = run(capsys, "fdtc", "4: 1 2 3 1", "--tol",
                             "0." + "0" * (cap - 3) + "1")
        assert (code, out) == (1, "")
        assert err.splitlines() == [
            "error: BadParameters: tolerance must be at least 1/1000000,"
            " so that the power k = ceil(1/tol) stays within the letter cap"]

    def test_exact_decimal_tolerance_still_accepted(self, capsys):
        code, out, _ = run(capsys, "fdtc", "4: 1 2 3", "--tol", "0.5")
        assert (code, out) == (0, "c in [0, 1/2]\n")

    def test_option_values_strip_ascii_blanks(self, capsys):
        # as around corpus fields and --c, and nothing else
        assert run(capsys, "fdtc", "4: 1 2 3", "--tol", " 0.5\t") == run(
            capsys, "fdtc", "4: 1 2 3", "--tol", "0.5")
        argv = ["certify-genus1", "--word", "3: -1 -2", "--n"]
        assert run(capsys, *argv, "\t3 ") == run(capsys, *argv, "3")

    def test_bad_budget_setting_is_an_error_line(self, capsys, monkeypatch):
        monkeypatch.setenv("BRAIDCERT_REDUCTION_BUDGET", "abc")
        code, out, err = run(capsys, "floor", "3: 1 2")
        assert code == 1
        assert out == ""
        assert err.splitlines() == [
            "error: BadParameters: BRAIDCERT_REDUCTION_BUDGET must be an"
            " integer, got 'abc'"]


CORPUS = """\
# comment lines and blanks are skipped

hopf\tFloor\t-\t3: 1 2 1 1 2 1
tref\tFdtc\ttol=1/6\t3: 1 2
cls\tClassify3\t-\t3: 1 -2
cov\tCoverCertify\tt=2\t3: 1 2 1 1 2 1 1 2 1 1 2 1 1 -2
g1\tGenus1\tn=6\t3: -1 -2
sat\tSatellite\tn=2 c=0/1 zero\t3: 1 -2
"""


class TestCorpus:
    def test_full_run(self, tmp_path, capsys):
        p = tmp_path / "corpus.tsv"
        p.write_text(CORPUS)
        code, out, _ = run(capsys, "corpus", str(p))
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 6
        assert lines[0] == "hopf\t1"
        assert lines[1] == "tref\tc = 1/3"
        assert lines[2] == "cls\tPseudoAnosov d=0 a=[1]"
        assert lines[3].startswith("cov\tExcellent")
        assert lines[4].startswith("g1\tExcellent")
        assert lines[5].startswith("sat\tExcellent")

    def test_json_report(self, tmp_path, capsys):
        p = tmp_path / "corpus.tsv"
        p.write_text(CORPUS)
        code, out, _ = run(capsys, "corpus", str(p), "--report", "json")
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert [r["id"] for r in records] == ["hopf", "tref", "cls", "cov",
                                              "g1", "sat"]
        assert records[0]["floor"] == 1

    def test_duplicate_id_rejected(self, tmp_path, capsys):
        p = tmp_path / "corpus.tsv"
        p.write_text("a\tFloor\t-\t3: 1\na\tFloor\t-\t3: 2\n")
        code, out, _ = run(capsys, "corpus", str(p))
        assert code == 1
        assert "duplicate" in out.lower()

    def test_entry_error_recorded_and_run_continues(self, tmp_path, capsys):
        p = tmp_path / "corpus.tsv"
        p.write_text("bad\tFloor\t-\t3: 9\nok\tFloor\t-\t3: 1\n")
        code, out, _ = run(capsys, "corpus", str(p))
        assert code == 1
        lines = out.splitlines()
        assert lines[0].startswith("bad\terror:")
        assert lines[1] == "ok\t0"

    def test_strand_count_past_the_cap_is_an_error_record(self, tmp_path, capsys):
        # refused at parse time, before a table or start point is sized
        # by the generator
        p = tmp_path / "corpus.tsv"
        p.write_text("wide\tFloor\t-\t1000002: 1000001\nok\tFloor\t-\t3: 1\n")
        code, out, _ = run(capsys, "corpus", str(p), "--report", "json")
        assert code == 1
        wide, ok = (json.loads(line) for line in out.splitlines())
        assert wide["error"] == "ParseError"
        assert "column 1: strand count must be from 2 to 1000001" in wide["message"]
        assert ok["floor"] == 0

    def test_all_unknown_exits_two(self, tmp_path, capsys):
        p = tmp_path / "corpus.tsv"
        p.write_text("u\tCoverCertify\tt=2\t3: 1 -2\n")
        code, out, _ = run(capsys, "corpus", str(p))
        assert code == 2
        assert out.splitlines()[0].startswith("u\tUnknown")

    def test_mixed_verdicts_exit_zero(self, tmp_path, capsys):
        p = tmp_path / "corpus.tsv"
        p.write_text("u\tCoverCertify\tt=2\t3: 1 -2\n"
                     "g\tGenus1\tn=6\t3: -1 -2\n")
        code, _, _ = run(capsys, "corpus", str(p))
        assert code == 0

    def test_malformed_row_rejected(self, tmp_path, capsys):
        p = tmp_path / "corpus.tsv"
        p.write_text("onlythree\tFloor\t3: 1\n")
        code, out, _ = run(capsys, "corpus", str(p))
        assert code == 1
        assert "error" in out

    def test_cover_certify_takes_tol_per_entry(self, tmp_path, capsys):
        # sigma_1 sigma_2 sigma_3^-1 Delta^4, pseudo-Anosov, twist in [2, 25/12]
        word = "4: 1 2 -3 " + " ".join(["1 2 3 1 2 1"] * 4)
        p = tmp_path / "corpus.tsv"
        p.write_text(f"wide\tCoverCertify\tt=2 pa tol=1\t{word}\n"
                     f"zero\tCoverCertify\tt=2 pa tol=0\t{word}\n")
        code, out, _ = run(capsys, "corpus", str(p), "--report", "json")
        assert code == 1
        wide, zero = (json.loads(line) for line in out.splitlines())
        assert wide["notes"] == ["certified twist bound |c| >= 2 admits no"
                                 " qualifying cover order dividing 2"]
        assert zero["error"] == "BadParameters"

    def test_repeated_parameters_rejected(self, tmp_path, capsys):
        # the last value would win silently: t=3 here, pa given twice
        p = tmp_path / "corpus.tsv"
        p.write_text("twice\tCoverCertify\tt=2 t=3\t3: 1 -2\n"
                     "same\tFdtc\ttol=1/4 tol=1/4\t4: 1 2\n"
                     "flag\tCoverCertify\tt=2 pa pa\t4: 1 2 -3\n"
                     "ok\tCoverCertify\tt=2 pa tol=1/4\t4: 1 2 -3\n")
        code, out, _ = run(capsys, "corpus", str(p), "--report", "json")
        assert code == 1
        records = [json.loads(line) for line in out.splitlines()]
        assert [(r["id"], r.get("message")) for r in records] == [
            ("twice", "line 1, column 1: duplicate parameter 't'"),
            ("same", "line 2, column 1: duplicate parameter 'tol'"),
            ("flag", "line 3, column 1: duplicate parameter 'pa'"),
            ("ok", None),
        ]

    def test_undeclared_parameters_rejected(self, tmp_path, capsys):
        p = tmp_path / "corpus.tsv"
        p.write_text("irr\tFloor\tirr\t3: 1\n"
                     "extra\tGenus1\tn=6 t=9\t3: -1 -2\n"
                     "pa\tClassify3\tpa\t3: 1 -2\n"
                     "ok\tFloor\t-\t3: 1\n")
        code, out, _ = run(capsys, "corpus", str(p), "--report", "json")
        assert code == 1
        records = [json.loads(line) for line in out.splitlines()]
        assert [r.get("error") for r in records] == ["ParseError"] * 3 + [None]
        assert records[3]["floor"] == 0

    def test_parameters_take_ascii_decimals_only(self, tmp_path, capsys):
        p = tmp_path / "corpus.tsv"
        p.write_text("t\tCoverCertify\tt=1_0\t3: 1 -2\n"
                     "n\tGenus1\tn=\u0663\t3: -1 -2\n"
                     "tol\tFdtc\ttol=1_2\t4: 1 2 3\n"
                     "half\tFdtc\ttol=0.5\t4: 1 2 3\n")
        code, out, _ = run(capsys, "corpus", str(p), "--report", "json")
        assert code == 1
        t, n, tol, half = (json.loads(line) for line in out.splitlines())
        assert t["message"] == ("line 1, column 1: parameter t must be an"
                                " integer, got '1_0'")
        assert n["error"] == "ParseError"
        assert (tol["error"], tol["message"]) == (
            "BadParameters", "tol must be a rational like 5/12, got '1_2'")
        assert (half["lo"], half["hi"]) == ("0", "1/2")

    def test_fields_strip_ascii_blanks_only(self, tmp_path, capsys):
        # an ideographic space (U+3000) is no blank of the text format,
        # around a field or between parameters
        p = tmp_path / "corpus.tsv"
        p.write_text("u\tFloor\t-\t\u30003: 1\u3000\n"
                     "n\tGenus1\tn=6\u3000t=2\t3: -1 -2\n"
                     "\u3000\n"
                     " ok \tFloor\t - \t 3: 1 \n")
        code, out, _ = run(capsys, "corpus", str(p), "--report", "json")
        assert code == 1
        u, n, blank, ok = (json.loads(line) for line in out.splitlines())
        assert (u["id"], u["error"]) == ("u", "ParseError")
        assert (n["id"], n["message"]) == (
            "n", "line 2, column 1: parameter n must be an integer, got "
                 + repr("6\u3000t=2"))
        assert (blank["id"], blank["error"]) == ("line-3", "ParseError")
        assert (ok["id"], ok["floor"]) == ("ok", 0)

    @pytest.mark.parametrize("sep", ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85",
                                     "\u2028"])
    def test_records_end_at_newline_only(self, tmp_path, capsys, sep):
        # str.splitlines would end the row at each of these, certifying
        # "3: 1" and reporting the rest as a line 2 the file does not have
        p = tmp_path / "corpus.tsv"
        p.write_text(f"e1\tClassify3\t-\t3: 1{sep}2\n", encoding="utf-8")
        code, out, _ = run(capsys, "corpus", str(p), "--report", "json")
        assert code == 1
        (record,) = (json.loads(line) for line in out.splitlines())
        assert (record["id"], record["error"]) == ("e1", "ParseError")
        assert record["message"] == (f"line 1, column 4: letter {'1' + sep + '2'!r}"
                                     " is not an integer")
        if sep == "\v":
            assert record["message"].endswith("letter '1\\x0b2' is not an integer")

    def test_exponent_rows_are_error_records(self, tmp_path, capsys):
        p = tmp_path / "corpus.tsv"
        p.write_text("ok\tFdtc\t-\t3: 1 2\n"
                     "tol\tFdtc\ttol=1e-5000\t4: 1 2 3 1\n"
                     "sat\tSatellite\tn=2 c=1e5000\t3: 1 -2\n"
                     "fine\tFloor\t-\t3: 1 2 1 1 2 1\n")
        code, out, err = run(capsys, "corpus", str(p), "--report", "json")
        assert (code, err) == (1, "")
        ok, tol, sat, fine = (json.loads(line) for line in out.splitlines())
        assert (ok["value"], fine["floor"]) == ("1/3", 1)
        assert (tol["error"], tol["message"]) == (
            "BadParameters", "tol must be a rational like 5/12, got '1e-5000'")
        assert (sat["error"], sat["message"]) == (
            "BadParameters", "twist value must be a rational like 5/12,"
                             " got '1e5000'")

    def test_rational_too_long_to_print_is_an_error_record(self, tmp_path,
                                                           capsys):
        # once a traceback that lost the whole batch
        p = tmp_path / "corpus.tsv"
        p.write_text(f"ok\tFloor\t-\t3: 1 2\n"
                     f"sat\tSatellite\tn=2 c={TOO_LONG}\t3: 1 -2\n"
                     f"fine\tFloor\t-\t3: 1 2 1 1 2 1\n")
        code, out, err = run(capsys, "corpus", str(p))
        assert (code, err) == (1, "")
        assert out.splitlines() == [
            "ok\t0",
            f"sat\terror: BadParameters: twist value must be a rational like"
            f" 5/12, got {TOO_LONG_SHOWN}",
            "fine\t1",
        ]

    def test_byte_order_mark_before_a_comment(self, tmp_path, capsys):
        p = tmp_path / "corpus.tsv"
        p.write_text("# rows\ne1\tFloor\t-\t3: 1\n", encoding="utf-8-sig")
        assert run(capsys, "corpus", str(p)) == (0, "e1\t0\n", "")

    def test_byte_order_mark_before_a_row(self, tmp_path, capsys):
        p = tmp_path / "corpus.tsv"
        p.write_text("e1\tFloor\t-\t3: 1\n", encoding="utf-8-sig")
        code, out, _ = run(capsys, "corpus", str(p), "--report", "json")
        assert code == 0
        assert json.loads(out)["id"] == "e1"

    def test_file_not_utf8_is_an_error_line(self, tmp_path, capsys):
        p = tmp_path / "corpus.tsv"
        p.write_text("# caf\u00e9\ne1\tFloor\t-\t3: 1\n", encoding="latin-1")
        code, out, err = run(capsys, "corpus", str(p))
        assert (code, out) == (1, "")
        assert err.startswith("error: cannot read corpus: 'utf-8' codec can't"
                              " decode byte 0xe9")

    def test_crlf_rows(self, tmp_path, capsys):
        p = tmp_path / "corpus.tsv"
        p.write_bytes(b"a\tFloor\t-\t3: 1\r\n\r\nb\tFloor\t-\t3: 1 2 1 1 2 1\r\n")
        code, out, _ = run(capsys, "corpus", str(p))
        assert code == 0
        assert out.splitlines() == ["a\t0", "b\t1"]


class TestParserReuse:
    """One parser serves every call of a process."""

    ARGVS = (["order", "3: 1", "3: 2 1"],
             ["certify-cover", "--word", "3: 1 2", "--t", "x"],  # usage error
             ["corpus", None, "--report", "json"],
             ["fdtc", "4: 1 2 3 1 2 3", "--tol", "1/4"])

    @staticmethod
    def outcome(capsys, argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = ("exit", exc.code)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_reused_parser_keeps_no_state(self, tmp_path, capsys):
        p = tmp_path / "corpus.tsv"
        p.write_text(CORPUS)
        argvs = [[str(p) if a is None else a for a in argv] for argv in self.ARGVS]
        fresh = []
        for argv in argvs:
            cli.build_parser.cache_clear()
            fresh.append(self.outcome(capsys, argv))
        parser = cli.build_parser()
        reused = [self.outcome(capsys, argv) for argv in argvs]
        assert cli.build_parser() is parser
        assert reused == fresh
        assert [o[0] for o in reused] == [0, ("exit", 2), 0, 0]

    def test_handlers_are_looked_up_per_call(self, tmp_path, capsys, monkeypatch):
        # a wrapper installed after the parser exists is the one called
        p = tmp_path / "corpus.tsv"
        p.write_text(CORPUS)
        cli.build_parser()
        calls = []
        monkeypatch.setattr(cli, "_cmd_corpus", lambda args: calls.append(args.file) or 0)
        monkeypatch.setattr(cli, "_run_command",
                            lambda args: calls.append(args.task.command) or 0)
        assert main(["corpus", str(p)]) == 0
        assert main(["floor", "3: 1"]) == 0
        assert calls == [str(p), "floor"]
        assert capsys.readouterr().out == ""


class TestStartupImports:
    """A one-shot command loads only the modules it runs: the task
    runners import the certifiers, twists and 3-braid classification
    when they run, and the package binds their names on first use."""

    LAZY = ("certify", "fdtc", "replay", "threebraid")

    @pytest.mark.parametrize("argv,loaded", [
        (["order", "3: 1"], ()),
        (["floor", "3: 1 2"], ()),
        (["classify3", "3: 1 -2"], ("threebraid",)),
        (["certify-cover", "--word", "3: 1 -2", "--t", "2"],
         ("certify", "fdtc", "threebraid")),
    ], ids=["order", "floor", "classify3", "certify-cover"])
    def test_command_loads_only_what_it_runs(self, argv, loaded):
        code = ("import sys\n"
                "from braidcert.cli import main\n"
                "main(sys.argv[1:])\n"
                "print(*sorted(m for m in sys.modules if m.startswith('braidcert.')))")
        src = Path(cli.__file__).parent.parent
        env = dict(os.environ, PYTHONPATH=str(src))
        result = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                                capture_output=True, text=True, check=True)
        modules = set(result.stdout.splitlines()[-1].split())
        assert {m for m in self.LAZY if f"braidcert.{m}" in modules} == set(loaded)

    def test_runners_look_the_library_up_per_call(self, capsys, monkeypatch):
        # a wrapper installed on the library module is the one a runner calls
        calls = []
        original = braidcert.threebraid.normal_form
        monkeypatch.setattr(braidcert.threebraid, "normal_form",
                            lambda b: calls.append(b) or original(b))
        assert main(["classify3", "3: 1 -2"]) == 0
        assert main(["lspace2", "3: 1 -2"]) == 0
        assert len(calls) == 2
        assert capsys.readouterr().out.splitlines()[0] == "PseudoAnosov d=0 a=[1]"


#: Values each parameter takes in the property test below, by dest, on
#: which the plain run reaches a certificate that prints them.
_BASES = {
    "t": ("2", "3", "6"), "n": ("2", "5"), "q": ("2", "-1", "0"),
    "genus": ("1", "2"), "c": ("1/2", "3", "-2", "1/4,1/2", "-2,-1"),
    "tol": ("1/4", "1/2"),
}

#: Braids the property test starts from: pseudo-Anosov and periodic
#: 3-braids, the periodic delta_1 and the aperiodic sigma_1 sigma_2
#: sigma_3^-1 on 4 strands, and a 5-braid.
_BRAIDS = ("3: 1 -2", "3: 1 2 1 1 2 1 1 2 1 1 2 1 1 -2", "3: -1 -2", "3: 1 2",
           "4: 1 2 3", "4: 1 2 -3", "5: 1 2 3 4 -2")

#: Decimal spellings of the rational bases.
_DECIMALS = {"1/2": "0.5", "1/4": "0.25"}

#: Characters that end a line somewhere, NUL and the byte-order mark.
#: Of these only "\r" ends a corpus line, as "\n" and "\r\n" do.
_HOSTILE_CHARS = ("\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
                  "\u2028", "\u2029", "\x00", "\ufeff")

#: ASCII digits to Arabic-Indic ones, which int() and Fraction() read.
_ARABIC_INDIC = str.maketrans("0123456789", "".join(map(chr, range(0x660, 0x66A))))


def _variants(base: str) -> tuple[str, ...]:
    """Hostile spellings of the number text base: most read as base, or
    as a number near it, wherever a check on number text were missing,
    so that they reach the code that prints it.  Exponents, '_',
    non-ASCII digits, a separator, NUL or byte-order mark next to it,
    zero padding to 599, 600 and 601 characters, a decimal 10^-4300
    away whose denominator, 10^4300, is past Python's int-to-str limit,
    and zero, negative, huge and 1/0 values."""
    sign, digits = ("-", base[1:]) if base.startswith("-") else ("", base)
    decimal = _DECIMALS.get(base, base)
    point = decimal if "." in decimal else decimal + "."
    return (
        decimal + "e0", sign + "1e5000", "1e-10000000",
        sign + "1_" + digits, base.translate(_ARABIC_INDIC),
        *(base + char for char in _HOSTILE_CHARS), "\x0b" + base,
        *(sign + digits.rjust(width - len(sign), "0") for width in (599, 600, 601)),
        point + "0" * (4299 - len(point.partition(".")[2])) + "1",
        "0", "-" + digits, sign + "9" * 599, "1/0", "x",
    )


@st.composite
def _numbers(draw, bases):
    """One of bases, plain half the time, else one of its variants; in
    an interval "lo,hi" one end is varied."""
    base = draw(st.sampled_from(bases))
    if draw(st.booleans()):
        return base
    ends = base.split(",")
    k = draw(st.integers(0, len(ends) - 1))
    ends[k] = draw(st.sampled_from(_variants(ends[k])))
    return ",".join(ends)


@st.composite
def _braids(draw):
    """One of _BRAIDS, plain three times in four, else with its strand
    count or one of its letters varied."""
    head, _, tail = draw(st.sampled_from(_BRAIDS)).partition(": ")
    if draw(st.integers(0, 3)):
        return f"{head}: {tail}"
    letters = tail.split(" ")
    k = draw(st.integers(-1, len(letters) - 1))
    if k < 0:
        head = draw(st.sampled_from(_variants(head)))
    else:
        letters[k] = draw(st.sampled_from(_variants(letters[k])))
    return f"{head}: {' '.join(letters)}"


def _values(param):
    if param.dest in _BASES:
        return _numbers(_BASES[param.dest])
    return _braids()


def _repeats(param):
    """How many times a parameter is given: mostly once, sometimes twice,
    and an optional one sometimes not at all."""
    return st.sampled_from((1, 1, 2) if param.required else (1, 1, 0, 2))


@st.composite
def _argument_lists(draw):
    """A subcommand of cli.TASKS with its braid, then each of its
    parameters given once, twice or not at all, with hostile values."""
    task = draw(st.sampled_from(cli.TASKS))
    argv = [task.command]
    for param in ((task.braid,) if task.braid else ()) + task.params:
        for _ in range(draw(_repeats(param))):
            if param.type is None:
                argv.append(param.option)
            elif param.option.startswith("-"):
                argv += [param.option, draw(_values(param))]
            else:
                argv.append(draw(_values(param)))
    return argv + draw(st.sampled_from(([], ["--report", "json"],
                                        ["--report", "text"])))


@st.composite
def _corpus_rows(draw):
    """One corpus line: a row of a corpus task with hostile parameters,
    each given once, twice or not at all, a row with a field missing, a
    comment or a blank line; up to two characters of _HOSTILE_CHARS land
    anywhere in it."""
    kind = draw(st.sampled_from(("row",) * 4 + ("fields", "comment", "blank")))
    if kind == "comment":
        return "# " + draw(_braids())
    if kind == "blank":
        return draw(st.sampled_from(("", " \t")))
    task = draw(st.sampled_from([t for t in cli.TASKS if t.corpus]))
    tokens = []
    for param in task.params:
        if param.corpus is not None:
            tokens += [param.corpus if param.type is None else
                       f"{param.corpus}={draw(_values(param))}"
                       for _ in range(draw(_repeats(param)))]
    fields = [draw(st.sampled_from(("a", "b", "c", "", " d "))), task.corpus,
              " ".join(tokens) or "-", draw(_braids())]
    if kind == "fields":
        del fields[draw(st.integers(0, 3))]
    line = "\t".join(fields)
    for char in draw(st.lists(st.sampled_from(_HOSTILE_CHARS), max_size=2)):
        at = draw(st.integers(0, len(line)))
        line = line[:at] + char + line[at:]
    return line


#: 1/2 + 10^-4300: a rational that Fraction() reads and str() refuses.
_LONG_HALF = "0.5" + "0" * 4298 + "1"

#: Longest error line a refusal may print.  A message echoes at most two
#: numbers, the ends of an empty interval, and a number read from at
#: most 600 characters prints in at most 1,201: a decimal is a fraction
#: of up to 600 digits over a power of ten of up to 601.
_ERROR_LINE_BOUND = 2 * 1_201 + 200


def _main(argv):
    """main(argv) in process: (exit code, stdout, stderr).  argparse
    exits with status 2 on a usage error."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _assert_short(line):
    assert len(line) <= _ERROR_LINE_BOUND, line[:200]


class TestInputSurface:
    """A seeded property test of every input the command line reads:
    argument lists and corpus files built from cli.TASKS with hostile
    numbers, separators, NUL, byte-order marks and repeated keys, under a
    small or malformed reduction budget.  Whatever the input, main exits
    0, 1 or 2 without an exception, every --report json line parses, a
    corpus gives one record per data row, with its id, and no error line
    is longer than _ERROR_LINE_BOUND."""

    BUDGETS = st.sampled_from(("300", "300", "300", "5", "0", "-3", "1_0", "3e2"))

    # the faults mended before this test, which random draws may miss:
    # a rational past the int-to-str limit, read from an option and from
    # an exponent, and a refused letter echoed whole
    @example(["certify-surgery", "--c", _LONG_HALF, "--n", "2", "--q", "0"], "300")
    @example(["certify-satellite", "--pattern", "3: 1 -2", "--n", "2", "--c",
              "1e5000"], "300")
    @example(["floor", "3: 1 " + TOO_LONG], "300")
    @given(_argument_lists(), BUDGETS)
    @settings(max_examples=400, derandomize=True, database=None, deadline=None)
    def test_argument_lists(self, argv, budget):
        with mock.patch.dict(os.environ, {"BRAIDCERT_REDUCTION_BUDGET": budget}):
            code, out, err = _main(argv)
        assert code in (0, 1, 2)
        if argv[-2:] == ["--report", "json"]:
            for line in out.splitlines():
                record = json.loads(line)
                if "error" in record:
                    _assert_short(record["message"])
        for line in err.split("\n"):
            _assert_short(line)

    # the same, in a corpus: a row with a vertical tab, a byte-order mark
    # before the first row, a row whose rational would lose the batch, and
    # a file that is not UTF-8
    @example(["a\tFloor\t-\t3: 1\x0b-2", f"b\tSatellite\tn=2 c={_LONG_HALF}\t3: 1 -2"],
             True, False, "json", "300")
    @example(["a\tFloor\t-\t3: 1"], False, True, "text", "300")
    @given(st.lists(_corpus_rows(), max_size=6), st.booleans(), st.booleans(),
           st.sampled_from(("json", "text")), BUDGETS)
    @settings(max_examples=120, derandomize=True, database=None, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_corpus_files(self, tmp_path, rows, bom, not_utf8, report, budget):
        text = "\n".join(rows)
        data = ("\ufeff" if bom else "") + text
        path = tmp_path / "corpus.tsv"
        path.write_bytes(data.encode() + (b"\xff" if not_utf8 else b""))
        with mock.patch.dict(os.environ, {"BRAIDCERT_REDUCTION_BUDGET": budget}):
            code, out, err = _main(["corpus", str(path), "--report", report])
        assert code in (0, 1, 2)
        if not_utf8:
            assert (code, out) == (1, "")
            assert err.startswith("error: cannot read corpus:")
            return
        # a line ends at "\n", "\r\n" or a lone "\r", and at nothing else
        lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
        ids = [fields[0].strip(BLANKS) if len(fields := raw.split("\t")) == 4
               else f"line-{line_no}"
               for line_no, raw in enumerate(lines, start=1)
               if raw.strip(BLANKS) and not raw.strip(BLANKS).startswith("#")]
        if report == "json":
            records = [json.loads(line) for line in out.split("\n") if line]
            assert [r["id"] for r in records] == ids
            for record in records:
                if "error" in record:
                    _assert_short(record["message"])
        else:
            shown = out.removesuffix("\n").split("\n")
            assert [line.partition("\t")[0] for line in shown] == (ids or [""])
        assert err == ""
