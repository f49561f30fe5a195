"""End-to-end command line behaviour: output formats and exit codes."""

from __future__ import annotations

import json

import pytest

from braidcert.cli import main


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

    def test_bad_tolerance(self, capsys):
        pa_twisted = "3: 1 2 1 1 2 1 1 2 1 1 2 1 1 -2"
        for argv in (["fdtc", "4: 1"], ["fdtc", "3: 1 2"],
                     ["certify-cover", "--word", pa_twisted, "--t", "2"],
                     ["certify-cover", "--word", "4: 1 2 3", "--t", "2",
                      "--assert-pa"]):
            code, _, err = run(capsys, *argv, "--tol", "0")
            assert code == 1, argv
            assert "tolerance must be positive" in err, argv

    # int() and Fraction() alone would read "1_0" as 10 and an
    # Arabic-Indic three as 3
    @pytest.mark.parametrize("argv, bad", [
        (["certify-cover", "--word", "3: 1 -2", "--t", "1_0"], "--t"),
        (["certify-genus1", "--word", "3: -1 -2", "--n", "\u0663"], "--n"),
        (["certify-surgery", "--c", "1/2", "--n", "2", "--q", "0",
          "--genus", "1_0"], "--genus"),
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
    ])
    def test_rational_options_take_ascii_decimals_only(self, capsys, argv, what):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: BadParameters: {what} must be a rational")

    def test_exact_decimal_tolerance_still_accepted(self, capsys):
        code, out, _ = run(capsys, "fdtc", "4: 1 2 3", "--tol", "0.5")
        assert (code, out) == (0, "c in [0, 1/2]\n")

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
        word = "4: " + " ".join(["1 2 3"] * 9)
        p = tmp_path / "corpus.tsv"
        p.write_text(f"wide\tCoverCertify\tt=2 pa tol=1\t{word}\n"
                     f"zero\tCoverCertify\tt=2 pa tol=0\t{word}\n")
        code, out, _ = run(capsys, "corpus", str(p), "--report", "json")
        assert code == 1
        wide, zero = (json.loads(line) for line in out.splitlines())
        assert wide["notes"] == ["certified twist bound |c| >= 2 admits no"
                                 " qualifying cover order dividing 2"]
        assert zero["error"] == "BadParameters"

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
