"""Certifier rules, certificate structure, and replay soundness."""

from __future__ import annotations

from fractions import Fraction

import pytest
from conftest import three_braids
from hypothesis import given, settings
from hypothesis import strategies as st

from braidcert import (
    BadParameters,
    BraidWord,
    Certificate,
    DegeneracySlope,
    FdtcValue,
    Justification,
    LSpaceStatus,
    ReplayError,
    SplitBinding,
    SurgerySlope,
    Verdict,
    baldwin_lspace_double_cover,
    certify_closed_braid_cover,
    certify_fibred_cover,
    certify_genus1_cover,
    certify_orbifold_cover,
    certify_satellite,
    evaluate_inequality,
    excluded_q,
    full_twist,
    normal_form,
    slope_distance,
    verify_certificate,
)

C = full_twist(3)
PA = BraidWord(3, (1, -2))

small_rationals = st.fractions(
    min_value=Fraction(-4), max_value=Fraction(4), max_denominator=8
)


def assert_replays(cert: Certificate) -> None:
    assert verify_certificate(cert)


class TestFibredCover:
    def test_exact_boundary_case(self):
        cert = certify_fibred_cover(FdtcValue.exact(Fraction(1, 2), "t"), 2, 0)
        assert cert.verdict is Verdict.EXCELLENT
        assert cert.justifications[0].rule == "cover-surgery-twist-gap"
        assert cert.assumptions  # hyperbolic fibred assumption echoed
        assert_replays(cert)

    def test_zero_twist_unknown(self):
        for n in (1, 2, 9):
            cert = certify_fibred_cover(FdtcValue.exact(Fraction(0), "t"), n, 0)
            assert cert.verdict is Verdict.UNKNOWN
            assert cert.notes

    def test_interval_crossing_unknown(self):
        v = FdtcValue.interval(Fraction(2, 5), Fraction(3, 5), "t")
        assert certify_fibred_cover(v, 4, 3).verdict is Verdict.UNKNOWN

    def test_interval_clearing_certifies(self):
        v = FdtcValue.interval(Fraction(2, 5), Fraction(3, 5), "t")
        cert = certify_fibred_cover(v, 10, 0)  # 10c in [4, 6], gap >= 3
        assert cert.verdict is Verdict.EXCELLENT
        assert_replays(cert)

    def test_genus_route(self):
        v = FdtcValue.interval(Fraction(1, 10), Fraction(1, 2), "t")
        cert = certify_fibred_cover(v, 6, 0, genus=2)
        assert cert.verdict is Verdict.EXCELLENT
        assert any(j.rule == "genus-twist-floor" for j in cert.justifications)
        assert_replays(cert)
        # below the threshold n >= 2(2g-1) = 6 the rule stays silent
        cert = certify_fibred_cover(v, 5, 0, genus=2)
        assert all(j.rule != "genus-twist-floor" for j in cert.justifications)

    def test_bad_parameters(self):
        with pytest.raises(BadParameters):
            certify_fibred_cover(FdtcValue.exact(Fraction(1), "t"), 0, 1)

    @given(small_rationals, st.integers(1, 9), st.integers(-8, 8))
    @settings(max_examples=300)
    def test_degeneracy_slope_equivalence(self, c, n, q):
        """Excellent iff the surgery slope is distance >= b from the
        degeneracy slope delta = b mu + a lambda with c = a/b."""
        cert = certify_fibred_cover(FdtcValue.exact(c, "t"), n, q)
        dist = slope_distance(SurgerySlope(n, q), DegeneracySlope.from_twist(c))
        assert (cert.verdict is Verdict.EXCELLENT) == (dist >= c.denominator)
        if cert.verdict is Verdict.EXCELLENT:
            assert_replays(cert)

    @given(small_rationals, st.integers(1, 9), st.integers(-8, 8))
    @settings(max_examples=300)
    def test_excluded_q_equivalence(self, c, n, q):
        cert = certify_fibred_cover(FdtcValue.exact(c, "t"), n, q)
        assert (cert.verdict is Verdict.EXCELLENT) == (q not in excluded_q(c, n))


class TestExcludedQ:
    def test_integer_case(self):
        assert excluded_q(Fraction(1, 3), 3) == frozenset({1})
        assert excluded_q(Fraction(0), 5) == frozenset({0})

    def test_non_integer_case(self):
        assert excluded_q(Fraction(1, 2), 3) == frozenset({1, 2})
        assert excluded_q(Fraction(-1, 2), 3) == frozenset({-2, -1})


class TestOrbifoldCover:
    def test_examples(self):
        assert certify_orbifold_cover(
            FdtcValue.exact(Fraction(1), "t"), 1, 0, 1).verdict is Verdict.EXCELLENT
        assert certify_orbifold_cover(
            FdtcValue.exact(Fraction(1, 2), "t"), 2, 1, 3).verdict is Verdict.UNKNOWN
        cert = certify_orbifold_cover(FdtcValue.exact(Fraction(1, 2), "t"), 3, 1, 2)
        assert cert.verdict is Verdict.EXCELLENT
        assert_replays(cert)

    def test_coprimality_enforced(self):
        with pytest.raises(BadParameters):
            certify_orbifold_cover(FdtcValue.exact(Fraction(1), "t"), 2, 4, 1)

    def test_multiplicity_scales_the_gap(self):
        v = FdtcValue.exact(Fraction(1, 3), "t")
        # |3c - 2| = 1: multiplicity 1 certifies at distance exactly 1
        assert certify_orbifold_cover(v, 3, 2, 1).verdict is Verdict.EXCELLENT
        # |3c - 1| = 0 cannot be rescued by multiplicity
        assert certify_orbifold_cover(v, 3, 1, 100).verdict is Verdict.UNKNOWN


class TestSlopeDistance:
    def test_formula(self):
        assert slope_distance(SurgerySlope(1, 0), DegeneracySlope(2, 1)) == 1
        assert slope_distance(SurgerySlope(3, 1), DegeneracySlope(2, 1)) == 1

    def test_proportional_classes(self):
        assert slope_distance(SurgerySlope(2, 1), DegeneracySlope(2, 1)) == 0

    def test_slope_validation(self):
        with pytest.raises(BadParameters):
            SurgerySlope(0, 5)
        with pytest.raises(BadParameters):
            DegeneracySlope(0, 1)
        with pytest.raises(BadParameters):
            DegeneracySlope(4, 2)

    def test_from_twist(self):
        d = DegeneracySlope.from_twist(Fraction(-3, 7))
        assert (d.b, d.a) == (7, -3)


class TestClosedBraidCover:
    def test_even_cover_example(self):
        cert = certify_closed_braid_cover(C ** 2 * PA, 2)
        assert cert.verdict is Verdict.EXCELLENT
        assert any(j.rule == "even-cover" for j in cert.justifications)
        assert_replays(cert)

    def test_zero_twist_unknown(self):
        assert certify_closed_braid_cover(PA, 2).verdict is Verdict.UNKNOWN

    def test_divisor_route(self):
        cert = certify_closed_braid_cover(C ** 3 * PA, 4)
        assert cert.verdict is Verdict.EXCELLENT
        rules = [j.rule for j in cert.justifications]
        assert "coprime-divisor-cover" in rules and "even-cover" in rules
        assert_replays(cert)

    def test_odd_cover_via_divisor_only(self):
        # t = 5 prime: needs n = 5 <= |c|; even rule silent
        cert = certify_closed_braid_cover(C ** 5 * PA, 5)
        assert cert.verdict is Verdict.EXCELLENT
        assert [j.rule for j in cert.justifications] == ["coprime-divisor-cover"]
        assert_replays(cert)

    def test_divisor_must_be_coprime_to_strands(self):
        # t = 3: the only usable n is 3, but gcd(3, 3) != 1 and t is odd
        cert = certify_closed_braid_cover(C ** 8 * PA, 3)
        assert cert.verdict is Verdict.UNKNOWN

    def test_non_pa_without_assertion(self):
        cert = certify_closed_braid_cover(C ** 3 * BraidWord(3, (2, 2)), 2)
        assert cert.verdict is Verdict.UNKNOWN
        assert "not pseudo-Anosov" in cert.notes[0]

    def test_non_pa_with_assertion_is_flagged(self):
        cert = certify_closed_braid_cover(
            C ** 3 * BraidWord(3, (2, 2)), 2, pa_asserted=True)
        assert cert.verdict is Verdict.EXCELLENT
        assert "braid asserted pseudo-Anosov" in cert.assumptions
        assert any("does not find pseudo-Anosov" in n for n in cert.notes)

    def test_wide_braid_requires_assertion(self):
        b = full_twist(4) ** 3
        assert certify_closed_braid_cover(b, 2).verdict is Verdict.UNKNOWN
        cert = certify_closed_braid_cover(b, 3, pa_asserted=True)
        assert cert.verdict is Verdict.EXCELLENT  # n = 3 coprime to m = 4
        assert_replays(cert)

    def test_bad_cover_order(self):
        with pytest.raises(BadParameters):
            certify_closed_braid_cover(PA, 1)

    @given(st.integers(2, 6), st.integers(1, 4), st.integers(2, 3))
    @settings(max_examples=60, deadline=None)
    def test_monotonicity_in_cover_order(self, d, k, j):
        """Excellent at t stays Excellent at every multiple of t."""
        b = C ** d * PA
        t = 2 * k
        if certify_closed_braid_cover(b, t).verdict is Verdict.EXCELLENT:
            assert certify_closed_braid_cover(b, t * j).verdict is Verdict.EXCELLENT


_COMPANION = ("companion is a fibred hyperbolic knot in an integer homology"
              " sphere (asserted)")
_NO_PA_FOUND = ("3-braid classification does not find pseudo-Anosov type;"
                " proceeding on the assertion")


class TestPseudoAnosovGate:
    """Every branch of the pseudo-Anosov gate in both certifiers: proved
    on 3 strands, asserted against the classification, refused on 3
    strands, asserted and refused on 4 strands."""

    @pytest.mark.parametrize("b,t,asserted,verdict,assumptions,notes", [
        (C ** 2 * PA, 2, False, Verdict.EXCELLENT, (),
         ("pseudo-Anosov type proved by the 3-braid classification",)),
        (C ** 3 * BraidWord(3, (2, 2)), 2, True, Verdict.EXCELLENT,
         ("braid asserted pseudo-Anosov",), (_NO_PA_FOUND,)),
        (C ** 3 * BraidWord(3, (2, 2)), 2, False, Verdict.UNKNOWN, (),
         ("braid is not pseudo-Anosov by the 3-braid classification",)),
        (full_twist(4) ** 3, 3, True, Verdict.EXCELLENT,
         ("braid asserted pseudo-Anosov",), ()),
        (full_twist(4) ** 3, 3, False, Verdict.UNKNOWN, (),
         ("pseudo-Anosov type is only provable on 3 strands; assert it"
          " explicitly for other strand counts",)),
    ])
    def test_closed_braid_cover(self, b, t, asserted, verdict, assumptions,
                                notes):
        cert = certify_closed_braid_cover(b, t, pa_asserted=asserted)
        assert (cert.verdict, cert.assumptions, cert.notes) == (
            verdict, assumptions, notes)

    @pytest.mark.parametrize("pattern,n,asserted,verdict,assumptions,notes", [
        (PA, 2, False, Verdict.EXCELLENT, (_COMPANION,),
         ("pattern pseudo-Anosov type proved by the 3-braid classification",)),
        (BraidWord(3, (1, 2)), 2, True, Verdict.EXCELLENT,
         (_COMPANION, "pattern braid asserted pseudo-Anosov"), (_NO_PA_FOUND,)),
        (BraidWord(3, (1, 2)), 2, False, Verdict.UNKNOWN, (_COMPANION,),
         ("pattern is not pseudo-Anosov by the 3-braid classification",)),
        (BraidWord(4, (1, 3)), 3, True, Verdict.EXCELLENT,
         (_COMPANION, "pattern braid asserted pseudo-Anosov"), ()),
        (BraidWord(4, (1, 3)), 3, False, Verdict.UNKNOWN, (_COMPANION,),
         ("pattern pseudo-Anosov type must be asserted on more than 3"
          " strands",)),
    ])
    def test_satellite(self, pattern, n, asserted, verdict, assumptions, notes):
        cert = certify_satellite(pattern, n, FdtcValue.exact(Fraction(0), "t"),
                                 pa_asserted=asserted)
        assert (cert.verdict, cert.assumptions, cert.notes) == (
            verdict, assumptions, notes)


class TestGenus1Cover:
    def test_trichotomy_spec_rows(self):
        w1 = BraidWord(3, (-1, -2))
        assert certify_genus1_cover(w1, 5).verdict is Verdict.TOTAL_L_SPACE
        assert certify_genus1_cover(w1, 6).verdict is Verdict.EXCELLENT
        cw3 = C * BraidWord(3, (-1, -1, -1, -2))
        assert certify_genus1_cover(cw3, 5).verdict is Verdict.TOTAL_L_SPACE
        assert certify_genus1_cover(cw3, 6).verdict is Verdict.EXCELLENT
        assert certify_genus1_cover(PA, 3).verdict is Verdict.TOTAL_L_SPACE

    def test_pa_nonzero_twist(self):
        for d in (-2, -1, 1, 2):
            for n in (2, 5):
                cert = certify_genus1_cover(C ** d * PA, n)
                assert cert.verdict is Verdict.EXCELLENT
                assert_replays(cert)

    def test_reducible_nonzero_twist(self):
        cert = certify_genus1_cover(C * BraidWord(3, (2, 2)), 2)
        assert cert.verdict is Verdict.EXCELLENT
        assert_replays(cert)

    def test_split_binding(self):
        with pytest.raises(SplitBinding):
            certify_genus1_cover(BraidWord(3, (2, 2)), 2)
        with pytest.raises(SplitBinding):
            certify_genus1_cover(BraidWord(3, ()), 4)

    def test_bad_cover_order(self):
        with pytest.raises(BadParameters):
            certify_genus1_cover(PA, 1)

    def test_every_verdict_carries_trichotomy_rule(self):
        for h, n in [(BraidWord(3, (-1, -2)), 4), (PA, 2), (C * PA, 7)]:
            cert = certify_genus1_cover(h, n)
            assert any(j.rule == "genus1-trichotomy" for j in cert.justifications)
            assert_replays(cert)

    @given(three_braids(max_len=16))
    @settings(max_examples=150, deadline=None)
    def test_baldwin_consistency_at_two(self, h):
        """Sigma_2 of the open book of h is Sigma_2 of the closure of
        h^2, so the n = 2 verdict must agree with the double-cover
        L-space list evaluated on h squared."""
        try:
            cert = certify_genus1_cover(h, 2)
        except SplitBinding:
            return
        baldwin = baldwin_lspace_double_cover(normal_form(h * h))
        assert (cert.verdict is Verdict.TOTAL_L_SPACE) == (
            baldwin is LSpaceStatus.L_SPACE
        )


class TestSatellite:
    def test_zero_companion(self):
        cert = certify_satellite(PA, 2, FdtcValue.exact(Fraction(0), "t"),
                                 companion_exact_zero=True)
        assert cert.verdict is Verdict.EXCELLENT
        assert_replays(cert)

    def test_exact_zero_without_flag(self):
        cert = certify_satellite(PA, 2, FdtcValue.exact(Fraction(0), "t"))
        assert cert.verdict is Verdict.EXCELLENT
        assert any(j.rule == "satellite-zero-twist-companion"
                   for j in cert.justifications)

    def test_non_coprime_unknown(self):
        cert = certify_satellite(PA, 3, FdtcValue.exact(Fraction(0), "t"),
                                 companion_exact_zero=True)
        assert cert.verdict is Verdict.UNKNOWN
        assert any("shares a factor" in n for n in cert.notes)

    def test_threshold_and_nonnegative_rules(self):
        cert = certify_satellite(BraidWord(3, (1, 2)), 4,
                                 FdtcValue.exact(Fraction(1, 2), "t"),
                                 pa_asserted=True)
        assert cert.verdict is Verdict.EXCELLENT
        rules = {j.rule for j in cert.justifications}
        assert "satellite-twist-threshold" in rules
        assert "satellite-nonnegative-twists" in rules
        assert_replays(cert)

    def test_threshold_needs_n_at_least_two_over_c(self):
        v = FdtcValue.exact(Fraction(1, 2), "t")
        # n = 2 < 2/|c| = 4 and the pattern is negative: nothing applies
        cert = certify_satellite(BraidWord(3, (-1, 2)), 2, v, pa_asserted=True)
        assert cert.verdict is Verdict.UNKNOWN

    def test_interval_companion_threshold(self):
        v = FdtcValue.interval(Fraction(1, 2), Fraction(2, 3), "t")
        cert = certify_satellite(PA, 4, v)
        assert cert.verdict is Verdict.EXCELLENT
        assert_replays(cert)

    def test_negative_companion_blocks_nonnegative_rule(self):
        v = FdtcValue.interval(Fraction(-1, 12), Fraction(1, 12), "t")
        cert = certify_satellite(BraidWord(3, (1, 2)), 5, v, pa_asserted=True)
        assert cert.verdict is Verdict.UNKNOWN

    def test_pattern_pa_gate(self):
        v = FdtcValue.exact(Fraction(0), "t")
        cert = certify_satellite(BraidWord(3, (1, 2)), 2, v,
                                 companion_exact_zero=True)
        assert cert.verdict is Verdict.UNKNOWN  # periodic, not asserted
        cert = certify_satellite(BraidWord(4, (1, 3)), 3, v,
                                 companion_exact_zero=True)
        assert cert.verdict is Verdict.UNKNOWN  # 4 strands, not asserted
        cert = certify_satellite(BraidWord(4, (1, 3)), 3, v,
                                 companion_exact_zero=True, pa_asserted=True)
        assert cert.verdict is Verdict.EXCELLENT

    def test_bad_cover_order(self):
        with pytest.raises(BadParameters):
            certify_satellite(PA, 1, FdtcValue.exact(Fraction(0), "t"))


class TestCertificateStructure:
    def test_definite_needs_justification(self):
        with pytest.raises(BadParameters):
            Certificate(Verdict.EXCELLENT, ())
        with pytest.raises(BadParameters):
            Certificate(Verdict.TOTAL_L_SPACE, ())
        Certificate(Verdict.UNKNOWN, ())  # fine

    def test_golden_serialization(self):
        cert = certify_fibred_cover(FdtcValue.exact(Fraction(1, 2), "t"), 2, 0)
        expected = (
            '{"verdict": "Excellent", "justifications": [{"rule": '
            '"cover-surgery-twist-gap", "citation": "surgery along the lifted'
            ' binding with slope (n, q) is excellent when the fractional'
            ' twist keeps distance |n c - q| >= 1", "inequality": "1 *'
            ' abs(2 * (1/2) - (0)) >= 1 and 1 * abs(2 * (1/2) - (0)) >= 1'
            ' and (2 * (1/2) - (0)) * (2 * (1/2) - (0)) > 0"}],'
            ' "assumptions": ["K is a fibred hyperbolic knot in an integer'
            ' homology sphere (asserted)"], "notes": []}'
        )
        assert cert.to_json() == expected
        # byte-stable across repeated construction
        again = certify_fibred_cover(FdtcValue.exact(Fraction(1, 2), "t"), 2, 0)
        assert again.to_json() == cert.to_json()

    def test_render_text_shape(self):
        cert = certify_fibred_cover(FdtcValue.exact(Fraction(1, 2), "t"), 2, 0)
        lines = cert.render_text().splitlines()
        assert lines[0] == "Excellent"
        assert lines[1].startswith("  rule cover-surgery-twist-gap:")
        assert lines[2].startswith("    check:")


class TestReplayChecker:
    def test_evaluates_exact_rationals(self):
        assert evaluate_inequality("1/3 + 1/6 == 1/2")
        assert evaluate_inequality("abs(-7/2) >= 3")
        assert not evaluate_inequality("2/3 > 1")
        assert evaluate_inequality("gcd(12, 8) == 4")
        assert evaluate_inequality("7 % 2 == 1")
        assert evaluate_inequality("0 <= 3 <= 5")  # chained

    def test_boolean_structure(self):
        assert evaluate_inequality("1 > 2 or 3 > 2")
        assert not evaluate_inequality("1 > 2 and 3 > 2")
        assert evaluate_inequality("not 1 > 2")

    def test_rejects_foreign_syntax(self):
        for bad in ("__import__('os')", "x + 1", "2 ** 10", "1.5 < 2",
                    "min(1, 2) == 1", "(lambda: 1)() == 1", "1 if 2 else 3"):
            with pytest.raises(ReplayError):
                evaluate_inequality(bad)

    def test_rejects_non_boolean_result(self):
        with pytest.raises(ReplayError):
            evaluate_inequality("1 + 1")

    def test_tampered_certificate_fails(self):
        cert = Certificate(
            Verdict.EXCELLENT,
            (Justification("made-up", "no theorem", "1 >= 2"),),
        )
        assert not verify_certificate(cert)

    def test_malformed_inequality_raises(self):
        cert = Certificate(
            Verdict.EXCELLENT,
            (Justification("made-up", "no theorem", "1 >="),),
        )
        with pytest.raises(ReplayError):
            verify_certificate(cert)

    def test_unknown_certificate_verifies_vacuously(self):
        assert verify_certificate(Certificate(Verdict.UNKNOWN, ()))

    @pytest.mark.parametrize("text", ["1/0 > 0", "1 % 0 == 0", "1 / (2 - 2) < 1",
                                      "gcd(4, 6) % (1 - 1) == 0"])
    def test_division_by_zero_raises(self, text):
        with pytest.raises(ReplayError):
            evaluate_inequality(text)

    @pytest.mark.parametrize("text", ["-" * 4000 + "1 > 0",
                                      "1" + " +1" * 1300 + " > 0",
                                      "not " * 1000 + "1 > 0"])
    def test_deep_nesting_raises(self, text):
        with pytest.raises(ReplayError):
            evaluate_inequality(text)

    def test_overlong_input_raises(self):
        with pytest.raises(ReplayError):
            evaluate_inequality("-" * 5000 + "1 > 0")
        with pytest.raises(ReplayError):
            evaluate_inequality("1 > 0" + " and 1 > 0" * 500)

    def test_non_string_raises(self):
        for bad in (None, 1, b"1 > 0"):
            with pytest.raises(ReplayError):
                evaluate_inequality(bad)

    @given(st.text(alphabet="0123456789 +-*/%()<>=!,abcdgnost", max_size=60))
    @settings(max_examples=300)
    def test_fails_closed_on_any_text(self, text):
        try:
            result = evaluate_inequality(text)
        except ReplayError:
            return
        assert isinstance(result, bool)
