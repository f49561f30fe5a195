"""Certifier rules, certificate structure, and replay soundness."""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from conftest import letter_lists, three_braids
from hypothesis import example, given, settings
from hypothesis import strategies as st

from braidcert import (
    BadGenus,
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
    fdtc_interval,
    full_twist,
    normal_form,
    slope_distance,
    verify_certificate,
)
from braidcert import braid, certify, threebraid
from braidcert.braid import parse_decimal
from braidcert.certify import _RULES
from braidcert.cli import _json_line
from braidcert.replay import MAX_INEQUALITY_CHARS

C = full_twist(3)
PA = BraidWord(3, (1, -2))
#: sigma_1 sigma_2 sigma_3^-1 Delta^6, pseudo-Anosov (sigma_1 sigma_2
#: sigma_3^-1 is, and Delta^2 is central) with twist in [3, 37/12]: no
#: root b^q = Delta^(2p) refutes an assertion on it.
PA4 = BraidWord(4, (1, 2, -3)) * full_twist(4) ** 3

small_rationals = st.fractions(
    min_value=Fraction(-4), max_value=Fraction(4), max_denominator=8
)


@st.composite
def nonzero_twists(draw):
    """Ends (lo, hi) of a twist interval certified nonzero: both on one
    side of 0."""
    ends = st.fractions(min_value=Fraction(1, 100), max_value=Fraction(4),
                        max_denominator=100)
    lo, hi = sorted((draw(ends), draw(ends)))
    return draw(st.sampled_from([(lo, hi), (-hi, -lo)]))


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

    @given(st.integers(1, 6), st.integers(1, 30), nonzero_twists())
    @example(2, 6, (Fraction(1, 10), Fraction(1, 2)))
    # below the threshold n >= 2(2g-1) = 6 the rule stays silent
    @example(2, 5, (Fraction(1, 10), Fraction(1, 2)))
    @settings(max_examples=200)
    def test_genus_route(self, genus, n, bounds):
        cert = certify_fibred_cover(FdtcValue.interval(*bounds, "t"), n, 0,
                                    genus=genus)
        fired = any(j.rule == "genus-twist-floor" for j in cert.justifications)
        assert fired == (n >= 2 * (2 * genus - 1))
        if fired:
            assert cert.verdict is Verdict.EXCELLENT
        assert_replays(cert)

    @given(st.integers(-5, 0), st.integers(1, 30), st.integers(-3, 3),
           nonzero_twists())
    @settings(max_examples=100)
    def test_genus_below_one_raises(self, genus, n, q, bounds):
        v = FdtcValue.interval(*bounds, "t")
        with pytest.raises(BadGenus, match=f"^genus must be >= 1, got {genus}$"):
            certify_fibred_cover(v, n, q, genus=genus)
        # the cover order is checked first
        with pytest.raises(BadParameters, match="^cover order must be >= 1"):
            certify_fibred_cover(v, 0, q, genus=genus)

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
        b = PA4
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
_PERIODIC_2 = ("no 2-braid is pseudo-Anosov: B_2 is generated by sigma_1, and"
               " sigma_1^2 = Delta^2 is central, so every 2-braid is periodic")


class TestPseudoAnosovGate:
    """Every branch of the pseudo-Anosov gate in both certifiers: proved
    on 3 strands, asserted against the classification, refused on 3
    strands, asserted and refused on 4 strands, and refused on 2 strands
    with or without the assertion, as every 2-braid is periodic."""

    @pytest.mark.parametrize("b,t,asserted,verdict,assumptions,notes", [
        (C ** 2 * PA, 2, False, Verdict.EXCELLENT, (),
         ("pseudo-Anosov type proved by the 3-braid classification",)),
        (C ** 3 * BraidWord(3, (2, 2)), 2, True, Verdict.EXCELLENT,
         ("braid asserted pseudo-Anosov",), (_NO_PA_FOUND,)),
        (C ** 3 * BraidWord(3, (2, 2)), 2, False, Verdict.UNKNOWN, (),
         ("braid is not pseudo-Anosov by the 3-braid classification",)),
        (PA4, 3, True, Verdict.EXCELLENT,
         ("braid asserted pseudo-Anosov",), ()),
        (full_twist(4) ** 3, 3, False, Verdict.UNKNOWN, (),
         ("pseudo-Anosov type is only provable on 3 strands; assert it"
          " explicitly for other strand counts",)),
        (BraidWord(2, (1,) * 6), 3, True, Verdict.UNKNOWN, (), (_PERIODIC_2,)),
        (BraidWord(2, (1,) * 6), 3, False, Verdict.UNKNOWN, (), (_PERIODIC_2,)),
        (full_twist(4) ** 3, 3, True, Verdict.UNKNOWN, (),
         ("braid is not pseudo-Anosov, though asserted: it is periodic,"
          " b^4 = Delta^24",)),
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
        (BraidWord(2, (1,)), 3, True, Verdict.UNKNOWN, (_COMPANION,),
         (_PERIODIC_2,)),
        (BraidWord(2, (1,)), 3, False, Verdict.UNKNOWN, (_COMPANION,),
         (_PERIODIC_2,)),
        (BraidWord(4, (1, 2, 3)), 3, True, Verdict.UNKNOWN, (_COMPANION,),
         ("pattern is not pseudo-Anosov, though asserted: it is periodic,"
          " b^4 = Delta^2",)),
    ])
    def test_satellite(self, pattern, n, asserted, verdict, assumptions, notes):
        cert = certify_satellite(pattern, n, FdtcValue.exact(Fraction(0), "t"),
                                 pa_asserted=asserted)
        assert (cert.verdict, cert.assumptions, cert.notes) == (
            verdict, assumptions, notes)

    @given(st.integers(4, 6), st.booleans(), st.integers(-4, 4),
           st.data())
    @settings(max_examples=40, deadline=None)
    def test_periodic_braids_refute_the_assertion(self, m, rotation, d, data):
        # every periodic braid is conjugate to a power of delta_1 =
        # sigma_1 ... sigma_(m-1) or of epsilon = delta_1 sigma_1, and
        # delta_1^m = epsilon^(m-1) = Delta^2
        root = tuple(range(1, m)) + ((1,) if rotation else ())
        w = BraidWord(m, tuple(data.draw(letter_lists(m, 8))))
        b = BraidWord(m, root * d if d >= 0 else
                      tuple(-x for x in reversed(root)) * -d).conjugated_by(w)
        # the root tried first, q = m, holds unless b is a power of
        # epsilon that is not central
        q, p = (m - 1, d) if rotation and d % (m - 1) else (m, d * len(root) // (m - 1))
        note = f"is not pseudo-Anosov, though asserted: it is periodic, b^{q} = Delta^{2 * p}"
        cover = certify_closed_braid_cover(b, 3, pa_asserted=True)
        satellite = certify_satellite(b, 5, FdtcValue.exact(Fraction(1), "t"),
                                      pa_asserted=True)
        assert (cover.verdict, cover.assumptions, cover.notes) == (
            Verdict.UNKNOWN, (), (f"braid {note}",))
        assert (satellite.verdict, satellite.assumptions, satellite.notes) == (
            Verdict.UNKNOWN, (_COMPANION,), (f"pattern {note}",))

    def test_root_past_the_letter_cap_proceeds_on_the_assertion(self, monkeypatch):
        # delta_1^3: the root test would build b^4, 36 letters
        monkeypatch.setattr(braid, "MAX_WORD_LETTERS", 20)
        cert = certify_satellite(BraidWord(4, (1, 2, 3) * 3), 3,
                                 FdtcValue.exact(Fraction(0), "t"), pa_asserted=True)
        assert cert.verdict is Verdict.EXCELLENT
        assert cert.assumptions == (_COMPANION, "pattern braid asserted pseudo-Anosov")
        assert cert.notes == ("periodicity not tested (power would have 36 letters,"
                              " cap is 20); proceeding on the assertion",)


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


class TestOneClassification:
    """Each certifier classifies a 3-braid once: the closed-braid cover
    reads its twist bound off the normal form its pseudo-Anosov gate
    computed."""

    @pytest.fixture
    def classified(self, monkeypatch):
        """The braids classified, by wrapping normal_form wherever a
        braidcert module binds it."""
        original, calls = threebraid.normal_form, []

        def counted(b):
            calls.append(b)
            return original(b)

        for name, module in list(sys.modules.items()):
            if name == "braidcert" or name.startswith("braidcert."):
                for key, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, key, counted)
        return calls

    @pytest.mark.parametrize("b,t,asserted", [
        (C ** 2 * PA, 2, False), (C ** 3 * PA, 4, True), (PA, 2, False),
        (C ** 3 * BraidWord(3, (2, 2)), 2, True),
        (C ** 3 * BraidWord(3, (2, 2)), 2, False),
        (BraidWord(3, (1, 2)), 3, True), (BraidWord(3, ()), 2, True),
    ])
    def test_closed_braid_cover(self, classified, b, t, asserted):
        certify_closed_braid_cover(b, t, pa_asserted=asserted)
        assert classified == [b]

    @pytest.mark.parametrize("pattern,n,asserted", [
        (PA, 2, False), (BraidWord(3, (1, 2)), 2, True),
        (BraidWord(3, (1, 2)), 2, False), (C * PA, 3, False),
    ])
    def test_satellite(self, classified, pattern, n, asserted):
        certify_satellite(pattern, n, FdtcValue.exact(Fraction(1, 2), "t"),
                          pa_asserted=asserted)
        assert classified == [pattern]

    @pytest.mark.parametrize("h", [PA, C * PA, BraidWord(3, (-1, -2)),
                                   C * BraidWord(3, (2, 2))])
    def test_genus1_cover(self, classified, h):
        certify_genus1_cover(h, 3)
        assert classified == [h]

    def test_twist_on_three_strands_keeps_its_provenance(self, classified):
        value = fdtc_interval(C * PA, Fraction(1, 12))
        assert (value.value, value.provenance) == (
            1, "conjugacy classification of 3-braids")
        assert classified == [C * PA]

    def test_other_strand_counts_classify_nothing(self, classified):
        certify_closed_braid_cover(PA4, 3, pa_asserted=True)
        certify_closed_braid_cover(BraidWord(2, (1,) * 6), 3, pa_asserted=True)
        assert classified == []


def _cover_reference(b, t, asserted):
    """certify_closed_braid_cover's record on a 3-braid, with the bound
    |c| taken from fdtc_interval(b, 1/12): the gate, then the two rules."""
    assumptions, notes = [], []
    refusal = certify._pa_gate(b, normal_form(b), asserted, certify._BRAID_PA_GATE,
                               assumptions, notes)
    if refusal is not None:
        return refusal.to_record()
    cmin = fdtc_interval(b, Fraction(1, 12)).abs_lower_bound()
    rules = []
    if t % 2 == 0 and cmin >= 2:
        rules.append(certify._rule("even-cover", cmin=cmin, t=t, m=3))
    n = next((n for n in range(2, int(cmin) + 1) if t % n == 0 and n % 3), None)
    if n is not None:
        rules.append(certify._rule("coprime-divisor-cover", t=t, n=n, k=t // n,
                                   cmin=cmin, m=3))
    return certify._verdict(rules, assumptions, notes,
                            f"certified twist bound |c| >= {cmin} admits no"
                            f" qualifying cover order dividing {t}").to_record()


@given(three_braids(max_len=16), st.integers(-3, 3), st.integers(2, 12), st.booleans())
@example(BraidWord(3, (1, 2)), 2, 2, True)
@example(BraidWord(3, (-1, -2)), -2, 6, True)
@example(PA, -3, 6, False)
@settings(max_examples=200, deadline=None)
def test_cover_bound_is_the_braids_twist(b, d, t, asserted):
    b = C ** d * b
    record = certify_closed_braid_cover(b, t, pa_asserted=asserted).to_record()
    assert record == _cover_reference(b, t, asserted)


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
        assert _json_line(cert.to_record()) == expected
        # byte-stable across repeated construction
        again = certify_fibred_cover(FdtcValue.exact(Fraction(1, 2), "t"), 2, 0)
        assert _json_line(again.to_record()) == expected

    def test_render_text_shape(self):
        cert = certify_fibred_cover(FdtcValue.exact(Fraction(1, 2), "t"), 2, 0)
        lines = cert.render_text().splitlines()
        assert lines[0] == "Excellent"
        assert lines[1].startswith("  rule cover-surgery-twist-gap:")
        assert lines[2].startswith("    check:")


class TestRuleTable:
    def test_every_rule_is_emitted_and_replays(self):
        half, zero = FdtcValue.exact(Fraction(1, 2), "t"), FdtcValue.exact(0, "t")
        w1 = BraidWord(3, (-1, -2))
        certs = [
            certify_fibred_cover(half, 2, 0),
            certify_fibred_cover(FdtcValue.interval(Fraction(1, 10), Fraction(1, 2),
                                                    "t"), 6, 0, genus=2),
            certify_orbifold_cover(half, 3, 1, 2),
            certify_closed_braid_cover(C ** 3 * PA, 4),  # even and divisor
            certify_genus1_cover(PA, 3),
            certify_genus1_cover(C * PA, 2),
            certify_genus1_cover(C * BraidWord(3, (2, 2)), 2),
            certify_genus1_cover(w1, 5),  # periodic, L-space side
            certify_genus1_cover(w1, 6),  # periodic, the other side
            certify_satellite(PA, 2, zero, companion_exact_zero=True),
            certify_satellite(BraidWord(3, (1, 2)), 4, half, pa_asserted=True),
        ]
        emitted = {j.rule for cert in certs for j in cert.justifications}
        assert emitted == set(_RULES)
        assert all(verify_certificate(cert) is True for cert in certs)

    def test_every_golden_rule_is_in_the_table(self):
        # as JSON fields and as text lines
        rules = set()
        for path in Path(__file__).with_name("golden").glob("*.txt"):
            text = path.read_text()
            rules |= set(re.findall(r'"rule": "([^"]*)"', text))
            rules |= set(re.findall(r"^ *rule (\S*):", text, re.MULTILINE))
        assert len(rules) == 10
        assert rules <= set(_RULES)


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

    # a Python bool is an int, so each of these would otherwise hold
    @pytest.mark.parametrize("text", ["(1 < 2) + 1 > 0", "abs(1 < 2) == 1",
                                      "(1<2) * 3 == 3", "1 == 1 == (2 > 1)",
                                      "-(1 < 2) < 0", "gcd(1 < 2, 2) == 1"])
    def test_rejects_comparisons_used_as_numbers(self, text):
        with pytest.raises(ReplayError):
            evaluate_inequality(text)

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

    def test_parser_stack_overflow_raises(self):
        # CPython 3.11's parser gives up on this nesting with MemoryError
        for depth in (6000, MAX_INEQUALITY_CHARS - 5):
            with pytest.raises(ReplayError, match="nested too deeply"):
                evaluate_inequality("-" * depth + "1 > 0")

    def test_overlong_input_raises(self):
        with pytest.raises(ReplayError, match="exceeds"):
            evaluate_inequality("-" * MAX_INEQUALITY_CHARS + "1 > 0")
        with pytest.raises(ReplayError, match="exceeds"):
            evaluate_inequality(
                "1 > 0" + " and 1 > 0" * (MAX_INEQUALITY_CHARS // 10 + 1))

    def test_cap_is_inclusive(self):
        text = "1 > 0" + " and 1 > 0" * (MAX_INEQUALITY_CHARS // 10 - 1)
        text += " " * (MAX_INEQUALITY_CHARS - len(text))
        assert evaluate_inequality(text)
        with pytest.raises(ReplayError, match="exceeds"):
            evaluate_inequality(text + " ")

    def test_twist_gap_rules_replay_at_the_number_cap(self):
        # the longest numbers the parser reads: integers of 600 characters,
        # and a decimal of 599 digits that prints as a fraction of 1,200
        big = parse_decimal("9" * 600)
        q = parse_decimal("-1" + "0" * 598)
        lo = parse_decimal("." + "1" * 599, Fraction)
        hi = parse_decimal("." + "2" * 598 + "1", Fraction)
        assert len(str(lo)) == len(str(hi)) == 1200
        v = FdtcValue.interval(lo, hi, "t")
        # the orbifold rule's scale is the 600-digit multiplicity, the
        # surgery rule's is 1
        for cert, rule, length in (
                (certify_orbifold_cover(v, big, q, big), "orbifold-twist-gap",
                 MAX_INEQUALITY_CHARS),
                (certify_fibred_cover(v, big, q), "cover-surgery-twist-gap",
                 MAX_INEQUALITY_CHARS - 2 * 599)):
            assert cert.verdict is Verdict.EXCELLENT
            (j,) = cert.justifications
            assert (j.rule, len(j.inequality)) == (rule, length)
            assert_replays(cert)

    def test_long_surgery_certificate_replays(self):
        # n = 10^590 and q = 10^590 + 7: an inequality of 4,829 characters
        n, q = 10**590, 10**590 + 7
        cert = certify_fibred_cover(FdtcValue.exact(Fraction(1, 3), "t"), n, q)
        assert cert.verdict is Verdict.EXCELLENT
        assert len(cert.justifications[0].inequality) == 4829
        assert_replays(cert)

    def test_non_string_raises(self):
        for bad in (None, 1, b"1 > 0", ["1 > 0"]):
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


# ---------------------------------------------------------------------------
# replay against an evaluator that does its arithmetic in Fraction
#
# An expression is a tree: ("int", v), ("neg", x), ("bin", op, x, y),
# ("abs", x), ("gcd", x, y), ("cmp", x, ((op, y), ...)), ("not", x) and
# ("and" | "or", (x, ...)).  Any node may sit where a number or a
# comparison is expected, so that misuse is drawn too.

_ARITH = {"+": lambda a, b: a + b, "-": lambda a, b: a - b,
          "*": lambda a, b: a * b, "/": lambda a, b: a / b,
          "%": lambda a, b: a % b}
_CMP = {"<": lambda a, b: a < b, "<=": lambda a, b: a <= b,
        ">": lambda a, b: a > b, ">=": lambda a, b: a >= b,
        "==": lambda a, b: a == b, "!=": lambda a, b: a != b}


def _render(node) -> str:
    kind = node[0]
    if kind == "int":
        return str(node[1])
    if kind == "neg":
        return f"-({_render(node[1])})"
    if kind == "bin":
        return f"({_render(node[2])}) {node[1]} ({_render(node[3])})"
    if kind in ("abs", "gcd"):
        return f"{kind}({', '.join(_render(x) for x in node[1:])})"
    if kind == "cmp":
        return f"({_render(node[1])})" + "".join(f" {op} ({_render(y)})"
                                                 for op, y in node[2])
    if kind == "not":
        return f"not ({_render(node[1])})"
    return f" {kind} ".join(f"({_render(x)})" for x in node[1])


def _integer(value: Fraction, context: str) -> int:
    if value.denominator != 1:
        raise ReplayError(f"{context} needs an integer, got {value}")
    return value.numerator


def _fraction_number(node) -> Fraction:
    value = _fraction_eval(node)
    if isinstance(value, bool):
        raise ReplayError("a comparison is used as a number")
    return value


def _fraction_eval(node):
    """The value of the tree, every number a Fraction; the same refusals
    as replay, in the order replay meets them."""
    kind = node[0]
    if kind == "int":
        return Fraction(node[1])
    if kind == "neg":
        return -_fraction_number(node[1])
    if kind == "abs":
        return abs(_fraction_number(node[1]))
    if kind == "gcd":
        a, b = _fraction_number(node[1]), _fraction_number(node[2])
        return Fraction(math.gcd(_integer(a, "gcd"), _integer(b, "gcd")))
    if kind == "bin":
        op, a, b = node[1], _fraction_number(node[2]), _fraction_number(node[3])
        if op == "%":
            a, b = Fraction(_integer(a, "%")), Fraction(_integer(b, "%"))
        if op in "/%" and b == 0:
            raise ReplayError("division or % by zero")
        return _ARITH[op](a, b)
    if kind == "cmp":
        left = _fraction_number(node[1])
        for op, y in node[2]:
            right = _fraction_number(y)
            if not _CMP[op](left, right):
                return False
            left = right
        return True
    if kind == "not":
        value = _fraction_eval(node[1])
        if not isinstance(value, bool):
            raise ReplayError("not needs a comparison operand")
        return not value
    values = [_fraction_eval(x) for x in node[1]]
    if not all(isinstance(v, bool) for v in values):
        raise ReplayError("and/or operands must be comparisons")
    return all(values) if kind == "and" else any(values)


def _fraction_outcome(node):
    try:
        value = _fraction_eval(node)
    except ReplayError as exc:
        return "refused", str(exc)
    if not isinstance(value, bool):
        return "refused", "expression is arithmetic, not a comparison"
    return "holds", value


def _replay_outcome(text: str):
    try:
        return "holds", evaluate_inequality(text)
    except ReplayError as exc:
        return "refused", str(exc)


_LITERALS = st.one_of(st.integers(0, 12), st.integers(0, 10**40)).map(
    lambda v: ("int", v))


def _arithmetic(kids):
    return st.one_of(
        st.tuples(st.just("neg"), kids),
        st.tuples(st.just("bin"), st.sampled_from("+-*/%"), kids, kids),
        st.tuples(st.just("abs"), kids),
        st.tuples(st.just("gcd"), kids, kids),
    )


def _comparisons(operands):
    return st.tuples(st.just("cmp"), operands,
                     st.lists(st.tuples(st.sampled_from(sorted(_CMP)), operands),
                              min_size=1, max_size=3).map(tuple))


def _logic(kids):
    return st.one_of(
        st.tuples(st.just("not"), kids),
        st.tuples(st.sampled_from(("and", "or")),
                  st.lists(kids, min_size=2, max_size=3).map(tuple)),
    )


_NUMBERS = st.recursive(_LITERALS, _arithmetic, max_leaves=8)
#: Well-typed inequalities three times in four; otherwise any node
#: anywhere, so that a comparison used as a number, and a number used
#: as a comparison, are drawn too.
_EXPRESSIONS = st.one_of(
    st.recursive(_comparisons(_NUMBERS), _logic, max_leaves=4),
    st.recursive(_comparisons(_NUMBERS), _logic, max_leaves=4),
    st.recursive(_comparisons(_NUMBERS), _logic, max_leaves=4),
    st.recursive(_LITERALS, lambda kids: st.one_of(
        _arithmetic(kids), _comparisons(kids), _logic(kids)), max_leaves=12),
)


class TestReplayAgainstFractions:
    @given(_EXPRESSIONS)
    @settings(max_examples=400)
    @example(("bin", "%", ("bin", "/", ("int", 6), ("int", 3)), ("int", 4)))
    @example(("cmp", ("int", 1), ((">", ("int", 2)),
                                  ("<", ("bin", "/", ("int", 1), ("int", 0))))))
    @example(("gcd", ("bin", "/", ("int", 1), ("int", 2)), ("int", 2)))
    @example(("cmp", ("bin", "/", ("int", 4), ("int", 2)), (("==", ("int", 2)),)))
    @example(("cmp", ("bin", "+", ("cmp", ("int", 1), (("<", ("int", 2)),)),
                      ("int", 1)), ((">", ("int", 0)),)))
    def test_same_verdict_or_refusal(self, node):
        assert _replay_outcome(_render(node)) == _fraction_outcome(node)
