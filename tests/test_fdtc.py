"""Fractional Dehn twist coefficients: exact values, intervals, lifts."""

from __future__ import annotations

from fractions import Fraction

import pytest
from conftest import (
    recorded_probes,
    recorded_queries,
    recorded_walks,
    three_braids,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from braidcert import (
    MAX_WORD_LETTERS,
    BadGenus,
    BadParameters,
    BraidWord,
    FdtcValue,
    NotThreeBraid,
    OrderSign,
    PeriodicForm,
    ReductionBudgetExceeded,
    WordLengthExceeded,
    dehornoy_floor,
    delta,
    fdtc_exact_b3,
    fdtc_interval,
    fdtc_interval_by_floor,
    fdtc_lift,
    fdtc_lower_bound,
    full_twist,
    normal_form,
    parse_braid,
    power_floor,
    sigma_sign,
)
from braidcert import _kernel, _reduction_py, braid, ordering
from braidcert.fdtc import fdtc_of_normal_form

C = full_twist(3)

rationals = st.fractions(
    min_value=Fraction(-20), max_value=Fraction(20), max_denominator=12
)


class TestFdtcValue:
    def test_interval_orientation(self):
        with pytest.raises(BadParameters):
            FdtcValue.interval(Fraction(1), Fraction(0), "test")

    def test_exact_properties(self):
        v = FdtcValue.exact(Fraction(5, 4), "test")
        assert v.is_exact and v.value == Fraction(5, 4) and v.width == 0
        assert v.contains(Fraction(5, 4)) and not v.contains(Fraction(1))

    def test_interval_properties(self):
        v = FdtcValue.interval(Fraction(1, 3), Fraction(1, 2), "test")
        assert not v.is_exact
        assert v.width == Fraction(1, 6)
        with pytest.raises(BadParameters):
            _ = v.value

    def test_abs_lower_bound(self):
        assert FdtcValue.interval(
            Fraction(1, 3), Fraction(1, 2), "t").abs_lower_bound() == Fraction(1, 3)
        assert FdtcValue.interval(
            Fraction(-3), Fraction(-2), "t").abs_lower_bound() == 2
        assert FdtcValue.interval(
            Fraction(-1), Fraction(1), "t").abs_lower_bound() == 0
        assert FdtcValue.exact(Fraction(0), "t").abs_lower_bound() == 0

    def test_certifies_nonnegative(self):
        assert FdtcValue.interval(Fraction(0), Fraction(1), "t").certifies_nonnegative()
        assert not FdtcValue.interval(
            Fraction(-1, 12), Fraction(1), "t").certifies_nonnegative()


class TestExactB3:
    def test_known_values(self):
        assert fdtc_exact_b3(BraidWord(3, (1, 2))) == Fraction(1, 3)
        assert fdtc_exact_b3(delta(3)) == Fraction(1, 2)
        assert fdtc_exact_b3(BraidWord(3, (1, -2))) == 0
        assert fdtc_exact_b3(C) == 1
        assert fdtc_exact_b3(BraidWord(3, ())) == 0

    # the periodic families C^d sigma_1^m sigma_2^-1 satisfy w^3 = C^-1
    # (m = -1), w^2 = C^-1 (m = -2) and w^3 = C^-2 (m = -3), so
    # homogeneity forces these fractional parts
    _PERIODIC_FRACTIONS = {-1: Fraction(-1, 3), -2: Fraction(-1, 2),
                           -3: Fraction(-2, 3)}

    @given(three_braids(max_len=10), st.integers(-5, 5),
           st.sampled_from(sorted(_PERIODIC_FRACTIONS)))
    @example(BraidWord(3, ()), 0, -1)
    @example(BraidWord(3, ()), -3, -2)
    @example(BraidWord(3, ()), 3, -3)
    @settings(max_examples=150)
    def test_periodic_families(self, w, d, m):
        b = (C ** d * BraidWord(3, (-1,) * -m + (-2,))).conjugated_by(w)
        assert isinstance(normal_form(b), PeriodicForm)
        c = fdtc_exact_b3(b)
        assert c == d + self._PERIODIC_FRACTIONS[m]
        assert c == Fraction(b.exponent_sum, 6)

    def test_pa_and_reducible_families(self):
        for d in range(-3, 4):
            assert fdtc_exact_b3(C ** d * BraidWord(3, (1, -2))) == d
            assert fdtc_exact_b3(C ** d * BraidWord(3, (2, 2))) == d
            assert fdtc_exact_b3(C ** d * BraidWord(3, (-2,))) == d

    def test_boundary_twist_is_one(self):
        assert fdtc_exact_b3(C) == 1
        assert fdtc_exact_b3(C ** -1) == -1

    @given(three_braids(max_len=20))
    @settings(max_examples=120)
    def test_conjugacy_invariance(self, b):
        w = BraidWord(3, (1, -2, 1, 1))
        assert fdtc_exact_b3(b.conjugated_by(w)) == fdtc_exact_b3(b)

    @given(three_braids(max_len=12), st.integers(-3, 3))
    @settings(max_examples=80)
    def test_homogeneity(self, b, k):
        assert fdtc_exact_b3(b ** k) == k * fdtc_exact_b3(b)

    @given(three_braids(max_len=16), st.integers(-3, 3))
    @settings(max_examples=80)
    def test_central_additivity(self, b, d):
        assert fdtc_exact_b3(C ** d * b) == d + fdtc_exact_b3(b)

    @given(three_braids(max_len=20))
    @settings(max_examples=60, deadline=None)
    def test_floor_brackets_fdtc(self, b):
        c = abs(fdtc_exact_b3(b))
        f = dehornoy_floor(b)
        assert f <= c <= f + 1

    def test_wrong_strands(self):
        with pytest.raises(NotThreeBraid):
            fdtc_exact_b3(BraidWord(4, (1, 2, 3)))


@st.composite
def conjugated_families(draw):
    """A braid w F w^-1 with F a representative C^d X of one of the three
    families: pseudo-Anosov X = prod_i sigma_1 sigma_2^-a_i (all a_i >= 0,
    one positive), reducible X = sigma_2^m, periodic X = sigma_1^m
    sigma_2^-1 with m in {-1, -2, -3}; d in -5..5, w random."""
    family = draw(st.sampled_from(["pseudo-Anosov", "reducible", "periodic"]))
    if family == "pseudo-Anosov":
        a = draw(st.lists(st.integers(0, 3), min_size=1, max_size=4)
                 .filter(lambda a: any(a)))
        x = tuple(y for ai in a for y in (1,) + (-2,) * ai)
    elif family == "reducible":
        m = draw(st.integers(-4, 4))
        x = (2 if m > 0 else -2,) * abs(m)
    else:
        x = (-1,) * -draw(st.sampled_from([-1, -2, -3])) + (-2,)
    w = draw(three_braids(max_len=6))
    return (C ** draw(st.integers(-5, 5)) * BraidWord(3, x)).conjugated_by(w)


class TestTwistFromNormalForm:
    """The 3-braid twist is read off the normal form alone, and a braid's
    twist takes no form from the caller."""

    @given(conjugated_families())
    @example(BraidWord(3, (1, 2)))
    @settings(max_examples=120, deadline=None)
    def test_form_gives_the_braids_twist(self, b):
        nf = normal_form(b)
        c = fdtc_of_normal_form(nf)
        assert c == fdtc_exact_b3(b)
        if isinstance(nf, PeriodicForm):
            assert c == Fraction(b.exponent_sum, 6)
        assert fdtc_interval_by_floor(b, Fraction(1, 24)).contains(c)

    def test_twist_functions_take_no_form(self):
        # a form handed in beside the braid could be another braid's: here
        # that of C^2 sigma_1 sigma_2^-1, whose twist is 2, not 1/3
        b = parse_braid("3: 1 2")
        other = normal_form(parse_braid("3: 1 2 1 1 2 1 1 2 1 1 2 1 1 -2"))
        for nf in (other, normal_form(b), None):
            with pytest.raises(TypeError):
                fdtc_interval(b, 1, nf)
            with pytest.raises(TypeError):
                fdtc_exact_b3(b, nf)
        assert fdtc_interval(b, 1).value == Fraction(1, 3)


class TestIntervalByFloor:
    def test_bad_tol(self):
        with pytest.raises(BadParameters):
            fdtc_interval_by_floor(BraidWord(3, (1,)), Fraction(0))
        with pytest.raises(BadParameters):
            fdtc_interval_by_floor(BraidWord(3, (1,)), Fraction(-1, 2))

    @pytest.mark.parametrize("b", [
        BraidWord(4, (1, 2, 3) * 2),  # periodic: b^2 = delta^2
        BraidWord(4, ()),
        BraidWord(4, (1, 2, 3)),
    ])
    def test_tolerance_past_the_letter_cap_is_refused(self, b):
        # k = ceil(1/tol) may not pass MAX_WORD_LETTERS; a root route
        # would have answered without building b^k, and k = 10^4300
        # would have too many digits to print
        for tol in (Fraction(1, MAX_WORD_LETTERS + 1), Fraction(1, 10**4300)):
            with pytest.raises(BadParameters, match="at least 1/1000000"):
                fdtc_interval_by_floor(b, tol)
        if b.letters != (1, 2, 3):
            v = fdtc_interval_by_floor(b, Fraction(1, MAX_WORD_LETTERS))
            assert v.width <= Fraction(1, MAX_WORD_LETTERS)

    def test_trivial_is_exact_zero(self):
        v = fdtc_interval_by_floor(BraidWord(4, ()), Fraction(1, 12))
        assert v.is_exact and v.value == 0

    @given(three_braids(max_len=10), st.sampled_from(
        [Fraction(1, 4), Fraction(1, 8), Fraction(1, 12)]))
    @settings(max_examples=40, deadline=None)
    def test_contains_exact_value_and_width(self, b, tol):
        v = fdtc_interval_by_floor(b, tol)
        if v.is_exact:
            assert v.value == fdtc_exact_b3(b)
        else:
            assert v.width <= tol
            assert v.contains(fdtc_exact_b3(b))

    def test_full_twist_b4(self):
        v = fdtc_interval_by_floor(full_twist(4), Fraction(1, 6))
        assert v.contains(Fraction(1))

    def test_negative_braid_interval(self):
        v = fdtc_interval_by_floor(full_twist(4) ** -2, Fraction(1, 6))
        assert v.contains(Fraction(-2))
        assert v.hi <= 0

    def test_one_sign_query_on_b(self, c_kernel, monkeypatch):
        w = BraidWord(4, (2, -3, 1))
        ladder = (BraidWord(4, (1, 1, 1)) * full_twist(4)).conjugated_by(w)
        central = BraidWord(4, (1, 2, 3) * 2).conjugated_by(w)
        for kernel in (c_kernel, _reduction_py):
            monkeypatch.setattr(_kernel, "_impl", kernel)
            # the ladder's probe object asks b's sign once; under the
            # compiled kernel its probes' spread words go through sign_of
            with recorded_queries() as queries:
                v = fdtc_interval_by_floor(ladder, Fraction(1, 12))
            assert v.contains(1)
            assert queries.count(ladder.letters) == 1
            # a root b^4 = delta^2 gives the sign; k = 12 leaves no
            # remainder, so the one query is the identity's floor
            with recorded_queries() as queries:
                v = fdtc_interval_by_floor(central, Fraction(1, 12))
            assert v.contains(Fraction(1, 2))
            assert queries == [()]

    def test_long_identity_past_the_root_power_cap(self, monkeypatch):
        # the root test's b^4 would pass the letter cap; b's triviality
        # answers
        monkeypatch.setattr(braid, "MAX_WORD_LETTERS", 1000)
        b = BraidWord(4, (1, 2, 1, -2, -1, -2) * 50)
        with pytest.raises(WordLengthExceeded):
            b**4
        v = fdtc_interval(b, Fraction(1, 12))
        assert v.is_exact and v.value == 0
        # a nontrivial braid there is still refused
        with pytest.raises(WordLengthExceeded):
            fdtc_interval(BraidWord(4, (1, 2, 3) * 100), Fraction(1, 12))

    def test_long_identity_past_the_budget_is_exact_zero(self, monkeypatch):
        # the ladder's sign query on b passes the budget; the word problem,
        # walked by coordinates, asks the kernel nothing
        monkeypatch.setenv("BRAIDCERT_REDUCTION_BUDGET", "1000")
        block = (1, 2, 1, -2, -1, -2) + (3, 2, 3, -2, -3, -2)
        b = BraidWord(4, block * 25001)
        assert len(b) == 300012
        with pytest.raises(ReductionBudgetExceeded):
            sigma_sign(b)
        v = fdtc_interval(b, Fraction(1, 2))
        assert v.is_exact and v.value == 0
        # a nontrivial braid there is still refused, with the kernel's
        # error, whether its exponent sum rules out the identity or not
        for tail in ((1,), (1, -2)):
            with pytest.raises(ReductionBudgetExceeded, match="exceeds budget 1000"):
                fdtc_interval(BraidWord(4, block * 100 + tail), Fraction(1, 2))

    def test_central_route_sends_b_to_no_budget(self, monkeypatch):
        # a root decides b's sign and k mod q = 0 leaves no search, so a
        # b longer than the budget gets its interval; a long identity
        # gets 0 from its root b^4 = 1
        monkeypatch.setenv("BRAIDCERT_REDUCTION_BUDGET", "15")
        w = BraidWord(4, (2, 3, 2, -1, 3, 3, 2, 2))
        b = BraidWord(4, (1, 2, 3) * 2).conjugated_by(w)
        assert len(b) == 22
        with pytest.raises(ReductionBudgetExceeded):
            sigma_sign(b)
        v = fdtc_interval(b, Fraction(1, 4))
        assert (v.lo, v.hi) == (Fraction(1, 2), Fraction(3, 4))
        trivial = BraidWord(4, (1, 2, 1, -2, -1, -2) * 3)
        for tol in (Fraction(1, 10), Fraction(1, 12)):
            v = fdtc_interval(trivial, tol)
            assert v.is_exact and v.value == 0


#: A 300-letter identity on 4 strands: exponent sum 0, and every kernel
#: query on it outgrows a budget of 5.
_LONG_IDENTITY = BraidWord(4, (1, 2, 1, -2, -1, -2) * 50)


class TestOneIdentityDecision:
    """power_floor decides the identity by one walk of b, before any
    power, letter cap or kernel query."""

    def assert_trivial(self, k):
        b = _LONG_IDENTITY
        with recorded_queries() as queries, recorded_walks() as walks:
            assert power_floor(b, k) == (OrderSign.TRIVIAL, 0)
        assert queries == []
        assert walks == [b.letters]
        v = fdtc_interval(b, Fraction(1, k))
        assert v.is_exact and v.value == 0

    def test_root_power_past_the_letter_cap(self, monkeypatch):
        monkeypatch.setattr(braid, "MAX_WORD_LETTERS", 1000)
        with pytest.raises(WordLengthExceeded):
            _LONG_IDENTITY**4
        self.assert_trivial(12)

    def test_kernel_query_past_the_budget(self, monkeypatch):
        monkeypatch.setenv("BRAIDCERT_REDUCTION_BUDGET", "5")
        with pytest.raises(ReductionBudgetExceeded):
            sigma_sign(_LONG_IDENTITY)
        self.assert_trivial(12)

    def test_both_root_candidates_skipped(self):
        # k = 2 < m - 1 = 3 skips q = 4 and q = 3 alike
        self.assert_trivial(2)


class TestRefusalBeforeKernelWork:
    #: A nontrivial 4-braid without a central root, so the ladder runs.
    LADDER = (BraidWord(4, (1, 1, 1)) * full_twist(4)).conjugated_by(
        BraidWord(4, (2, -3, 1)))

    def test_ladder_power_past_the_cap_asks_nothing(self, monkeypatch):
        b, k = self.LADDER, 12
        assert ordering.central_root(b, k) is None
        monkeypatch.setattr(braid, "MAX_WORD_LETTERS", len(b) * k - 1)
        refusal = f"power would have {len(b) * k} letters"
        with recorded_queries() as queries, recorded_probes() as probes:
            with pytest.raises(WordLengthExceeded, match=refusal):
                power_floor(b, k)
        assert queries == [] and probes == []

    def test_budget_refusal_walks_b_once(self, c_kernel, monkeypatch):
        # exponent sum 0 leaves p = 0, the identity's root, as the only
        # candidate for q = 4 and q = 3: one walk of b, not of b^4 and
        # b^3, rules it out before the ladder's sign query is refused
        monkeypatch.setenv("BRAIDCERT_REDUCTION_BUDGET", "1000")
        b = BraidWord(4, (1, -2, 3, -2) * 2500)
        for kernel in (c_kernel, _reduction_py):
            monkeypatch.setattr(_kernel, "_impl", kernel)
            with recorded_walks() as walks:
                with pytest.raises(ReductionBudgetExceeded, match="budget 1000"):
                    fdtc_interval(b, Fraction(1, 4))
            assert walks == [b.letters]

    def test_letter_cap_is_named_before_the_budget(self, monkeypatch):
        # b^k is past the letter cap and b's sign query past the budget:
        # the letter cap is checked first
        b, k = self.LADDER, 12
        monkeypatch.setattr(braid, "MAX_WORD_LETTERS", len(b) * k - 1)
        monkeypatch.setenv("BRAIDCERT_REDUCTION_BUDGET", "5")
        with pytest.raises(ReductionBudgetExceeded):
            sigma_sign(b)
        with pytest.raises(WordLengthExceeded):
            fdtc_interval(b, Fraction(1, k))


class TestIntervalDispatch:
    def test_three_strand_exact(self):
        v = fdtc_interval(BraidWord(3, (1, 2)), Fraction(1, 12))
        assert v.is_exact and v.value == Fraction(1, 3)

    def test_wide_strand_interval(self):
        v = fdtc_interval(full_twist(5), Fraction(1, 4))
        assert v.contains(Fraction(1))


class TestLift:
    def test_worked_value(self):
        assert fdtc_lift(Fraction(5, 4), 4, 3) == Fraction(5, 12)

    def test_identity_cover(self):
        assert fdtc_lift(Fraction(7, 3), 5, 1) == Fraction(7, 3)

    @given(rationals, st.integers(2, 12), st.integers(1, 12))
    def test_gcd_homogeneity(self, c, m, n):
        from math import gcd

        assert fdtc_lift(c, m, n) == Fraction(gcd(m, n), n) * c

    def test_bad_parameters(self):
        with pytest.raises(BadParameters):
            fdtc_lift(Fraction(1), 1, 3)
        with pytest.raises(BadParameters):
            fdtc_lift(Fraction(1), 4, 0)


class TestLowerBound:
    def test_values(self):
        assert fdtc_lower_bound(1) == Fraction(1, 2)
        assert fdtc_lower_bound(2) == Fraction(1, 6)
        assert fdtc_lower_bound(3) == Fraction(1, 10)

    def test_bad_genus(self):
        with pytest.raises(BadGenus):
            fdtc_lower_bound(0)
