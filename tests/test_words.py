"""Braid words: construction, group operations, parsing, permutations."""

from __future__ import annotations

import pytest
from conftest import braid_words
from hypothesis import given
from hypothesis import strategies as st

from braidcert import (
    MAX_WORD_LETTERS,
    BadStrands,
    BraidWord,
    GeneratorOutOfRange,
    ParseError,
    Permutation,
    StrandMismatch,
    WordLengthExceeded,
    delta,
    format_braid,
    full_twist,
    identity,
    is_trivial,
    parse_braid,
)


class TestConstruction:
    def test_strand_bound(self):
        with pytest.raises(BadStrands):
            BraidWord(1, ())
        with pytest.raises(BadStrands):
            BraidWord(0, ())

    def test_letter_range(self):
        with pytest.raises(GeneratorOutOfRange):
            BraidWord(3, (3,))
        with pytest.raises(GeneratorOutOfRange):
            BraidWord(3, (-3,))
        with pytest.raises(GeneratorOutOfRange):
            BraidWord(3, (0,))
        BraidWord(3, (2, -2, 1, -1))  # in range

    def test_bool_letter_rejected(self):
        # True == 1, but it is not a letter
        with pytest.raises(GeneratorOutOfRange):
            BraidWord(3, (True, -2))

    def test_free_reduction_on_construction(self):
        assert BraidWord(3, (1, -1)).letters == ()
        assert BraidWord(3, (1, 2, -2, -1)).letters == ()
        assert BraidWord(3, (1, 2, -2, 1)).letters == (1, 1)
        # no reduction across a non-cancelling pair
        assert BraidWord(3, (1, 2, -1)).letters == (1, 2, -1)

    def test_power_length_cap(self):
        b = BraidWord(3, (1, 2))
        with pytest.raises(WordLengthExceeded):
            b ** (MAX_WORD_LETTERS // 2 + 1)

    def test_identity(self):
        e = identity(4)
        assert e.strands == 4 and len(e) == 0


class TestGroupOperations:
    @given(braid_words(max_len=20), braid_words(max_len=20))
    def test_compose_strand_mismatch(self, u, v):
        if u.strands == v.strands:
            assert (u * v).strands == u.strands
        else:
            with pytest.raises(StrandMismatch):
                u * v

    @given(braid_words(max_len=25))
    def test_inverse_cancels(self, b):
        assert (b * b.inverse()).letters == ()
        assert (b.inverse() * b).letters == ()

    @given(braid_words(max_len=15), st.integers(-4, 4))
    def test_power_matches_repeated_product(self, b, k):
        expected = identity(b.strands)
        step = b if k >= 0 else b.inverse()
        for _ in range(abs(k)):
            expected = expected * step
        assert (b ** k).letters == expected.letters

    @given(braid_words(max_len=20), braid_words(max_len=20))
    def test_exponent_sum_additive(self, u, v):
        if u.strands != v.strands:
            return
        assert (u * v).exponent_sum == u.exponent_sum + v.exponent_sum

    @given(braid_words(max_len=20))
    def test_exponent_sum_of_inverse(self, b):
        assert b.inverse().exponent_sum == -b.exponent_sum

    def test_braid_relation_is_trivial(self):
        lhs = BraidWord(3, (1, 2, 1))
        rhs = BraidWord(3, (2, 1, 2))
        assert is_trivial(lhs * rhs.inverse())
        assert lhs.letters != rhs.letters  # not freely equal

    def test_far_commutation_is_trivial(self):
        u = BraidWord(4, (1, 3))
        v = BraidWord(4, (3, 1))
        assert is_trivial(u * v.inverse())

    @given(braid_words(min_strands=3, max_strands=5, max_len=15))
    def test_full_twist_is_central(self, b):
        c = full_twist(b.strands)
        assert is_trivial(b * c * b.inverse() * c.inverse())


class TestGarsideElements:
    def test_delta3(self):
        assert delta(3).letters == (1, 2, 1)
        assert full_twist(3).letters == (1, 2, 1, 1, 2, 1)

    def test_delta_exponent_sum(self):
        for m in (2, 3, 4, 5, 6):
            assert delta(m).exponent_sum == m * (m - 1) // 2
            assert full_twist(m).exponent_sum == m * (m - 1)

    def test_delta_permutation_is_reversal(self):
        for m in (2, 3, 4, 5):
            p = delta(m).permutation()
            assert p.images == tuple(range(m, 0, -1))
            assert full_twist(m).permutation().is_identity


class TestPermutations:
    def test_bijection_required(self):
        with pytest.raises(BadStrands):
            Permutation((1, 1, 3))

    def test_composition_convention(self):
        # (p * q)(x) = p(q(x))
        p = Permutation((2, 1, 3))
        q = Permutation((1, 3, 2))
        assert (p * q).images == tuple(p(q(x)) for x in (1, 2, 3))

    def test_strand_mismatch(self):
        with pytest.raises(StrandMismatch):
            Permutation((1, 2)) * Permutation((1, 2, 3))

    @given(braid_words(max_len=20), braid_words(max_len=20))
    def test_permutation_is_homomorphism(self, u, v):
        if u.strands != v.strands:
            return
        assert (u * v).permutation() == u.permutation() * v.permutation()

    def test_cycle_count(self):
        assert Permutation((1, 2, 3)).cycle_count() == 3
        assert Permutation((2, 1, 3)).cycle_count() == 2
        assert Permutation((2, 3, 1)).cycle_count() == 1


class TestClosure:
    def test_closure_components(self):
        assert BraidWord(3, (1,)).closure_components() == 2
        assert BraidWord(3, (1, 2)).closure_components() == 1
        assert identity(4).closure_components() == 4
        # sigma_1^2 in B_2 closes to the Hopf link
        assert BraidWord(2, (1, 1)).closure_components() == 2

    @given(braid_words(max_len=20))
    def test_components_bounded_by_strands(self, b):
        assert 1 <= b.closure_components() <= b.strands


class TestParsing:
    @given(braid_words(max_len=25))
    def test_round_trip(self, b):
        assert parse_braid(format_braid(b)) == b
        assert parse_braid(str(b)) == b

    def test_format(self):
        assert format_braid(BraidWord(3, (1, -2))) == "3: 1 -2"
        assert format_braid(identity(4)) == "4:"

    @pytest.mark.parametrize(
        "text, column",
        [
            ("x: 1 2", 1),     # strand count not an integer
            ("3 1 2", 6),      # missing colon: reported past the end
            ("3: 1 y", 6),     # bad letter token
            ("", 1),           # empty input
        ],
    )
    def test_parse_error_columns(self, text, column):
        with pytest.raises(ParseError) as info:
            parse_braid(text)
        assert info.value.column == column
        assert f"column {column}" in str(info.value)

    @pytest.mark.parametrize(
        "text, column",
        [
            ("30: 1_0", 5),    # int() would read sigma_10
            ("3: \u0661", 4),  # an Arabic-Indic digit one
            ("1_0: 1 2", 1),   # int() would read 10 strands
            (" 3: 1 2\u30001", 7),  # an ideographic space is no separator
            ("\u30003: 1", 1),      # nor is it stripped off the strand count
        ],
    )
    def test_only_ascii_decimal_integers(self, text, column):
        with pytest.raises(ParseError) as info:
            parse_braid(text)
        assert info.value.column == column
        assert parse_braid("3: +1 -2") == BraidWord(3, (1, -2))
        assert parse_braid("\t3 :\t1  -2 ") == BraidWord(3, (1, -2))

    def test_parse_error_line_passthrough(self):
        with pytest.raises(ParseError) as info:
            parse_braid("3: 1 z", line=7)
        assert info.value.line == 7
        assert "line 7" in str(info.value)

    def test_zero_letter_rejected(self):
        # parse-time validation reports position, not just the range error
        with pytest.raises(ParseError) as info:
            parse_braid("3: 0")
        assert info.value.column == 4

    def test_out_of_range_letter_rejected(self):
        with pytest.raises(ParseError) as info:
            parse_braid("3: 4")
        assert info.value.column == 4
