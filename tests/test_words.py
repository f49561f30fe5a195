"""Braid words: construction, group operations, parsing, permutations."""

from __future__ import annotations

import sys
from fractions import Fraction

import pytest
from conftest import braid_words, traced_peak
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
    fdtc_interval,
    format_braid,
    full_twist,
    identity,
    is_trivial,
    parse_braid,
    power_floor,
)
from braidcert import _kernel, braid

LONG_ONE = "0" * 599 + "1"


class TestConstruction:
    def test_strand_bound(self):
        with pytest.raises(BadStrands):
            BraidWord(1, ())
        with pytest.raises(BadStrands):
            BraidWord(0, ())
        # no generator index passes the letter cap
        with pytest.raises(BadStrands):
            BraidWord(MAX_WORD_LETTERS + 2, ())
        top = MAX_WORD_LETTERS + 1
        assert BraidWord(top, (top - 1,)).letters == (top - 1,)

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

    def test_product_is_capped_by_construction(self, monkeypatch):
        # compose has no cap check of its own: BraidWord refuses the
        # concatenated letters, and takes a product of exactly the cap
        monkeypatch.setattr(braid, "MAX_WORD_LETTERS", 20)
        u = BraidWord(3, (1, -2) * 6)
        with pytest.raises(WordLengthExceeded) as info:
            u * u
        assert str(info.value) == "24 letters exceeds the cap of 20"
        assert (u * BraidWord(3, (2, -1) * 4)).letters == (1, -2) * 2

    def test_power_refusals_share_one_check(self, monkeypatch):
        # b**k, b**-k and a ladder probe on b^k, which is never built,
        # are refused by one check, with one message
        b = BraidWord(3, (1, -2))
        monkeypatch.setattr(braid, "MAX_WORD_LETTERS", 20)
        for refused in (lambda: b**11, lambda: b**-11, lambda: power_floor(b, 11)):
            with pytest.raises(WordLengthExceeded) as info:
                refused()
            assert str(info.value) == "power would have 22 letters, cap is 20"

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
            assert full_twist(m).permutation() == Permutation.identity(m)

    @pytest.mark.parametrize("m", range(2, 8))
    def test_full_twist_letters_spell_delta_powers(self, m):
        for j in range(-4, 5):
            assert braid.full_twist_letters(m, j) == (delta(m) ** (2 * j)).letters

    def test_zero_full_twists_build_no_half_twist(self):
        # delta(2000) would pass the letter cap; delta^0 needs none of it
        assert braid.full_twist_letters(2000, 0) == ()
        with pytest.raises(WordLengthExceeded):
            braid.full_twist_letters(2000, 1)

    def test_twist_cache_is_bounded(self):
        # spread probes on 20 strand counts from 300 to 680 leave the
        # twists of the last three in the cache: tuples and the int
        # objects they hold, 20 MiB, where keeping all twenty held
        # 228 MiB.  Each letter is one of the m - 1 generators or their
        # inverses, so the ints are shared: the pair on 680 strands is
        # 7.1 MiB, where a fresh int per letter made it 21.6 MiB
        def size(objects) -> int:
            ints = {id(x): x for twist in objects for x in twist if not -5 <= x <= 256}
            return sum(map(sys.getsizeof, objects)) + sum(map(sys.getsizeof, ints.values()))

        braid._full_twists.cache_clear()
        try:
            for m in range(300, 700, 20):
                _kernel.spread_probe((), (1,), m, 1, 1, True)
            assert braid._full_twists.cache_info().currsize == 3
            kept = [twist for m in (640, 660, 680) for twist in braid._full_twists(m)]
            assert braid._full_twists.cache_info().misses == 20
            assert size(kept) < 24 * 2**20
            assert size(braid._full_twists(680)) < 8 * 2**20
        finally:
            braid._full_twists.cache_clear()

    def test_over_long_half_twist_is_refused_before_it_is_built(self):
        # delta(3000) would have 4,498,500 letters: past the cap, and
        # tens of megabytes if built before the check
        def refused():
            with pytest.raises(WordLengthExceeded) as half:
                delta(3000)
            with pytest.raises(WordLengthExceeded) as interval:
                fdtc_interval(BraidWord(3000, (1, -2)), 1)
            return str(half.value), str(interval.value)

        messages, peak = traced_peak(refused)
        assert messages == (f"4498500 letters exceeds the cap of {MAX_WORD_LETTERS}",) * 2
        assert peak < 100_000


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
            ("1000002: 1", 1),  # strand count past MAX_WORD_LETTERS + 1
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
            ("3: \x0b1", 4),   # int() would strip a vertical tab
            ("3: 1\n", 4),     # and a newline
            ("3:\x0c 1 2", 3),  # a form feed is no separator either
            ("3\r: 1", 1),     # nor stripped off the strand count
        ],
    )
    def test_only_ascii_decimal_integers(self, text, column):
        with pytest.raises(ParseError) as info:
            parse_braid(text)
        assert info.value.column == column
        assert parse_braid("3: +1 -2") == BraidWord(3, (1, -2))
        assert parse_braid("\t3 :\t1  -2 ") == BraidWord(3, (1, -2))

    @pytest.mark.parametrize("text", [" 5", "5 ", "\t5", "5\n", "\x0b5", "\x0c5"])
    def test_number_text_keeps_its_whitespace(self, text):
        # int() and Fraction() strip all of these; the number rule does not
        for number in (int, Fraction):
            with pytest.raises(ValueError):
                braid.parse_decimal(text, number)
        assert braid.parse_decimal("5") == 5
        assert braid.parse_decimal("-5/12", Fraction) == Fraction(-5, 12)

    @pytest.mark.parametrize("text", ["1e3", "1E3", "1e-5000", "2.5e1"])
    def test_number_text_has_no_exponent(self, text):
        # Fraction() reads exponents: six characters could make a rational
        # too long to print
        for number in (int, Fraction):
            with pytest.raises(ValueError):
                braid.parse_decimal(text, number)
        assert braid.parse_decimal("0.25", Fraction) == Fraction(1, 4)

    def test_every_number_that_parses_prints(self):
        # a decimal with 4,300 places, sign or none, has a denominator of
        # 4,301 digits, past Python's int-to-str limit; the longest texts
        # that parse give at most as many digits as the lowest limit allows
        cap = braid._MAX_NUMBER_CHARS
        lowest = sys.int_info.str_digits_check_threshold
        for text in ("9" * cap, "-" + "9" * (cap - 1), "." + "9" * (cap - 1),
                     "9" * (cap // 2) + "." + "9" * (cap - 1 - cap // 2),
                     "9" * (cap // 2) + "/" + "7" * (cap - 1 - cap // 2)):
            value = braid.parse_decimal(text, Fraction)
            assert len(text) == cap
            assert max(len(str(abs(value.numerator))),
                       len(str(value.denominator))) <= lowest
        for text in ("9" * (cap + 1), "." + "9" * cap,
                     "0." + "0" * 4299 + "1", "-0." + "0" * 4299 + "1"):
            for number in (int, Fraction):
                with pytest.raises(ValueError):
                    braid.parse_decimal(text, number)

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

    # Words with two faults: the first in token order is reported, with
    # its column, although the letters are checked only once the whole
    # word is read.  LONG_ONE is the letter 1 written in 600 characters,
    # the longest a number may have.
    @pytest.mark.parametrize("text, message", [
        ("3: 1 5 x", "column 6: letter 5 is out of range for 3 strands"),
        ("3: 1 x 5", "column 6: letter 'x' is not an integer"),
        ("3: 7 9", "column 4: letter 7 is out of range for 3 strands"),
        ("3:\t1  0 x", "column 7: letter 0 is out of range for 3 strands"),
        ("5: 2 4 6 ?", "column 8: letter 6 is out of range for 5 strands"),
        (f"3: {LONG_ONE} {LONG_ONE} y",
         "column 1206: letter 'y' is not an integer"),
        (f"3: {LONG_ONE}\t{LONG_ONE} 3",
         "column 1206: letter 3 is out of range for 3 strands"),
        (f"3: {LONG_ONE} {'1' * 601} 5",
         "column 605: letter '11111111111111111111'... (601 characters, longer"
         " than the 600 a number may have) is not an integer"),
    ], ids=["range-then-token", "token-then-range", "two-ranges", "tab-and-zero",
            "five-strands", "long-then-token", "long-then-range",
            "long-then-too-long"])
    def test_first_of_two_faults_is_reported(self, text, message):
        with pytest.raises(ParseError) as info:
            parse_braid(text, line=3)
        assert str(info.value) == f"line 3, {message}"
