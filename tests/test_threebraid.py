"""Conjugacy classification of 3-braids and its matrix cross-checks."""

from __future__ import annotations

import time
from enum import Enum

import pytest
from conftest import three_braids
from hypothesis import given, settings
from hypothesis import strategies as st

from braidcert import (
    BraidWord,
    LSpaceStatus,
    NotThreeBraid,
    PeriodicForm,
    PseudoAnosovForm,
    ReducibleForm,
    baldwin_lspace_double_cover,
    delta,
    full_twist,
    is_trivial,
    normal_form,
    representative,
    sl2_image,
)
from braidcert.threebraid import _cyclic_reduce, _min_rotation, _quotient_word

C = full_twist(3)


class NTType(Enum):
    PSEUDO_ANOSOV = "pseudo-Anosov"
    REDUCIBLE = "reducible"
    PERIODIC = "periodic"


def nt_type(nf) -> NTType:
    """Nielsen-Thurston type of a normal form.  Central braids report
    REDUCIBLE with the normal form's ``central`` flag left to the caller;
    no geometric label is asserted for them."""
    if isinstance(nf, PseudoAnosovForm):
        return NTType.PSEUDO_ANOSOV
    if isinstance(nf, ReducibleForm):
        return NTType.REDUCIBLE
    return NTType.PERIODIC


class TestNormalFormKnownValues:
    def test_pseudo_anosov_generator_pair(self):
        nf = normal_form(BraidWord(3, (1, -2)))
        assert nf == PseudoAnosovForm(0, (1,))
        assert nt_type(nf) is NTType.PSEUDO_ANOSOV

    def test_periodic_families(self):
        assert normal_form(BraidWord(3, (-1, -2))) == PeriodicForm(0, -1)
        assert normal_form(BraidWord(3, (-1, -1, -2))) == PeriodicForm(0, -2)
        assert normal_form(BraidWord(3, (-1, -1, -1, -2))) == PeriodicForm(0, -3)

    def test_periodic_small_words(self):
        # sigma_1 sigma_2 is periodic: (s1 s2)^3 = C
        assert normal_form(BraidWord(3, (1, 2))) == PeriodicForm(1, -3)
        # delta is periodic: delta^2 = C
        assert normal_form(delta(3)) == PeriodicForm(1, -2)
        assert normal_form(delta(3) ** -1) == PeriodicForm(0, -2)

    def test_reducible_family(self):
        assert normal_form(BraidWord(3, (2, 2))) == ReducibleForm(0, 2)
        assert normal_form(BraidWord(3, (-2, -2, -2))) == ReducibleForm(0, -3)
        assert normal_form(BraidWord(3, (1,))) == ReducibleForm(0, 1)

    def test_central_words(self):
        assert normal_form(BraidWord(3, ())) == ReducibleForm(0, 0)
        assert normal_form(C) == ReducibleForm(1, 0)
        assert normal_form(C ** -2) == ReducibleForm(-2, 0)

    def test_central_power_prefix(self):
        for d in (-2, -1, 1, 3):
            nf = normal_form(C ** d * BraidWord(3, (1, -2)))
            assert nf == PseudoAnosovForm(d, (1,))

    def test_pa_rotation_normalization(self):
        # syllables (s1 s2^-1)(s1 s2^-2) vs (s1 s2^-2)(s1 s2^-1): conjugate
        a = normal_form(BraidWord(3, (1, -2, 1, -2, -2)))
        b = normal_form(BraidWord(3, (1, -2, -2, 1, -2)))
        assert a == b == PseudoAnosovForm(0, (1, 2))

    def test_wrong_strands(self):
        with pytest.raises(NotThreeBraid):
            normal_form(BraidWord(4, (1, 2, 3)))
        with pytest.raises(NotThreeBraid):
            sl2_image(BraidWord(2, (1,)))


class TestNormalFormInvariance:
    @given(three_braids(max_len=20), three_braids(max_len=8))
    @settings(max_examples=200)
    def test_conjugacy_invariance(self, b, w):
        assert normal_form(b.conjugated_by(w)) == normal_form(b)

    @given(three_braids(max_len=20))
    @settings(max_examples=100)
    def test_representative_is_conjugate(self, b):
        nf = normal_form(b)
        rep = representative(nf)
        assert normal_form(rep) == nf
        assert rep.exponent_sum == b.exponent_sum
        # conjugate braids share the SL(2, Z) trace
        assert sl2_image(rep).trace == sl2_image(b).trace

    @given(three_braids(max_len=16), st.integers(-3, 3))
    @settings(max_examples=100)
    def test_central_twisting_shifts_d(self, b, d):
        nf = normal_form(b)
        shifted = normal_form(C ** d * b)
        assert type(shifted) is type(nf)
        assert shifted.central_power == nf.central_power + d

    @given(three_braids(max_len=20))
    @settings(max_examples=100)
    def test_exponent_sum_reconstruction(self, b):
        nf = normal_form(b)
        assert representative(nf).exponent_sum == b.exponent_sum


def cyclic_reduce_by_definition(word):
    """Join the two ends while both are x or both are y-powers: x x
    cancels, and y-exponents add mod 3 (as _X is 0, one sum does both)."""
    w = list(word)
    while len(w) >= 2 and (w[0] == 0) == (w[-1] == 0):
        e = (w[0] + w[-1]) % 3
        w = [e] * (e != 0) + w[1:-1]
    return w


def quotient_word_by_definition(letters):
    """Append each letter's two syllables in turn: x is 0, y^e is e."""
    images = {1: (2, 0), -1: (0, 1), 2: (0, 2), -2: (1, 0)}
    out = []
    for letter in letters:
        for v in images[letter]:
            if out and (out[-1] == 0) == (v == 0):
                e = (out.pop() + v) % 3  # x x cancels; y-exponents add
                if e:
                    out.append(e)
            else:
                out.append(v)
    return out


class TestLinearHelpers:
    # unreduced words too: the quotient map does not need free reduction
    @given(st.lists(st.sampled_from((1, -1, 2, -2)), max_size=40))
    @settings(max_examples=300)
    def test_quotient_word_matches_definition(self, letters):
        assert _quotient_word(tuple(letters)) == quotient_word_by_definition(letters)

    @given(st.one_of(st.lists(st.integers(0, 2), max_size=16),
                     three_braids(max_len=16).map(lambda b: _quotient_word(b.letters))))
    @settings(max_examples=300)
    def test_cyclic_reduce_matches_definition(self, word):
        assert _cyclic_reduce(word) == cyclic_reduce_by_definition(word)

    @given(st.one_of(st.lists(st.integers(0, 1), min_size=1, max_size=12),
                     st.lists(st.integers(0, 4), min_size=1, max_size=12)))
    @settings(max_examples=300)
    def test_min_rotation_matches_every_rotation(self, a):
        a = tuple(a)
        assert _min_rotation(a) == min(a[i:] + a[:i] for i in range(len(a)))

    @pytest.mark.parametrize("conjugator,core,expected", [
        ((1, -2) * 40000, (1, -2, -2), PseudoAnosovForm(0, (2,))),
        ((), (1, -2) * 40000, PseudoAnosovForm(0, (1,) * 40000)),
    ], ids=["160k_conjugated", "s1_s2inv_40000"])
    def test_long_words_classify_in_linear_time(self, conjugator, core, expected):
        # a long conjugator to peel, or 40000 syllables to rotate:
        # quadratic helpers take seconds on each, linear ones about 0.1 s
        b = BraidWord(3, core).conjugated_by(BraidWord(3, conjugator))
        start = time.perf_counter()
        assert normal_form(b) == expected
        assert time.perf_counter() - start < 2


class TestSL2:
    def test_generator_images(self):
        s1 = sl2_image(BraidWord(3, (1,)))
        s2 = sl2_image(BraidWord(3, (2,)))
        assert (s1.a, s1.b, s1.c, s1.d) == (1, 1, 0, 1)
        assert (s2.a, s2.b, s2.c, s2.d) == (1, 0, -1, 1)

    def test_braid_relation(self):
        assert sl2_image(BraidWord(3, (1, 2, 1))) == sl2_image(BraidWord(3, (2, 1, 2)))

    def test_half_twist_squares_to_minus_identity(self):
        m = sl2_image(delta(3))
        assert (m.a, m.b, m.c, m.d) == (0, 1, -1, 0)
        sq = sl2_image(C)
        assert (sq.a, sq.b, sq.c, sq.d) == (-1, 0, 0, -1)

    @given(three_braids(max_len=15), three_braids(max_len=15))
    @settings(max_examples=100)
    def test_homomorphism(self, u, v):
        assert sl2_image(u * v) == sl2_image(u) * sl2_image(v)

    @given(three_braids(max_len=20))
    @settings(max_examples=100)
    def test_determinant_one(self, b):
        m = sl2_image(b)
        assert m.a * m.d - m.b * m.c == 1

    @given(three_braids(max_len=20))
    @settings(max_examples=200)
    def test_trace_detects_type(self, b):
        """Independent oracle: Nielsen-Thurston type from |trace|."""
        nf = normal_form(b)
        t = abs(sl2_image(b).trace)
        if isinstance(nf, PseudoAnosovForm):
            assert t > 2
        elif isinstance(nf, PeriodicForm):
            assert t < 2
        else:
            assert t == 2

    def test_family_traces(self):
        # traces of the three periodic representatives: 1, 0, -1
        assert sl2_image(BraidWord(3, (-1, -2))).trace == 1
        assert sl2_image(BraidWord(3, (-1, -1, -2))).trace == 0
        assert sl2_image(BraidWord(3, (-1, -1, -1, -2))).trace == -1


class TestPeriodicTorsion:
    def test_periodic_powers_are_central(self):
        """Periodic braids have a power equal to a central element."""
        w1 = BraidWord(3, (-1, -2))    # w1^3 = C^-1
        w2 = BraidWord(3, (-1, -1, -2))  # w2^2 = C^-1
        w3 = BraidWord(3, (-1, -1, -1, -2))  # w3^3 = C^-2
        assert is_trivial(w1 ** 3 * C)
        assert is_trivial(w2 ** 2 * C)
        assert is_trivial(w3 ** 3 * C ** 2)


class TestBaldwinList:
    def test_pa_window(self):
        for d, want in [(-2, LSpaceStatus.NOT_L_SPACE), (-1, LSpaceStatus.L_SPACE),
                        (0, LSpaceStatus.L_SPACE), (1, LSpaceStatus.L_SPACE),
                        (2, LSpaceStatus.NOT_L_SPACE)]:
            assert baldwin_lspace_double_cover(PseudoAnosovForm(d, (1,))) is want

    def test_reducible_window(self):
        for d, want in [(-1, LSpaceStatus.L_SPACE), (0, LSpaceStatus.NOT_L_SPACE),
                        (1, LSpaceStatus.L_SPACE), (2, LSpaceStatus.NOT_L_SPACE)]:
            assert baldwin_lspace_double_cover(ReducibleForm(d, 2)) is want

    def test_periodic_window(self):
        for d, want in [(-2, LSpaceStatus.NOT_L_SPACE), (-1, LSpaceStatus.L_SPACE),
                        (0, LSpaceStatus.L_SPACE), (1, LSpaceStatus.L_SPACE),
                        (2, LSpaceStatus.L_SPACE), (3, LSpaceStatus.NOT_L_SPACE)]:
            assert baldwin_lspace_double_cover(PeriodicForm(d, -1)) is want
