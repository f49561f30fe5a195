"""Dynnikov coordinates: the relations of the action, the word problem
on known braids, and agreement with both handle-reduction kernels."""

from __future__ import annotations

import pytest
from conftest import braid_words, probe_words, recorded_walks
from hypothesis import given, settings
from hypothesis import strategies as st

from braidcert import BraidWord, _reduction_py, delta, dynnikov

BUDGET = 10**6


def inverse(letters):
    return tuple(-x for x in reversed(letters))


def commutator(u, v):
    return u + v + inverse(u) + inverse(v)


@st.composite
def points(draw, min_strands=3, max_strands=7):
    """(m, point): any integer point with m coordinate pairs."""
    m = draw(st.integers(min_strands, max_strands))
    return m, draw(st.lists(st.integers(), min_size=2 * m, max_size=2 * m))


def relators(m):
    """Words on m strands that are trivial by one defining relation:
    x x^-1, a far commutation and a braid relation, each in both signs."""
    out = []
    for i in range(1, m):
        for e in (1, -1):
            out.append((e * i, -e * i))
            for j in range(i + 2, m):
                for f in (1, -1):
                    out.append(commutator((e * i,), (f * j,)))
            if i + 1 < m:
                lhs = (e * i, e * (i + 1), e * i)
                out.append(lhs + inverse((e * (i + 1), e * i, e * (i + 1))))
    return out


@st.composite
def trivial_words(draw):
    """(m, u u^-1) on 2 to 7 strands with defining relators inserted at
    random places, so that free reduction alone does not empty it."""
    m = draw(st.integers(2, 7))
    gens = [x for i in range(1, m) for x in (i, -i)]
    u = draw(st.lists(st.sampled_from(gens), max_size=12))
    word = u + list(inverse(u))
    for relator in draw(st.lists(st.sampled_from(relators(m)), min_size=1, max_size=6)):
        cut = draw(st.integers(0, len(word)))
        word[cut:cut] = relator
    return m, tuple(word)


#: Random words, the floor-search and root-query probe shapes, and
#: trivial words: the inputs of the cross-checks with the kernels.
kernel_inputs = st.one_of(
    braid_words(max_strands=6, max_len=30).map(lambda b: (b.strands, b.letters)),
    probe_words(),
    trivial_words(),
)


class TestAction:
    @given(points(), st.data())
    def test_braid_relation(self, mp, data):
        m, point = mp
        i = data.draw(st.integers(1, m - 2), label="i")
        e = data.draw(st.sampled_from([1, -1]), label="e")
        assert (dynnikov.act(point, (e * i, e * (i + 1), e * i))
                == dynnikov.act(point, (e * (i + 1), e * i, e * (i + 1))))

    @given(points(min_strands=4), st.data())
    def test_far_commutation(self, mp, data):
        m, point = mp
        i = data.draw(st.integers(1, m - 3), label="i")
        j = data.draw(st.integers(i + 2, m - 1), label="j")
        x = i * data.draw(st.sampled_from([1, -1]), label="e")
        y = j * data.draw(st.sampled_from([1, -1]), label="f")
        assert dynnikov.act(point, (x, y)) == dynnikov.act(point, (y, x))

    @given(points(min_strands=2), st.data())
    def test_inverse_letters_cancel(self, mp, data):
        m, point = mp
        x = data.draw(st.integers(1, m - 1), label="i") * data.draw(
            st.sampled_from([1, -1]), label="e")
        assert dynnikov.act(point, (x, -x)) == point

    def test_act_leaves_its_argument(self):
        point = [0, 1, 0, 1, 0, 1]
        assert dynnikov.act(point, (1, 2)) != point == [0, 1, 0, 1, 0, 1]


def known_nontrivial(m):
    """delta^(+-2), and on 3 or more strands [sigma_i^2, sigma_(i+1)^2]
    and the Borromean braid (sigma_i sigma_(i+1)^-1)^3, on the lowest and
    on the highest generators."""
    full = delta(m).letters * 2
    words = {"delta^2": full, "delta^-2": inverse(full)}
    for i in sorted({1, m - 2}) if m >= 3 else ():
        words[f"[s{i}^2, s{i + 1}^2]"] = commutator((i, i), (i + 1, i + 1))
        words[f"(s{i} s{i + 1}^-1)^3"] = (i, -(i + 1)) * 3
    return words


class TestKnownBraids:
    @pytest.mark.parametrize("m", range(2, 8))
    def test_twists_and_commutators_are_nontrivial(self, m):
        for name, word in known_nontrivial(m).items():
            assert not dynnikov.is_trivial(word, m), name
            assert not BraidWord(m, word).is_trivial(), name

    @pytest.mark.parametrize("m", range(3, 8))
    def test_borromean_braid_is_the_commutator(self, m):
        # (sigma_1 sigma_2^-1)^3 = [sigma_1^2, sigma_2^2], and the full
        # twist is central
        borromean, bracket = (1, -2) * 3, commutator((1, 1), (2, 2))
        assert dynnikov.is_trivial(borromean + inverse(bracket), m)
        full = delta(m).letters * 2
        assert dynnikov.is_trivial(commutator(full, borromean), m)

    @given(trivial_words(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_relators_are_trivial_and_one_letter_more_is_not(self, mw, data):
        m, word = mw
        assert dynnikov.is_trivial(word, m)
        assert BraidWord(m, word).is_trivial()
        x = data.draw(st.integers(1, m - 1), label="i") * data.draw(
            st.sampled_from([1, -1]), label="e")
        cut = data.draw(st.integers(0, len(word)), label="cut")
        longer = word[:cut] + (x,) + word[cut:]
        assert not dynnikov.is_trivial(longer, m)
        assert not BraidWord(m, longer).is_trivial()


class TestAgainstKernels:
    @given(kernel_inputs)
    @settings(max_examples=300, deadline=None)
    def test_matches_reference_kernel(self, mw):
        m, word = mw
        trivial = _reduction_py.sign_of(word, m, BUDGET) == 0
        assert dynnikov.is_trivial(word, m) == trivial
        assert BraidWord(m, word).is_trivial() == trivial

    @given(kernel_inputs)
    @settings(max_examples=300, deadline=None)
    def test_matches_compiled_kernel(self, c_kernel, mw):
        m, word = mw
        trivial = c_kernel.sign_of(word, m, BUDGET) == 0
        assert dynnikov.is_trivial(word, m) == trivial
        assert BraidWord(m, word).is_trivial() == trivial


class TestCrossingScreen:
    @pytest.mark.parametrize("m,word", [
        (5, (1, 2, 3, 4, 2, 1, 3) * 200),
        (3, (1, -2) * 1501),
    ], ids=["positive", "s1_s2inv_1501"])
    def test_refuses_before_any_walk(self, m, word):
        with recorded_walks() as walks:
            assert not BraidWord(m, word).is_trivial()
        assert walks == []

    def test_passes_a_pure_word_with_no_net_crossings(self):
        # (sigma_1 sigma_2^-1)^1500, a power of the Borromean braid, has
        # every count 0; the coordinate walk refuses it
        word = (1, -2) * 1500
        with recorded_walks() as walks:
            assert not BraidWord(3, word).is_trivial()
        assert walks == [word]
