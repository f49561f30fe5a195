"""Dehornoy order: signs, comparisons, and the floor."""

from __future__ import annotations

import time
from fractions import Fraction

import pytest
from conftest import (
    braid_words,
    letter_lists,
    recorded_probes,
    recorded_queries,
    recorded_walks,
    three_braids,
)
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from braidcert import (
    BadParameters,
    BraidWord,
    Comparison,
    FdtcValue,
    OrderSign,
    PeriodicForm,
    Permutation,
    ReducibleForm,
    ReductionBudgetExceeded,
    StrandMismatch,
    WordLengthExceeded,
    certify_closed_braid_cover,
    certify_satellite,
    compare,
    dehornoy_floor,
    delta,
    fdtc_exact_b3,
    fdtc_interval,
    full_twist,
    is_trivial,
    normal_form,
    power_floor,
    reduced_word,
    sigma_sign,
)
from braidcert import _kernel, _reduction_py, braid, dynnikov, ordering
from braidcert._kernel import twist_point
from braidcert.ordering import _cyclic_core, central_root


def delta_power(m: int, n: int) -> tuple[int, ...]:
    """Letters of delta^n on m strands."""
    return (delta(m) ** n).letters


def inverse(letters: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(-x for x in reversed(letters))


def assert_walks_continue(walked: list, probes: list) -> None:
    """The pure-Python build's walks for a run of floor probes: one walk
    per probe, and the walks up to each probe spell, as a braid, that
    probe's whole word, so each walk continues from the last probe's
    image."""
    assert len(walked) == len(probes)
    done: tuple[int, ...] = ()
    for walk, probe in zip(walked, probes):
        done += walk
        assert dynnikov.is_trivial(done + inverse(probe))


def assert_floor_probe(b: BraidWord, n: int, probe: tuple[int, ...]) -> int:
    """j for a floor probe on b^n, checked to be, as a braid, the probe
    that the floor's definition asks for: b^-n delta^(2j) for a positive
    b, delta^(2j) b^n for a negative one.  j is read off the exponent
    sum, m (m-1) j - n e(b) or m (m-1) j + n e(b)."""
    m, positive = b.strands, sigma_sign(b) is OrderSign.POSITIVE
    total = sum(1 if x > 0 else -1 for x in probe)
    j, rest = divmod(total + (n if positive else -n) * b.exponent_sum, m * (m - 1))
    assert rest == 0
    assert dynnikov.is_trivial(probe + block_probe(b, n, j).inverse().letters)
    return j


def floor_by_definition(b: BraidWord) -> int:
    """Independent oracle: scan k = 0, 1, 2, ... for the least k with
    delta^(-2k-2) < b < delta^(2k+2), straight from the definition."""
    half = delta(b.strands)
    k = 0
    while True:
        upper = half ** (2 * k + 2)
        lower = half ** (-(2 * k + 2))
        if compare(lower, b) is Comparison.LESS and compare(b, upper) is Comparison.LESS:
            return k
        k += 1


class TestSign:
    @given(st.integers(2, 5).flatmap(
        lambda m: st.lists(st.integers(1, m - 1), min_size=1, max_size=30).map(
            lambda ls: BraidWord(m, tuple(ls)))))
    def test_positive_words_are_positive(self, b):
        assert sigma_sign(b) is OrderSign.POSITIVE

    @given(braid_words(max_len=30))
    def test_sign_antisymmetry(self, b):
        assert sigma_sign(b.inverse()).value == -sigma_sign(b).value

    def test_trivial_sign(self):
        assert sigma_sign(BraidWord(3, ())) is OrderSign.TRIVIAL
        assert sigma_sign(BraidWord(3, (1, 2, 1, -2, -1, -2))) is OrderSign.TRIVIAL

    def test_mixed_word_sign(self):
        # sigma_1 sigma_2^-1: lowest generator occurs positively
        assert sigma_sign(BraidWord(3, (1, -2))) is OrderSign.POSITIVE
        assert sigma_sign(BraidWord(3, (-1, 2))) is OrderSign.NEGATIVE
        # conjugate of a positive: sigma_2^-1 sigma_1 sigma_2
        assert sigma_sign(BraidWord(3, (-2, 1, 2))) is OrderSign.POSITIVE


class TestCompare:
    def test_strand_mismatch(self):
        with pytest.raises(StrandMismatch):
            compare(BraidWord(3, (1,)), BraidWord(4, (1,)))

    @given(braid_words(max_len=25), braid_words(max_len=25))
    def test_antisymmetry(self, u, v):
        if u.strands != v.strands:
            return
        assert compare(u, v).value == -compare(v, u).value

    @given(braid_words(max_len=20))
    def test_reflexive(self, u):
        assert compare(u, u) is Comparison.EQUAL

    @given(braid_words(max_len=15), braid_words(max_len=15),
           braid_words(max_len=15))
    @settings(max_examples=60)
    def test_left_invariance(self, u, v, w):
        if len({u.strands, v.strands, w.strands}) != 1:
            return
        assert compare(w * u, w * v) is compare(u, v)

    def test_equal_iff_same_braid(self):
        lhs = BraidWord(3, (1, 2, 1))
        rhs = BraidWord(3, (2, 1, 2))
        assert compare(lhs, rhs) is Comparison.EQUAL

    def test_absolute_direction(self):
        # pins the orientation: identity < any positive braid
        one = BraidWord(3, ())
        assert compare(one, BraidWord(3, (1,))) is Comparison.LESS
        assert compare(BraidWord(3, (1,)), one) is Comparison.GREATER
        assert compare(BraidWord(3, (-2,)), one) is Comparison.LESS
        # sigma_1 < sigma_2 sigma_1 since sigma_1^-1 sigma_2 sigma_1 > 1
        assert compare(BraidWord(3, (1,)), BraidWord(3, (2, 1))) is Comparison.LESS

    @given(braid_words(max_len=25))
    def test_compare_against_identity_matches_sign(self, b):
        against_identity = compare(BraidWord(b.strands, ()), b)
        assert against_identity.value == -sigma_sign(b).value


class TestReducedWord:
    def test_rewrites(self):
        assert reduced_word(BraidWord(3, (1, 2, -1))).letters == (-2, 1, 2)
        assert reduced_word(BraidWord(3, (1, -2, -1))).letters == (-2, -1, 2)

    @given(braid_words(max_len=30))
    def test_reduced_word_same_braid(self, b):
        assert compare(b, reduced_word(b)) is Comparison.EQUAL


class TestFloor:
    @pytest.mark.parametrize("m", [3, 4, 5])
    @pytest.mark.parametrize("d", [-3, -2, -1, 0, 1, 2, 3])
    def test_floor_of_full_twists(self, m, d):
        assert dehornoy_floor(full_twist(m) ** d) == abs(d)

    def test_floor_of_generator_powers(self):
        for k in (1, 2, 5, 11):
            assert dehornoy_floor(BraidWord(3, (2,) * k)) == 0
            assert dehornoy_floor(BraidWord(3, (-2,) * k)) == 0

    def test_floor_of_half_twist(self):
        # delta itself sits strictly between delta^-2 and delta^2
        assert dehornoy_floor(delta(3)) == 0
        assert dehornoy_floor(delta(4)) == 0

    @given(three_braids(max_len=14), st.integers(-3, 3))
    @settings(max_examples=60, deadline=None)
    def test_floor_matches_definition_scan(self, b, d):
        padded = full_twist(3) ** d * b
        assert dehornoy_floor(padded) == floor_by_definition(padded)

    @given(braid_words(min_strands=4, max_strands=5, max_len=10),
           st.integers(-2, 2))
    @settings(max_examples=30, deadline=None)
    def test_floor_matches_definition_scan_wide(self, b, d):
        padded = full_twist(b.strands) ** d * b
        assert dehornoy_floor(padded) == floor_by_definition(padded)

    @given(three_braids(max_len=20))
    @settings(max_examples=80, deadline=None)
    def test_floor_conjugacy_bound(self, b):
        # floor differs from any conjugate's floor by at most 1
        w = BraidWord(3, (1, -2, 1))
        assert abs(dehornoy_floor(b) - dehornoy_floor(b.conjugated_by(w))) <= 1


@st.composite
def twisted_families(draw, min_strands: int = 3, max_strands: int = 6):
    """(w Delta^(2d) X w^-1, c, periodic) with X = delta_1^j, epsilon^j or
    sigma_1^k, where delta_1 = sigma_1 ... sigma_{m-1}, epsilon =
    delta_1 sigma_1 and c is the twist known by construction."""
    m = draw(st.integers(min_strands, max_strands))
    d = draw(st.integers(-2, 2))
    delta1 = tuple(range(1, m))
    kind = draw(st.sampled_from(["delta", "epsilon", "sigma1"]))
    if kind == "delta":
        j = draw(st.integers(-(m - 1), m - 1))
        x, c = BraidWord(m, delta1) ** j, d + Fraction(j, m)
    elif kind == "epsilon":
        j = draw(st.integers(-(m - 2), m - 2))
        x, c = BraidWord(m, delta1 + (1,)) ** j, d + Fraction(j, m - 1)
    else:
        k = draw(st.integers(1, 3)) * draw(st.sampled_from([1, -1]))
        x, c = BraidWord(m, (1,)) ** k, Fraction(d)
    w = BraidWord(m, tuple(draw(letter_lists(m, 6))))
    return (full_twist(m) ** d * x).conjugated_by(w), c, kind != "sigma1"


def pa_word(d: int, a: list[int]) -> BraidWord:
    """C^d prod_i sigma_1 sigma_2^-a_i, a pseudo-Anosov 3-braid."""
    letters: list[int] = []
    for ai in a:
        letters.append(1)
        letters.extend([-2] * ai)
    return full_twist(3) ** d * BraidWord(3, tuple(letters))


def permutation_order(b: BraidWord) -> int:
    perm = power = b.permutation()
    order = 1
    while power != Permutation.identity(b.strands):
        power, order = power * perm, order + 1
    return order


class TestPowerFloor:
    @given(braid_words(min_strands=3, max_strands=6, max_len=8),
           st.integers(1, 24))
    @settings(max_examples=40, deadline=None)
    def test_matches_floor_of_power_random(self, b, k):
        assert power_floor(b, k) == (sigma_sign(b), dehornoy_floor(b**k))

    @given(twisted_families(max_strands=5), st.integers(1, 24))
    @settings(max_examples=40, deadline=None)
    def test_matches_floor_of_power_families(self, case, k):
        b, _, _ = case
        assert power_floor(b, k) == (sigma_sign(b), dehornoy_floor(b**k))

    @given(st.integers(-3, 3), st.lists(st.integers(1, 4), min_size=1, max_size=3),
           st.integers(1, 24))
    @settings(max_examples=20, deadline=None)
    def test_matches_floor_of_power_pseudo_anosov(self, d, a, k):
        b = pa_word(d, a)
        assert power_floor(b, k) == (sigma_sign(b), dehornoy_floor(b**k))

    @given(braid_words(min_strands=3, max_strands=6, max_len=8),
           st.sampled_from([5, 7, 13, 25, 31]), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_matches_floor_of_power_low_bits(self, b, k, negative):
        # k with set low bits takes the ladder's n -> n + 1 steps; the
        # sign of b picks the direction of every probe
        if negative == (sigma_sign(b) is OrderSign.POSITIVE):
            b = b.inverse()
        assert power_floor(b, k) == (sigma_sign(b), dehornoy_floor(b**k))

    @pytest.mark.parametrize("k", [1, 2, 5, 12, 31])
    def test_trivial_braid(self, k):
        for b in (BraidWord(4, ()), BraidWord(5, (1, 3, -1, -3))):
            assert power_floor(b, k) == (sigma_sign(b), dehornoy_floor(b**k))
            assert power_floor(b, k) == (OrderSign.TRIVIAL, 0)

    def test_zero_twists_past_the_half_twist_cap(self):
        # delta^2 on more than 1,414 strands passes the letter cap, but
        # the identity's root and floor need no full twist
        assert power_floor(BraidWord(2000, ()), 2000) == (OrderSign.TRIVIAL, 0)
        assert central_root(BraidWord(2000, ()), 2000) == (2000, 0)
        assert power_floor(BraidWord(1500, ()), 1499) == (OrderSign.TRIVIAL, 0)
        # a probe that needs delta^2 there is still refused
        with pytest.raises(WordLengthExceeded):
            power_floor(BraidWord(2000, (1, 2, -1, -2)), 2000)

    @given(braid_words(min_strands=3, max_strands=5, max_len=8),
           st.integers(-2, 2), st.integers(1, 6), st.integers(1, 6))
    @settings(max_examples=40, deadline=None)
    def test_floor_is_quasi_additive_on_powers(self, b, d, i, j):
        # the lemma behind the ladder, on braids padded with up to two
        # full twists
        b = full_twist(b.strands) ** d * b
        excess = dehornoy_floor(b ** (i + j)) - dehornoy_floor(b**i) - dehornoy_floor(b**j)
        assert excess in (0, 1)

    @given(braid_words(min_strands=3, max_strands=6, max_len=8), st.integers(1, 40))
    @example(pa_word(1, [1, 2]).conjugated_by(BraidWord(3, (2,))), 24)
    @example(pa_word(-2, [3]), 13)
    @settings(max_examples=40, deadline=None)
    def test_one_probe_per_ladder_step(self, b, k):
        assume(sigma_sign(b) is not OrderSign.TRIVIAL)
        with recorded_queries() as root:
            assume(central_root(b, k) is None)
        # the central-root test decides triviality off the kernel
        assert root == []
        with recorded_walks() as root_walks:
            central_root(b, k)
        with recorded_probes() as base:
            dehornoy_floor(b)
        with (recorded_queries() as queries, recorded_probes() as probes,
              recorded_walks() as walked):
            power_floor(b, k)
        # the floor of b costs what dehornoy_floor(b) costs, and each
        # ladder step one probe; the one sign query is of b, and the
        # compiled kernel decides the probes through sign_of, the
        # pure-Python build by coordinates, walking each probe on from
        # the last after the root test's walks
        steps = k.bit_length() - 1 + bin(k).count("1") - 1
        assert probes[:len(base)] == base
        assert len(probes) == len(base) + steps
        assert queries[:1] == [b.letters]
        assert queries[1:] in ([], probes)
        assert walked[:len(root_walks)] == root_walks
        if queries[1:] == []:
            assert_walks_continue(walked[len(root_walks):], probes)
        for probe in base:
            assert_floor_probe(b, 1, probe)
        probes = probes[len(base):]
        # nothing asks for the sign of a bare power
        bare = {(b**n).letters for n in range(2, k + 1)}
        assert not bare.intersection(queries + probes)
        # each step's probe on b^n is b^-n delta^(2J), or delta^(2J) b^n,
        # as a braid; its word spreads J less the n |e| full twists peeled
        # off b = delta^(2e) w Y w^-1 through the n copies of Y
        m, sign = b.strands, sigma_sign(b)
        w, y, e = ordering._peel_twists(b, sign.value)
        powers, n = [], 1
        for bit in bin(k)[3:]:
            n *= 2
            powers.append(n)
            if bit == "1":
                n += 1
                powers.append(n)
        for n, probe in zip(powers, probes):
            j = assert_floor_probe(b, n, probe)
            assert j >= 1
            assert probe == _kernel.spread_probe(w, y, m, n, j - n * abs(e),
                                                 sign is OrderSign.POSITIVE)

    def test_ladder_keeps_the_power_letter_cap(self, monkeypatch):
        # b^n is never built, but a probe on it is refused where b**n is
        b = pa_word(0, [1])
        monkeypatch.setattr(braid, "MAX_WORD_LETTERS", 20)
        assert power_floor(b, 8) == (sigma_sign(b), dehornoy_floor(b**8))
        with pytest.raises(WordLengthExceeded):
            power_floor(b, 24)

    @given(twisted_families(max_strands=5), st.integers(2, 30), st.booleans())
    @example((BraidWord(5, (1, 2, 3, 4) * 3).conjugated_by(BraidWord(5, (2, -3))),
              Fraction(3, 5), True), 24, False)
    @example((BraidWord(5, (1, 2, 3, 4) * 3).conjugated_by(BraidWord(5, (2, -3))),
              Fraction(3, 5), True), 12, True)
    @example((BraidWord(4, (1, 2, 3)).conjugated_by(BraidWord(4, (3, -1))),
              Fraction(1, 4), True), 10, True)
    # remainders b^r that are themselves central: delta^6 and delta^4
    @example((full_twist(5).conjugated_by(BraidWord(5, (2, -3))),
              Fraction(1), True), 8, False)
    @example((full_twist(5).conjugated_by(BraidWord(5, (2, -3))),
              Fraction(1), True), 8, True)
    @example(((BraidWord(6, (1, 2, 3, 4, 5)) ** 3).conjugated_by(BraidWord(6, (4, -1))),
              Fraction(1, 2), True), 10, False)
    @example(((BraidWord(6, (1, 2, 3, 4, 5)) ** 3).conjugated_by(BraidWord(6, (4, -1))),
              Fraction(1, 2), True), 10, True)
    @settings(max_examples=40, deadline=None)
    def test_remainder_matches_floor_of_power(self, case, k, invert):
        # k mod q above, at and below q / 2, on both signs of b
        b, _, periodic = case
        assume(periodic)
        if invert:
            b = b.inverse()
        assume(central_root(b, k) is not None)
        assert power_floor(b, k) == (sigma_sign(b), dehornoy_floor(b**k))

    #: (m, j, k, r): b = delta_1^j, conjugated, on m strands, has its root
    #: at q = m; r is the remainder nearest to 0, |r| <= q / 2, so that
    #: k mod q lies above q / 2 where r < 0.  Whatever the sign of b, the
    #: search runs on b^(k mod q), the copies of b left after
    #: delta^(2p (k - k mod q) / q)
    REMAINDERS = [
        (5, 3, 24, -1),  # 24 = 4 * 5 + 4: four copies of b
        (5, 3, 12, 2),
        (5, -2, 23, -2),
        (4, 1, 10, 2),  # k mod q = q / 2
        (4, 1, 11, -1),
        (4, 2, 8, 0),
    ]

    @pytest.mark.parametrize("m,j,k,r", REMAINDERS)
    @pytest.mark.parametrize("invert", [False, True])
    def test_searches_the_nearest_remainder(self, monkeypatch, m, j, k, r, invert):
        b = (BraidWord(m, tuple(range(1, m))) ** j).conjugated_by(BraidWord(m, (2, -1)))
        if invert:
            b = b.inverse()
        q, _ = central_root(b, k)
        assert q == m and k % q == r % q
        searched = []

        def recording(u):
            searched.append(u)
            return dehornoy_floor(u)

        monkeypatch.setattr(ordering, "dehornoy_floor", recording)
        assert power_floor(b, k) == (sigma_sign(b), dehornoy_floor(b**k))
        assert searched == [b ** (k % q)]

    @given(twisted_families(max_strands=5), st.integers(0, 12), st.booleans())
    @example((BraidWord(5, (1, 2, 3, 4) * 3).conjugated_by(BraidWord(5, (2, -3))),
              Fraction(3, 5), True), 4, True)
    @settings(max_examples=40, deadline=None)
    def test_central_route_does_not_grow_with_the_power(self, case, extra, invert):
        # k and k + 10 q share the remainder, so they send the same words
        b, _, periodic = case
        assume(periodic)
        if invert:
            b = b.inverse()
        k = b.strands + extra
        root = central_root(b, k)
        assume(root is not None)
        q, p = root
        with recorded_queries() as near, recorded_walks() as near_walks:
            sign, floor = power_floor(b, k)
        with recorded_queries() as far, recorded_walks() as far_walks:
            assert power_floor(b, k + 10 * q) == (sign, floor + 10 * abs(p))
        assert far == near
        assert far_walks == near_walks

    def test_root_keeps_the_power_letter_cap(self, monkeypatch):
        # the root query holds only the core's q copies, but it is
        # refused where b**q is, before the walk
        b = BraidWord(4, (1, 2, 3)).conjugated_by(BraidWord(4, (2,)))
        rootless = BraidWord(4, (1, 1, 1)).conjugated_by(BraidWord(4, (2,)))
        assert len(b) == len(rootless) == 5
        monkeypatch.setattr(braid, "MAX_WORD_LETTERS", 20)
        assert central_root(b, 4) == (4, 1)
        assert central_root(rootless, 4) is None
        monkeypatch.setattr(braid, "MAX_WORD_LETTERS", 19)
        for braid_ in (b, rootless):
            with pytest.raises(WordLengthExceeded):
                central_root(braid_, 4)
            with pytest.raises(WordLengthExceeded):
                power_floor(braid_, 4)

    def test_bad_power(self):
        with pytest.raises(BadParameters):
            power_floor(BraidWord(3, (1,)), 0)


#: Braids without a central root at k = 24, positive and negative, on 3
#: to 5 strands: power_floor climbs the ladder for each.
_LADDER_BRAIDS = [
    pa_word(1, [1, 2]).conjugated_by(BraidWord(3, (2,))),
    pa_word(-2, [3]),
    BraidWord(4, (1, -2, 3, 1)),
    BraidWord(5, (-1, 2, -3, -4, 2)),
]


class TestLadderEngine:
    """One probe object decides every floor probe of a search and of the
    ladder that follows it: by handle reduction of each probe's word
    under the compiled kernel, and under the pure-Python one by Dynnikov
    coordinates, walking from the last probe's image only what the next
    probe adds."""

    @pytest.mark.parametrize("b", _LADDER_BRAIDS)
    def test_engines_follow_the_kernel(self, c_kernel, monkeypatch, b):
        assert central_root(b, 24) is None
        with recorded_walks() as root_walks:
            central_root(b, 24)
        floors = {}
        for kernel in (c_kernel, _reduction_py):
            monkeypatch.setattr(_kernel, "_impl", kernel)
            with recorded_probes() as searched:
                dehornoy_floor(b)
            with recorded_probes() as probes, recorded_walks() as walked:
                floors[kernel] = power_floor(b, 24)
            # the search's probes, then one per ladder step, each the
            # probe on b^n that the floor's definition asks for
            assert probes[:len(searched)] == searched
            assert len(probes) == len(searched) + 5
            for n, probe in zip([1] * len(searched) + [2, 3, 6, 12, 24], probes):
                assert_floor_probe(b, n, probe)
            # after the root test's walks, the compiled kernel sends no
            # walk; the pure-Python build walks each probe on from the
            # last, the first step from the search's last probe, and so
            # walks fewer letters than the probes hold
            assert walked[:len(root_walks)] == root_walks
            walked = walked[len(root_walks):]
            if kernel is c_kernel:
                assert walked == []
            else:
                assert_walks_continue(walked, probes)
                assert sum(map(len, walked)) < sum(
                    len(dynnikov.free_reduce(probe)) for probe in probes)
        assert set(floors.values()) == {(sigma_sign(b), dehornoy_floor(b**24))}

    @pytest.mark.parametrize("b", _LADDER_BRAIDS)
    def test_search_asks_one_sign_and_probes_the_rest(self, c_kernel, monkeypatch, b):
        m = b.strands
        for kernel in (c_kernel, _reduction_py):
            monkeypatch.setattr(_kernel, "_impl", kernel)
            with (recorded_queries() as signs,
                  recorded_probes() as probes,
                  recorded_walks() as walked):
                dehornoy_floor(b)
            assert probes
            for probe in probes:
                assert_floor_probe(b, 1, probe)
            # sign_of is asked for the sign of b; the compiled kernel
            # decides the probes through it, the pure-Python build walks
            # the first probe whole and then only full twists
            if kernel is c_kernel:
                assert signs == [b.letters] + probes
                assert walked == []
            else:
                assert signs == [b.letters]
                assert_walks_continue(walked, probes)
                for walk in walked[1:]:
                    twists, rest = divmod(len(walk), m * (m - 1))
                    assert rest == 0 and twists
                    assert walk in (delta_power(m, 2 * twists), delta_power(m, -2 * twists))

    @pytest.mark.parametrize("b", _LADDER_BRAIDS)
    def test_over_long_probe_is_refused_alike(self, c_kernel, monkeypatch, b):
        w, x = _cyclic_core(b)
        m, positive = b.strands, sigma_sign(b) is OrderSign.POSITIVE
        probe = _kernel.spread_probe(w, x, m, 6, 3, positive)
        length = len(BraidWord(m, probe))
        assert len(probe) > length
        message = f"word of length {length} exceeds budget {length - 1}"
        for kernel in (c_kernel, _reduction_py):
            monkeypatch.setattr(_kernel, "_impl", kernel)
            floor_probe = _kernel.FloorProbe(w, x, m, positive)
            assert floor_probe.inside(2, 1) == (
                _reduction_py.sign_of(_kernel.spread_probe(w, x, m, 2, 1, positive),
                                      10**6) > 0)
            monkeypatch.setenv("BRAIDCERT_REDUCTION_BUDGET", str(length - 1))
            with pytest.raises(ReductionBudgetExceeded) as refused:
                floor_probe.inside(6, 3)
            assert str(refused.value) == message
            monkeypatch.delenv("BRAIDCERT_REDUCTION_BUDGET")
        # the walk's budget caps the freely reduced probe, not its
        # letters, and a refused probe leaves the walked image as it was
        monkeypatch.setenv("BRAIDCERT_REDUCTION_BUDGET", str(length))
        assert floor_probe.inside(6, 3) == (_reduction_py.sign_of(probe, 10**6) > 0)

    def test_peeled_probe_with_negative_twists_is_refused_alike(self, c_kernel,
                                                                 monkeypatch):
        # b = delta^6 w Y w^-1: the probe on b^2 with one full twist keeps
        # 1 - 2 * 3 = -5 of them, 70 letters that the pure-Python build
        # counts by |t| before it walks, as free reduction cancels none
        b = (full_twist(4) ** 3 * BraidWord(4, (1, -2, 3))).conjugated_by(
            BraidWord(4, (2, -3)))
        probe = ordering._floor_probe(b)
        assert (probe.positive, probe.twists) == (True, 3)
        word = probe.word(2, 1)
        assert_floor_probe(b, 2, word)
        length = len(BraidWord(4, word))
        assert length == len(word) == 70
        monkeypatch.setenv("BRAIDCERT_REDUCTION_BUDGET", str(length - 1))
        for kernel in (c_kernel, _reduction_py):
            monkeypatch.setattr(_kernel, "_impl", kernel)
            with pytest.raises(ReductionBudgetExceeded) as refused:
                probe.inside(2, 1)
            assert str(refused.value) == f"word of length {length} exceeds budget {length - 1}"


#: Steps (n, j) of a probe object: n >= 1 copies of the braid, j >= 0 full
#: twists, in any order, so that both grow and shrink between probes.
probe_steps = st.lists(st.tuples(st.integers(1, 8), st.integers(0, 6)),
                       min_size=1, max_size=6)


@st.composite
def twisted_cores(draw) -> BraidWord:
    """w X w^-1 on 3 to 6 strands, X a rotation of x with d whole blocks
    delta^(+-2) put in at one place and up to one more block at another;
    x is random letters, a power of delta_1 = sigma_1 ... sigma_(m-1) or
    empty.  So blocks straddle the core's end, some cores are exactly
    delta^(2e), some are periodic, and some are shorter than one block."""
    m = draw(st.integers(3, 6))
    x = list(draw(st.one_of(letter_lists(m, 6),
                            st.integers(1, m).map(lambda j: list(range(1, m)) * j))))
    for d in (draw(st.integers(-2, 2)), draw(st.integers(-1, 1))):
        at = draw(st.integers(0, len(x)))
        x[at:at] = delta_power(m, 2 * d)
    r = draw(st.integers(0, max(len(x) - 1, 0)))
    w = tuple(draw(letter_lists(m, 3)))
    return BraidWord(m, w + tuple(x[r:] + x[:r]) + inverse(w))


def longest_run(x: tuple[int, ...], block: tuple[int, ...]) -> tuple[int, int]:
    """(run, r): the most whole blocks in a row at the start of any
    rotation of x, and the first rotation x[r:] + x[:r] that starts with
    them (0 when none does), by trying every rotation."""
    best = first = 0
    for r in range(len(x)):
        rotated, run = x[r:] + x[:r], 0
        while rotated[run * len(block):(run + 1) * len(block)] == block:
            run += 1
        if run > best:
            best, first = run, r
    return best, first


_STRADDLING = braid.full_twist_letters(3, 2)
_DELTA2_3 = braid.full_twist_letters(3, 1)


class TestPeelTwists:
    """ordering._peel_twists: b = delta^(2e) w Y w^-1, with Y the cyclic
    core rotated to begin with its longest run of whole blocks
    delta^(2s), less that run."""

    @given(twisted_cores(), st.sampled_from([1, -1]))
    # delta^4 on 3 strands, rotated so that a block straddles its end
    @example(BraidWord(3, _STRADDLING[2:] + _STRADDLING[:2]), 1)
    @example(BraidWord(4, (1, 2, 1, 3)), -1)
    # delta^2 = 1 2 1 1 2 1 overlaps itself: one block at 0, then the
    # longest run, two blocks from 5, starts on that block's last letter
    @example(BraidWord(3, (1, 2, 1, 1, 2) + _DELTA2_3 * 2 + (2,)), 1)
    @settings(max_examples=200, deadline=None)
    def test_peel_rotates_and_keeps_the_braid(self, b, s):
        m = b.strands
        w0, x = _cyclic_core(b)
        w, y, e = ordering._peel_twists(b, s)
        assert dynnikov.is_trivial(
            delta_power(m, 2 * e) + w + y + inverse(w) + inverse(b.letters))
        assert abs(e) * m * (m - 1) <= len(x)
        if len(x) < m * (m - 1):
            assert (w, y, e) == (w0, x, 0)
            return
        block = braid.full_twist_letters(m, s)
        run, first = longest_run(x, block)
        assert e == s * run
        r = len(w) - len(w0)
        assert r == first
        assert w == w0 + x[:r]
        assert x[r:] + x[:r] == block * abs(e) + y

    @given(twisted_cores(), st.integers(1, 12))
    @settings(max_examples=40, deadline=None)
    def test_power_floor_matches_floor_of_power(self, b, k):
        assert power_floor(b, k) == (sigma_sign(b), dehornoy_floor(b**k))

    @given(twisted_cores())
    @settings(max_examples=60, deadline=None)
    def test_central_root_matches_the_word_problem(self, b):
        m = b.strands
        expected = next(((q, p) for q, p in candidate_roots(b)
                         if (b**q * full_twist(m) ** -p).is_trivial()), None)
        assert central_root(b, m) == expected

    def test_long_core_is_peeled_in_linear_time(self):
        # 30,000 full twists and one letter: one scan of the 180,001
        # letters, where trying every rotation took 24 s on 48,001
        b = BraidWord(3, braid.full_twist_letters(3, 30000) + (1,))
        start = time.perf_counter()
        assert ordering._peel_twists(b, 1) == ((), (1,), 30000)
        assert time.perf_counter() - start < 5


class TestFloorProbe:
    @given(st.integers(2, 6).flatmap(lambda m: st.tuples(
               st.just(m), letter_lists(m, 5), letter_lists(m, 8))),
           st.booleans(), probe_steps)
    @settings(max_examples=150, deadline=None)
    def test_continued_probe_matches_whole_walk_and_kernel(self, mwx, positive,
                                                           steps):
        # for any words w and X, each probe continued from the last has
        # the sign of its whole word, by a fresh walk and by handle
        # reduction
        m, w, x = mwx
        w, x = tuple(w), tuple(x)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(_kernel, "_impl", _reduction_py)
            probe = _kernel.FloorProbe(w, x, m, positive)
            for n, j in steps:
                word = _kernel.spread_probe(w, x, m, n, j, positive)
                sign = dynnikov.sign(word)
                assert sign == _reduction_py.sign_of(word, 10**6)
                assert probe.inside(n, j) == (sign > 0)

    @given(braid_words(max_len=20))
    @example(pa_word(2, [1, 2]).conjugated_by(BraidWord(3, (2, 1))))
    @example((full_twist(4) ** -2 * BraidWord(4, (-3, 1))).conjugated_by(BraidWord(4, (2,))))
    def test_search_builds_its_probe_on_the_cyclic_core(self, b):
        # the probe object holds b's twist-free core: b = delta^(2e) w Y w^-1,
        # with the whole full twists of b's sign peeled off its cyclic core
        probe = ordering._floor_probe(b)
        sign = sigma_sign(b)
        if sign is OrderSign.TRIVIAL:
            assert probe is None
        else:
            m = b.strands
            w, y, e = ordering._peel_twists(b, sign.value)
            assert (probe.w, probe.x, probe.twists) == (w, y, e)
            assert (probe.m, probe.positive) == (m, sign is OrderSign.POSITIVE)
            assert dynnikov.is_trivial(
                delta_power(m, 2 * e) + w + y + inverse(w) + inverse(b.letters))

    @given(st.integers(2, 6).flatmap(lambda m: st.tuples(
               st.just(m), letter_lists(m, 5), letter_lists(m, 8))),
           st.booleans(), st.integers(-6, 6), st.integers(-6, 6))
    @settings(max_examples=100, deadline=None)
    def test_spread_word_of_any_signs(self, mwx, positive, n, j):
        # spread_probe(w, X, m, n, j) is c^n delta^(2j) for every sign of
        # n and j, with c = b^-1 for positive b and c = b otherwise: the
        # differences that the pure-Python build walks
        m, w, x = mwx
        b = tuple(w) + tuple(x) + inverse(tuple(w))
        c = inverse(b) if positive else b
        power = c * n if n >= 0 else inverse(c) * -n
        word = _kernel.spread_probe(tuple(w), tuple(x), m, n, j, positive)
        assert dynnikov.is_trivial(word + inverse(power + delta_power(m, 2 * j)))


def block_probe(b: BraidWord, n: int, j: int) -> BraidWord:
    """The ladder's probe on b^n with the twist delta^(2j) in one block:
    b^-n delta^(2j) for positive b, delta^(2j) b^n for negative b."""
    twist = delta(b.strands) ** (2 * j)
    if sigma_sign(b) is OrderSign.POSITIVE:
        return (b**n).inverse() * twist
    return twist * b**n


def assert_spread_is_block(b: BraidWord, n: int, j: int) -> None:
    w, x = _cyclic_core(b)
    positive = sigma_sign(b) is OrderSign.POSITIVE
    spread = _kernel.spread_probe(w, x, b.strands, n, j, positive)
    block = block_probe(b, n, j)
    twist_letters = 2 * j * len(delta(b.strands))
    assert len(spread) == 2 * len(w) + n * len(x) + twist_letters
    assert _kernel.sign_of(spread + block.inverse().letters) == 0
    assert sigma_sign(BraidWord(b.strands, spread)) is sigma_sign(block)


class TestSpreadProbe:
    @given(braid_words(max_len=20))
    def test_cyclic_core_rebuilds_the_word(self, b):
        w, x = _cyclic_core(b)
        assert w + x + tuple(-y for y in reversed(w)) == b.letters
        assert bool(x) == bool(b.letters)
        assert len(x) <= 1 or x[0] != -x[-1]

    #: (b, positive, conjugated, core length)
    CASES = [
        (BraidWord(3, (1, -2)), True, False, 2),
        (BraidWord(4, (-2, 3, -1, 3)), False, False, 4),
        (BraidWord(4, (2, 1, 1, 3, -2)), True, True, 3),
        (BraidWord(4, (3, -1, -2, -3)), False, True, 2),
        (BraidWord(3, (2, 1, -2)), True, True, 1),
        (BraidWord(3, (-1,)), False, False, 1),
    ]

    @pytest.mark.parametrize("b,positive,conjugated,core", CASES)
    @pytest.mark.parametrize("n,j", [(1, 3), (3, 3), (5, 2), (4, 7)])
    def test_spread_is_block_probe(self, b, positive, conjugated, core, n, j):
        w, x = _cyclic_core(b)
        assert (sigma_sign(b) is OrderSign.POSITIVE) == positive
        assert (bool(w), len(x)) == (conjugated, core)
        assert_spread_is_block(b, n, j)

    def test_spread_splits_the_twist_evenly(self):
        # j = 2 over n = 3 copies: a = (0, 1, 1), after the copies' X^-1
        # for positive b and before their X for negative b
        full = delta(3).letters * 2
        assert _kernel.spread_probe((), (1, -2), 3, 3, 2, True) == (
            (2, -1) + (2, -1) + full + (2, -1) + full)
        assert _kernel.spread_probe((2,), (-1,), 3, 3, 2, False) == (
            (2,) + (-1,) + full + (-1,) + full + (-1,) + (-2,))

    @given(braid_words(min_strands=3, max_strands=5, max_len=10),
           letter_lists(5, 4), st.integers(1, 6), st.integers(1, 5))
    @settings(max_examples=60, deadline=None)
    def test_spread_is_block_probe_random(self, b, conjugator, n, j):
        w = BraidWord(b.strands, [y for y in conjugator if abs(y) < b.strands])
        b = b.conjugated_by(w)
        assume(sigma_sign(b) is not OrderSign.TRIVIAL)
        assert_spread_is_block(b, n, j)


class TestCentralRoot:
    @given(twisted_families())
    @settings(max_examples=60, deadline=None)
    def test_root_exactly_on_periodic_families(self, case):
        b, c, periodic = case
        root = central_root(b, b.strands)
        if not periodic:
            assert root is None
            return
        assert root is not None
        q, p = root
        assert q in (b.strands, b.strands - 1)
        assert Fraction(p, q) == c
        assert is_trivial(b**q * full_twist(b.strands) ** -p)

    @given(st.integers(-3, 3), st.lists(st.integers(1, 4), min_size=1, max_size=4))
    def test_no_root_on_pseudo_anosov(self, d, a):
        assert central_root(pa_word(d, a), 3) is None

    @given(braid_words(min_strands=4, max_strands=6, max_len=12))
    @settings(max_examples=60, deadline=None)
    def test_no_root_when_permutation_order_forbids(self, b):
        # a central power b^q = delta^(2p) is a pure braid, so the
        # permutation's order divides q
        m = b.strands
        if m % permutation_order(b) and (m - 1) % permutation_order(b):
            assert central_root(b, m) is None

    @given(three_braids(max_len=6), st.sampled_from([
        (-2, -1), (-1, -2, -1), (-2, -1, -2, -1), (), (2, 2), (1, -2), (1, -2, -2, 1, -2),
    ]), st.integers(-2, 2))
    @settings(max_examples=60, deadline=None)
    def test_matches_three_braid_classification(self, w, core, d):
        b = (full_twist(3) ** d * BraidWord(3, core)).conjugated_by(w)
        nf = normal_form(b)
        periodic = isinstance(nf, PeriodicForm) or (
            isinstance(nf, ReducibleForm) and nf.central)
        root = central_root(b, 3)
        assert (root is not None) == periodic
        if root is not None:
            assert Fraction(root[1], root[0]) == fdtc_exact_b3(b)

    @pytest.mark.parametrize("m", range(2, 8))
    def test_twist_point_is_a_fresh_walk(self, m):
        # a miss walks delta^(2p), a hit returns the same immutable image
        twist_point.cache_clear()
        for p in range(-6, 7):
            fresh = dynnikov.act([0, 1] * m, (full_twist(m) ** p).letters)
            for _ in range(2):
                image = twist_point(m, p)
                assert isinstance(image, tuple)
                assert list(image) == fresh

    def test_skips_roots_above_the_power(self):
        # delta_1^j on 5 strands has its root at q = 5 only
        b = BraidWord(5, (1, 2, 3, 4))
        assert central_root(b, 5) == (5, 1)
        assert central_root(b, 4) is None
        # a full twist has roots at both q = m and q = m - 1
        assert central_root(full_twist(4), 3) == (3, 3)


def core_power(b: BraidWord, q: int) -> tuple[int, ...]:
    """Letters of X^q for the cyclic core X of b."""
    return (BraidWord(b.strands, _cyclic_core(b)[1]) ** q).letters


def root_walk(b: BraidWord, q: int) -> tuple[tuple[int, ...], int]:
    """(Y^q, e): the letters central_root walks for q, the power of b's
    twist-free core Y, with b = delta^(2e) w Y w^-1 and the full twists of
    the exponent sum's sign peeled off; checked to spell, with the q e
    full twists and the conjugator, b^q as a braid."""
    m = b.strands
    w, y, e = ordering._peel_twists(b, -1 if b.exponent_sum < 0 else 1)
    walked = (BraidWord(m, y) ** q).letters
    assert dynnikov.is_trivial(delta_power(m, 2 * q * e) + w + walked + inverse(w)
                               + (b**q).inverse().letters)
    return walked, e


def candidate_roots(b: BraidWord) -> list[tuple[int, int]]:
    """(q, p) for q = m, m - 1 wherever p = q e(b) / (m (m-1)) is an
    integer: the roots central_root may have to decide."""
    m = b.strands
    out = []
    for q in (m, m - 1):
        p, rest = divmod(q * b.exponent_sum, m * (m - 1))
        if not rest:
            out.append((q, p))
    return out


#: Braids to screen: random words, and conjugated full twists times
#: powers of delta_1, epsilon or sigma_1, of which some are roots.
screen_inputs = st.one_of(
    braid_words(min_strands=3, max_strands=5, max_len=12),
    twisted_families(max_strands=5).map(lambda case: case[0]),
)


def warm_twist_points(b: BraidWord) -> None:
    """Cache twist_point for every candidate root of b, less the twists
    peeled off b's core, so that a root test then walks the core's power
    alone."""
    for q, p in candidate_roots(b):
        twist_point(b.strands, p - q * root_walk(b, q)[1])


class TestCrossingScreen:
    """central_root's screen: exponent sums pick the candidate roots
    (q, p), and one coordinate walk of the core's power X^q decides each
    candidate, against the cached image of delta^(2p)."""

    @given(twisted_families(max_strands=7), st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_never_rejects_a_true_root(self, case, invert):
        b, c, periodic = case
        assume(periodic)
        if invert:
            b, c = b.inverse(), -c
        m = b.strands
        # b^q = delta^(2 c q) for q = m (delta_1 powers) or q = m - 1
        # (epsilon powers), whichever makes c q an integer; the query
        # X^q delta^(-2p) on the core, and b^q delta^(-2p) with the
        # conjugator's letters, are then both walked back to the start
        roots = [(q, int(c * q)) for q in (m, m - 1) if (c * q).denominator == 1]
        assert roots
        for q, p in roots:
            twist = delta_power(m, -2 * p)
            assert dynnikov.is_trivial(core_power(b, q) + twist)
            assert dynnikov.is_trivial((b**q).letters + twist)
        # the first test of a (m, p) walks the power of the twist-free
        # core and delta^(2(p - q e)), without the q e peeled full twists;
        # later ones take the twists' image from the cache.  An exponent
        # sum of 0 is the identity's, decided by one walk of b alone.
        q, p = roots[0]
        walked, e = root_walk(b, q)
        identity = b.exponent_sum == 0
        twist_point.cache_clear()
        with recorded_walks() as walks:
            assert central_root(b, m) == roots[0]
        assert walks == ([b.letters] if identity
                         else [walked, delta_power(m, 2 * (p - q * e))])
        with recorded_walks() as walks:
            assert central_root(b, m) == roots[0]
        assert walks == ([b.letters] if identity else [walked])

    @given(screen_inputs)
    @settings(max_examples=80, deadline=None)
    def test_root_is_the_first_kernel_trivial_candidate(self, b):
        # against the reference kernel: try q = m, then m - 1, each with
        # p = q e(b) / (m (m-1)) rounded down and moved by -1, 0 or 1;
        # exponent sums rule out every p but an exact quotient, so the
        # walks must find exactly the first trivial one
        m = b.strands
        trivial = [
            (q, p) for q in (m, m - 1)
            for p in (q * b.exponent_sum // (m * (m - 1)) + shift for shift in (-1, 0, 1))
            if _reduction_py.sign_of(core_power(b, q) + delta_power(m, -2 * p), 10**6) == 0
        ]
        assert central_root(b, m) == (trivial[0] if trivial else None)

    @given(screen_inputs)
    @settings(max_examples=80, deadline=None)
    def test_screened_out_q_sends_no_query(self, b):
        # the only walks are of Y^q on the twist-free core, one for each
        # candidate up to the first root, or of b alone for an exponent
        # sum of 0, where p = 0 can hold only for the identity; the kernel
        # is never asked
        candidates = candidate_roots(b)
        asked = [root_walk(b, q)[0] for q, _ in candidates]
        warm_twist_points(b)
        with recorded_queries() as kernel_queries, recorded_walks() as walks:
            root = central_root(b, b.strands)
        assert kernel_queries == []
        if b.exponent_sum == 0:
            assert walks == [b.letters]
        else:
            assert walks == asked[:candidates.index(root) + 1 if root else None]

    def test_screen_refuses_without_a_query(self):
        # sigma_1^3 on 4 strands passes the exponent-sum test at q = 4,
        # p = 1, but its 4th power is a reducible braid, not delta^2:
        # one walk on the core refuses it, and the kernel is never asked
        b = BraidWord(4, (1, 1, 1)).conjugated_by(BraidWord(4, (3, 2)))
        assert candidate_roots(b) == [(4, 1)]
        warm_twist_points(b)
        with recorded_queries() as kernel_queries, recorded_walks() as walks:
            assert central_root(b, 4) is None
        assert kernel_queries == []
        assert walks == [core_power(b, 4)]

    def test_query_holds_no_conjugator_letters(self):
        w = BraidWord(5, (2, -3, 4, 1))
        x = BraidWord(5, (1, 2, 3, 4)) ** 3
        b = x.conjugated_by(w)
        assert _cyclic_core(b) == (w.letters, x.letters)
        warm_twist_points(b)
        with recorded_queries() as kernel_queries, recorded_walks() as walks:
            assert central_root(b, 5) == (5, 3)
        assert kernel_queries == []
        # X^5 alone; b**5 would also hold w and w^-1, 8 more letters
        assert walks == [(x**5).letters]


#: A 4-strand word of exponent sum zero, 60 letters after free
#: reduction: every kernel query on it outgrows a budget of 5 at once.
_LONG = BraidWord(4, (1, 2, 3, -1, -2, -3) * 10)

#: Every public entry point that reaches the kernel, called on _LONG.
_KERNEL_ENTRY_POINTS = {
    "sigma_sign": lambda: sigma_sign(_LONG),
    "compare": lambda: compare(_LONG, delta(4)),
    "reduced_word": lambda: reduced_word(_LONG),
    "dehornoy_floor": lambda: dehornoy_floor(_LONG),
    "power_floor": lambda: power_floor(_LONG, 4),
    "fdtc_interval": lambda: fdtc_interval(_LONG, Fraction(1, 4)),
    "certify_closed_braid_cover": lambda: certify_closed_braid_cover(
        _LONG, 3, pa_asserted=True),
    "certify_satellite": lambda: certify_satellite(
        _LONG, 3, FdtcValue.exact(1, "given"), pa_asserted=True),
}


@pytest.mark.parametrize("call", _KERNEL_ENTRY_POINTS.values(),
                         ids=_KERNEL_ENTRY_POINTS.keys())
def test_budget_env_caps_every_entry_point(monkeypatch, call):
    monkeypatch.setenv("BRAIDCERT_REDUCTION_BUDGET", "5")
    with pytest.raises(ReductionBudgetExceeded):
        call()


#: The entry points that only ask whether a word is trivial, the public
#: ones and the gateway's own two, with their answers.  Dynnikov walks
#: decide that, so the kernel's budget never reaches them.  The words are
#: long: delta^2 _LONG delta^-2 _LONG^-1 is trivial, and
#: _LONG [sigma_1^2, sigma_2^2] _LONG^-1 is not.
#: (sigma_1 sigma_2 sigma_3)^12 = delta^6 passes the exponent-sum test of
#: central_root at q = 4, where b^4 = (sigma_1 sigma_2 sigma_3)^48 = delta^24.
_TRIVIALITY_ENTRY_POINTS = {
    "BraidWord.is_trivial": (
        lambda: (full_twist(4) * _LONG * full_twist(4).inverse() * _LONG.inverse()
                 ).is_trivial(), True),
    "braid.is_trivial": (lambda: braid.is_trivial(
        BraidWord(4, (1, 1, 2, 2, -1, -1, -2, -2)).conjugated_by(_LONG)), False),
    "central_root": (lambda: central_root(BraidWord(4, (1, 2, 3) * 12), 4), (4, 12)),
    "_kernel.is_trivial": (lambda: _kernel.is_trivial(
        (full_twist(4) * _LONG * full_twist(4).inverse() * _LONG.inverse()).letters),
        True),
    "_kernel.is_twist_power": (lambda: _kernel.is_twist_power(
        (1, 2, 3) * 48, 4, 12), True),
}


@pytest.mark.parametrize("call,expected", _TRIVIALITY_ENTRY_POINTS.values(),
                         ids=_TRIVIALITY_ENTRY_POINTS.keys())
def test_budget_env_spares_triviality_queries(monkeypatch, call, expected):
    monkeypatch.setenv("BRAIDCERT_REDUCTION_BUDGET", "5")
    with recorded_queries() as queries, recorded_walks() as walks:
        assert call() == expected
    assert queries == []
    assert walks
