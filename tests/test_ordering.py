"""Dehornoy order: signs, comparisons, and the floor."""

from __future__ import annotations

from fractions import Fraction

import pytest
from conftest import (
    braid_words,
    letter_lists,
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
from braidcert.dynnikov import _strand_crossings
from braidcert.ordering import _cyclic_core, _delta_power, _spread_probe, central_root


def recorded_tests():
    """Every Dynnikov-coordinate triviality test made inside the block."""
    return recorded_queries(dynnikov, "is_trivial")


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
    while not power.is_identity:
        power, order = power * perm, order + 1
    return order


class TestPowerFloor:
    @given(braid_words(min_strands=3, max_strands=6, max_len=8),
           st.integers(1, 24))
    @settings(max_examples=40, deadline=None)
    def test_matches_floor_of_power_random(self, b, k):
        assert power_floor(b, k) == dehornoy_floor(b**k)

    @given(twisted_families(max_strands=5), st.integers(1, 24))
    @settings(max_examples=40, deadline=None)
    def test_matches_floor_of_power_families(self, case, k):
        b, _, _ = case
        assert power_floor(b, k) == dehornoy_floor(b**k)

    @given(st.integers(-3, 3), st.lists(st.integers(1, 4), min_size=1, max_size=3),
           st.integers(1, 24))
    @settings(max_examples=20, deadline=None)
    def test_matches_floor_of_power_pseudo_anosov(self, d, a, k):
        b = pa_word(d, a)
        assert power_floor(b, k) == dehornoy_floor(b**k)

    @given(braid_words(min_strands=3, max_strands=6, max_len=8),
           st.sampled_from([5, 7, 13, 25, 31]), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_matches_floor_of_power_low_bits(self, b, k, negative):
        # k with set low bits takes the ladder's n -> n + 1 steps; the
        # sign of b picks the direction of every probe
        if negative == (sigma_sign(b) is OrderSign.POSITIVE):
            b = b.inverse()
        assert power_floor(b, k) == dehornoy_floor(b**k)

    @pytest.mark.parametrize("k", [1, 2, 5, 12, 31])
    def test_trivial_braid(self, k):
        for b in (BraidWord(4, ()), BraidWord(5, (1, 3, -1, -3))):
            assert power_floor(b, k) == dehornoy_floor(b**k) == 0

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
        with recorded_queries() as base:
            dehornoy_floor(b)
        with recorded_queries() as queries:
            power_floor(b, k)
        steps = k.bit_length() - 1 + bin(k).count("1") - 1
        assert len(queries) == len(base) + steps
        # nothing asks for the sign of a bare power
        bare = {(b**n).letters for n in range(2, k + 1)}
        assert not bare.intersection(queries)
        # each step's probe on b^n spreads its J full twists through the
        # n copies of the cyclic core; J is read off the probe's length,
        # which is that of b^-n delta^(2J)
        m, positive = b.strands, sigma_sign(b) is OrderSign.POSITIVE
        w, x = _cyclic_core(b)
        powers, n = [], 1
        for bit in bin(k)[3:]:
            n *= 2
            powers.append(n)
            if bit == "1":
                n += 1
                powers.append(n)
        for n, probe in zip(powers, queries[len(base):]):
            j, rest = divmod(len(probe) - 2 * len(w) - n * len(x), m * (m - 1))
            assert rest == 0 and j >= 1
            assert probe == _spread_probe(w, x, m, n, j, positive)

    def test_ladder_keeps_the_power_letter_cap(self, monkeypatch):
        # b^n is never built, but a probe on it is refused where b**n is
        b = pa_word(0, [1])
        monkeypatch.setattr(ordering, "MAX_WORD_LETTERS", 20)
        assert power_floor(b, 8) == dehornoy_floor(b**8)
        with pytest.raises(WordLengthExceeded):
            power_floor(b, 24)

    @given(twisted_families(max_strands=5), st.integers(2, 30), st.booleans())
    @example((BraidWord(5, (1, 2, 3, 4) * 3).conjugated_by(BraidWord(5, (2, -3))),
              Fraction(3, 5), True), 24, False)
    @example((BraidWord(5, (1, 2, 3, 4) * 3).conjugated_by(BraidWord(5, (2, -3))),
              Fraction(3, 5), True), 12, True)
    @example((BraidWord(4, (1, 2, 3)).conjugated_by(BraidWord(4, (3, -1))),
              Fraction(1, 4), True), 10, True)
    # remainders b^-2 that are themselves central: delta^4 and delta^2
    @example((full_twist(5).conjugated_by(BraidWord(5, (2, -3))),
              Fraction(1), True), 8, False)
    @example((full_twist(5).conjugated_by(BraidWord(5, (2, -3))),
              Fraction(1), True), 8, True)
    @example(((BraidWord(6, (1, 2, 3, 4, 5)) ** 3).conjugated_by(BraidWord(6, (4, -1))),
              Fraction(1, 2), True), 10, False)
    @example(((BraidWord(6, (1, 2, 3, 4, 5)) ** 3).conjugated_by(BraidWord(6, (4, -1))),
              Fraction(1, 2), True), 10, True)
    @settings(max_examples=40, deadline=None)
    def test_nearest_remainder_matches_floor_of_power(self, case, k, invert):
        # k mod q above, at and below q / 2, on both signs of b
        b, _, periodic = case
        assume(periodic)
        if invert:
            b = b.inverse()
        assume(central_root(b, k) is not None)
        assert power_floor(b, k) == dehornoy_floor(b**k)

    #: (m, j, k, r): b = delta_1^j, conjugated, on m strands, has its root
    #: at q = m; the search runs on b^|r| for b > 1 and on b^-|r| for
    #: b < 1, the copies of b left after delta^(2p (k - r) / q)
    REMAINDERS = [
        (5, 3, 24, -1),  # 24 = 5 * 5 - 1: one copy of b, not four
        (5, 3, 12, 2),
        (5, -2, 23, -2),
        (4, 1, 10, 2),  # the tie 2 r = q keeps r = 2
        (4, 1, 11, -1),
        (4, 2, 8, 0),
    ]

    @pytest.mark.parametrize("m,j,k,r", REMAINDERS)
    @pytest.mark.parametrize("invert", [False, True])
    def test_searches_the_nearest_remainder(self, monkeypatch, m, j, k, r, invert):
        b = (BraidWord(m, tuple(range(1, m))) ** j).conjugated_by(BraidWord(m, (2, -1)))
        if invert:
            b = b.inverse()
        q, p = central_root(b, k)
        assert q == m
        searched = []

        def recording(u):
            searched.append(u)
            return dehornoy_floor(u)

        monkeypatch.setattr(ordering, "dehornoy_floor", recording)
        assert power_floor(b, k) == dehornoy_floor(b**k)
        above = b if p > 0 else b.inverse()
        assert searched == [above ** abs(r)]

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
        with recorded_queries() as near, recorded_tests() as near_tests:
            floor = power_floor(b, k)
        with recorded_queries() as far, recorded_tests() as far_tests:
            assert power_floor(b, k + 10 * q) == floor + 10 * abs(p)
        assert far == near
        assert far_tests == near_tests

    def test_root_keeps_the_power_letter_cap(self, monkeypatch):
        # the root query holds only the core's q copies, but it is
        # refused where b**q is, before the screen
        b = BraidWord(4, (1, 2, 3)).conjugated_by(BraidWord(4, (2,)))
        screened = BraidWord(4, (1, 1, 1)).conjugated_by(BraidWord(4, (2,)))
        assert len(b) == len(screened) == 5
        monkeypatch.setattr(ordering, "MAX_WORD_LETTERS", 20)
        assert central_root(b, 4) == (4, 1)
        assert central_root(screened, 4) is None
        monkeypatch.setattr(ordering, "MAX_WORD_LETTERS", 19)
        for braid_ in (b, screened):
            with pytest.raises(WordLengthExceeded):
                central_root(braid_, 4)
            with pytest.raises(WordLengthExceeded):
                power_floor(braid_, 4)

    def test_bad_power(self):
        with pytest.raises(BadParameters):
            power_floor(BraidWord(3, (1,)), 0)


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
    spread = _spread_probe(w, x, b.strands, n, j, positive)
    block = block_probe(b, n, j)
    twist_letters = 2 * j * len(delta(b.strands))
    assert len(spread) == 2 * len(w) + n * len(x) + twist_letters
    assert _kernel.sign_of(spread + block.inverse().letters, b.strands) == 0
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
        assert _spread_probe((), (1, -2), 3, 3, 2, True) == (
            (2, -1) + (2, -1) + full + (2, -1) + full)
        assert _spread_probe((2,), (-1,), 3, 3, 2, False) == (
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


class TestCrossingScreen:
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
        # X^q delta^(-2p) then crosses every strand pair 0 times net
        roots = [(q, int(c * q)) for q in (m, m - 1) if (c * q).denominator == 1]
        assert roots
        for q, p in roots:
            twist = _delta_power(m, -2 * p)
            assert not any(_strand_crossings(core_power(b, q) + twist, m))
            assert not any(_strand_crossings((b**q).letters + twist, m))
            assert dynnikov.is_trivial(core_power(b, q) + twist, m)
        assert central_root(b, m) == roots[0]

    @given(braid_words(min_strands=3, max_strands=7, max_len=20), st.data())
    @settings(max_examples=150, deadline=None)
    def test_counts_survive_braid_relations(self, b, data):
        m = b.strands
        cut = data.draw(st.integers(0, len(b)), label="cut")
        i = data.draw(st.integers(1, m - 2), label="i")
        e = data.draw(st.sampled_from([1, -1]), label="e")
        relation = data.draw(st.sampled_from(["braid", "far", "free"]), label="relation")
        if relation == "braid":
            lhs, rhs = (e * i, e * (i + 1), e * i), (e * (i + 1), e * i, e * (i + 1))
        elif relation == "far":
            far = [j for j in range(1, m) if abs(j - i) >= 2]
            assume(far)
            j = data.draw(st.sampled_from(far), label="j") * data.draw(
                st.sampled_from([1, -1]), label="f")
            lhs, rhs = (e * i, j), (j, e * i)
        else:
            lhs, rhs = (e * i, -e * i), ()
        u, v = b.letters[:cut], b.letters[cut:]
        assert _strand_crossings(u + lhs + v, m) == _strand_crossings(u + rhs + v, m)

    @given(screen_inputs, st.integers(-1, 1))
    @settings(max_examples=80, deadline=None)
    def test_rejection_means_no_root(self, b, shift):
        # a query the screen refuses is nontrivial for the reference kernel
        m = b.strands
        for q in (m, m - 1):
            p = q * b.exponent_sum // (m * (m - 1)) + shift
            query = core_power(b, q) + _delta_power(m, -2 * p)
            if any(_strand_crossings(query, m)):
                assert not dynnikov.is_trivial(query, m)
                assert _reduction_py.sign_of(query, m, 10**6) != 0

    @given(screen_inputs)
    @settings(max_examples=80, deadline=None)
    def test_root_is_the_first_kernel_trivial_candidate(self, b):
        # against the reference kernel: try q = m, then m - 1, each with
        # p = q e(b) / (m (m-1)) rounded down and moved by -1, 0 or 1;
        # exponent sums rule out every p but an exact quotient, so the
        # screen and the walk must find exactly the first trivial one
        m = b.strands
        trivial = [
            (q, p) for q in (m, m - 1)
            for p in (q * b.exponent_sum // (m * (m - 1)) + shift for shift in (-1, 0, 1))
            if _reduction_py.sign_of(core_power(b, q) + _delta_power(m, -2 * p), m, 10**6) == 0
        ]
        assert central_root(b, m) == (trivial[0] if trivial else None)

    @given(screen_inputs)
    @settings(max_examples=80, deadline=None)
    def test_screened_out_q_sends_no_query(self, b):
        # the only coordinate tests are of X^q delta^(-2p) on the core,
        # one for each candidate up to the first root, and only those
        # whose strand pairs all cross 0 times net are walked; the
        # kernel is never asked
        m = b.strands
        candidates = candidate_roots(b)
        asked = [core_power(b, q) + _delta_power(m, -2 * p) for q, p in candidates]
        with recorded_queries() as kernel_queries, recorded_tests() as queries, \
                recorded_walks() as walks:
            root = central_root(b, m)
        assert kernel_queries == []
        assert queries == asked[:candidates.index(root) + 1 if root else None]
        assert walks == [query for query in queries if not any(_strand_crossings(query, m))]

    def test_screen_refuses_without_a_query(self):
        # sigma_1^3 on 4 strands passes the exponent-sum test at q = 4,
        # p = 1, but in its 4th power strands 1 and 2 cross 12 times and
        # no other pair crosses, where delta^2 crosses every pair twice
        b = BraidWord(4, (1, 1, 1)).conjugated_by(BraidWord(4, (3, 2)))
        assert candidate_roots(b) == [(4, 1)]
        with recorded_queries() as kernel_queries, recorded_walks() as walks:
            assert central_root(b, 4) is None
        assert kernel_queries == walks == []

    def test_query_holds_no_conjugator_letters(self):
        w = BraidWord(5, (2, -3, 4, 1))
        x = BraidWord(5, (1, 2, 3, 4)) ** 3
        b = x.conjugated_by(w)
        assert _cyclic_core(b) == (w.letters, x.letters)
        with recorded_queries() as kernel_queries, recorded_tests() as queries:
            assert central_root(b, 5) == (5, 3)
        assert kernel_queries == []
        # X^5 delta^-6 in two blocks; b**5 would also hold w and w^-1,
        # 8 more letters
        assert queries == [(x**5).letters + _delta_power(5, -6)]


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


#: The public entry points that only ask whether a word is trivial, with
#: their answers.  Dynnikov coordinates decide that, so the kernel's
#: budget never reaches them.  The words are long and pass the
#: crossing-count screen to the coordinate walk: delta^2 _LONG delta^-2
#: _LONG^-1 is trivial, and _LONG [sigma_1^2, sigma_2^2] _LONG^-1 is not.
#: (sigma_1 sigma_2 sigma_3)^12 = delta^6 passes the screen of
#: central_root at q = 4, where b^4 = delta^24.
_TRIVIALITY_ENTRY_POINTS = {
    "BraidWord.is_trivial": (
        lambda: (full_twist(4) * _LONG * full_twist(4).inverse() * _LONG.inverse()
                 ).is_trivial(), True),
    "braid.is_trivial": (lambda: braid.is_trivial(
        BraidWord(4, (1, 1, 2, 2, -1, -1, -2, -2)).conjugated_by(_LONG)), False),
    "central_root": (lambda: central_root(BraidWord(4, (1, 2, 3) * 12), 4), (4, 12)),
}


@pytest.mark.parametrize("call,expected", _TRIVIALITY_ENTRY_POINTS.values(),
                         ids=_TRIVIALITY_ENTRY_POINTS.keys())
def test_budget_env_spares_triviality_queries(monkeypatch, call, expected):
    monkeypatch.setenv("BRAIDCERT_REDUCTION_BUDGET", "5")
    with recorded_queries() as queries, recorded_tests() as tests:
        assert call() == expected
    assert queries == []
    assert tests
