"""Dehornoy order: signs, comparisons, and the floor."""

from __future__ import annotations

from contextlib import contextmanager
from fractions import Fraction

import pytest
from conftest import braid_words, letter_lists, three_braids
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
from braidcert import _kernel, braid, ordering
from braidcert.ordering import _cyclic_core, _spread_probe, central_root


@contextmanager
def recorded_queries():
    """Every kernel sign query made inside the block, as letter tuples."""
    queries: list[tuple[int, ...]] = []
    original = _kernel.sign_of

    def recording(letters, strands):
        queries.append(tuple(letters))
        return original(letters, strands)

    _kernel.sign_of = recording
    try:
        yield queries
    finally:
        _kernel.sign_of = original


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
        with recorded_queries() as base:
            dehornoy_floor(b)
        with recorded_queries() as queries:
            power_floor(b, k)
        steps = k.bit_length() - 1 + bin(k).count("1") - 1
        assert len(queries) == len(root) + len(base) + steps
        # past the central-root test, which may ask about b^q itself,
        # nothing asks for the sign of a bare power
        assert queries[:len(root)] == root
        bare = {(b**n).letters for n in range(2, k + 1)}
        assert not bare.intersection(queries[len(root):])
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
        for n, probe in zip(powers, queries[len(root) + len(base):]):
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


#: A 4-strand word of exponent sum zero, 60 letters after free
#: reduction: every kernel query on it outgrows a budget of 5 at once.
_LONG = BraidWord(4, (1, 2, 3, -1, -2, -3) * 10)

#: Every public entry point that reaches the kernel, called on _LONG.
_KERNEL_ENTRY_POINTS = {
    "sigma_sign": lambda: sigma_sign(_LONG),
    "compare": lambda: compare(_LONG, delta(4)),
    "reduced_word": lambda: reduced_word(_LONG),
    "BraidWord.is_trivial": lambda: _LONG.is_trivial(),
    "braid.is_trivial": lambda: braid.is_trivial(_LONG),
    "dehornoy_floor": lambda: dehornoy_floor(_LONG),
    "power_floor": lambda: power_floor(_LONG, 4),
    "central_root": lambda: central_root(_LONG, 4),
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
