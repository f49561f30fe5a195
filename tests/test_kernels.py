"""Parity and correctness of the two handle-reduction kernels.

The pure-Python kernel is the reference; the compiled kernel must
produce letter-for-letter identical output.  Correctness of the
reference itself is checked against oracles that do not involve handle
reduction: the permutation representation, exponent sums, and the
integral Burau matrices at t = -1.  Both kernels rewrite a handle in
closed form; :func:`_generic_reduce` rewrites it letter by letter, and
both are compared with it, as a mistake in the closed form that the two
kernels shared would pass the parity tests.
"""

from __future__ import annotations

import collections
import os
import random
import subprocess
import sys

import pytest
from conftest import _letters, letter_lists, probe_words, traced_peak
from hypothesis import given, settings
from hypothesis import strategies as st

from braidcert import (BraidWord, OrderSign, _kernel, _reduction_py, dehornoy_floor, dynnikov,
                       reduced_word, sigma_sign)
from braidcert.errors import BadParameters, ReductionBudgetExceeded

BUDGET = 10**6


def _budget_message(fn, letters, max_len):
    with pytest.raises(ReductionBudgetExceeded) as exc:
        fn(letters, max_len)
    return str(exc.value)


@st.composite
def words_with_strands(draw, max_strands=5, max_len=60):
    m = draw(st.integers(2, max_strands))
    return m, tuple(draw(letter_lists(m, max_len)))


@st.composite
def gapped_words(draw):
    """Words on 5 or 6 strands whose long prefix omits the upper
    generators, followed by letters of the upper generators only and a
    short tail of any letter: handles there close far from the prefix,
    which never mentions their generators."""
    m = draw(st.integers(5, 6))
    split = draw(st.integers(1, 2))
    low, high = range(1, split + 1), range(split + 1, m)
    return m, tuple(_letters(draw, low, 80) + _letters(draw, high, 40)
                    + _letters(draw, range(1, m), 8))


@st.composite
def growing_words(draw):
    """Handles sigma_g^e v sigma_g^-e whose interior v is rich in one
    sign of sigma_(g+1): each such letter becomes three, so the word
    outgrows its start, inside a short random prefix and suffix."""
    m = draw(st.integers(3, 6))
    letters = _letters(draw, range(1, m), 6)
    for _ in range(draw(st.integers(1, 3))):
        g = draw(st.integers(1, m - 2))
        e, d = draw(st.sampled_from([1, -1])), draw(st.sampled_from([1, -1]))
        upper = [x for h in range(g + 2, m) for x in (h, -h)]
        inner = draw(st.lists(st.sampled_from([d * (g + 1)] * 3 + upper),
                              min_size=2, max_size=10))
        letters += [e * g, *inner, -e * g]
    return m, tuple(letters + _letters(draw, range(1, m), 6))


@st.composite
def run_words(draw):
    """Handles sigma_g^e v sigma_g^-e whose interior v holds runs of two
    to four equal sigma_(g+1) letters, one at each end of v and one
    more between each of one to three stretches of higher letters,
    inside a short random prefix and suffix."""
    m = draw(st.integers(4, 7))
    letters = _letters(draw, range(1, m), 4)
    for _ in range(draw(st.integers(1, 2))):
        g = draw(st.integers(1, m - 3))
        e, d = draw(st.sampled_from([1, -1])), draw(st.sampled_from([1, -1]))
        upper = [x for h in range(g + 2, m) for x in (h, -h)]
        inner = [d * (g + 1)] * draw(st.integers(2, 4))
        for _ in range(draw(st.integers(1, 3))):
            inner += draw(st.lists(st.sampled_from(upper), min_size=1, max_size=2))
            inner += [d * (g + 1)] * draw(st.integers(2, 4))
        letters += [e * g, *inner, -e * g]
    return m, tuple(letters + _letters(draw, range(1, m), 4))


@st.composite
def vanishing_low_words(draw):
    """Words whose lowest generator cancels out during reduction.  The
    half twist Delta of strands c..c+k-1 conjugates a word v in sigma_c
    .. sigma_(c+k-3) to one in sigma_(c+1) .. sigma_(c+k-2), so
    u Delta v Delta^-1 u' is a braid without sigma_c written with it,
    for u and u' in sigma_(c+1) .. sigma_(c+k).  At one end stands a
    handle sigma_(c+1)^(+-1) v' sigma_(c+1)^(-+1) whose interior
    alternates one sign of sigma_(c+2) with sigma_(c+3), r of each: its
    rewrite grows the word by 2r letters, so that a budget just above
    the free length refuses before or after sigma_c is gone."""
    c, k = draw(st.integers(1, 2)), draw(st.integers(3, 5))
    upper = range(c + 1, c + k + 1)
    delta = [x + c - 1 for block in range(k - 1, 0, -1) for x in range(1, block + 1)]
    v = draw(st.lists(st.sampled_from([x for g in range(c, c + k - 2) for x in (g, -g)]),
                      min_size=1, max_size=8))
    e, d, f = (draw(st.sampled_from([1, -1])) for _ in range(3))
    grows = ([e * (c + 1)] + [d * (c + 2), f * (c + 3)] * draw(st.integers(1, 3))
             + [d * (c + 2), -e * (c + 1)])
    word = (_letters(draw, upper, 6) + delta + v + list(_inverse(delta))
            + _letters(draw, upper, 6))
    return c + k + 1, tuple(grows + word if draw(st.booleans()) else word + grows)


def _inverse(letters):
    return tuple(-x for x in reversed(letters))


def _generic_reduce(letters, max_len, full):
    """Handle reduction by the generic rewrite, the oracle for the
    kernels' closed form: the sign and the word, or the kernels'
    ReductionBudgetExceeded.  It frees the word on a stack, finds the
    handle that closes leftmost by looking back from each position for
    the nearest letter of index <= g, conjugates each interior letter of
    index g+1 on its own while freely cancelling the patch as it is
    built, and counts every letter.  A sign query stops at the start or
    after the first rewrite that leaves the lowest generator of one
    sign."""
    w: list[int] = []
    for x in letters:
        if w and w[-1] == -x:
            w.pop()
        else:
            w.append(x)
    if len(w) > max_len:
        raise ReductionBudgetExceeded(f"word of length {len(w)} exceeds budget {max_len}")
    cnt = collections.Counter(w)

    def sign():
        # None while the lowest generator occurs with both signs
        present = [x for x, c in cnt.items() if c]
        if not present:
            return 0
        low = min(map(abs, present))
        signs = {x > 0 for x in present if abs(x) == low}
        return None if len(signs) == 2 else 1 if True in signs else -1

    if not full and sign() is not None:
        return sign(), w
    i = 0
    while i < len(w):
        x = w[i]
        g = abs(x)
        s = i - 1
        while s >= 0 and abs(w[s]) > g:
            s -= 1
        if s < 0 or w[s] != -x:
            i += 1
            continue
        e = 1 if w[s] > 0 else -1
        cnt[x] -= 1
        cnt[-x] -= 1
        seg: list[int] = []
        for y in w[s + 1 : i]:
            cnt[y] -= 1
            conjugate = ((-e * (g + 1), g if y > 0 else -g, e * (g + 1))
                         if abs(y) == g + 1 else (y,))
            for z in conjugate:
                if seg and seg[-1] == -z:
                    cnt[seg.pop()] -= 1
                else:
                    seg.append(z)
                    cnt[z] += 1
        w[s : i + 1] = seg
        if len(w) > max_len:
            raise ReductionBudgetExceeded(
                f"word grew past budget {max_len} during handle reduction")
        if not full and sign() is not None:
            return sign(), w
        i = s
    return sign(), w


def _generic_outcome(letters, max_len, full):
    """What the kernel's reduce_word (full) or sign_of gives, by the
    generic rewrite, or the message of its budget error."""
    try:
        sign, w = _generic_reduce(letters, max_len, full)
    except ReductionBudgetExceeded as exc:
        return str(exc)
    return w if full else sign


def _long_words():
    """Words of 1,000 to 20,000 letters, each a shape the
    compiled kernel grows its buffers on: a handle whose interior
    alternates sigma_2 and sigma_3 doubles on its one rewrite, past the
    input's length; floor probes u^-1 Delta^(2j) on powers u of
    pseudo-Anosov braids; a long word of the trivial braid; and
    conjugates w sigma_1^(+-1) w^-1 of random words, whose handles span
    thousands of letters.  Signs of all three values occur."""
    rng = random.Random(22)

    def half(m):
        return tuple(x for block in range(m - 1, 0, -1) for x in range(1, block + 1))

    def conjugate(m, n, centre):
        gens = [x for g in range(1, m) for x in (g, -g)]
        w = tuple(rng.choice(gens) for _ in range(n))
        return w + (centre,) + _inverse(w)

    return [
        pytest.param((-1,) + (2, 3) * 500 + (1,), id="grow-1k"),
        pytest.param((-1,) + (2, 3) * 10_000 + (1,), id="grow-20k"),
        pytest.param(_inverse((-1,) + (2, 3) * 2_500 + (1,)), id="grow-negative-5k"),
        pytest.param(_inverse((1, -2) * 5_000) + half(3) * 6, id="probe3-10k"),
        pytest.param(_inverse((1, 2, -3) * 1_500) + half(4) * 4, id="probe4-5k"),
        pytest.param((1, 2, 1, -2, -1, -2) * 3_300, id="trivial-20k"),
        pytest.param(conjugate(3, 2_000, 1), id="conjugate3-4k"),
        pytest.param(conjugate(4, 1_000, -1), id="conjugate4-2k"),
    ]


def _free_length(letters):
    return len(dynnikov.free_reduce(letters))


def _outcome(fn, letters, max_len):
    """The kernel's result, or the message of its budget error."""
    try:
        return fn(letters, max_len)
    except ReductionBudgetExceeded as exc:
        return str(exc)


def _burau_minus1(letters, strands):
    """Unreduced Burau matrices at t = -1 over the integers: sigma_i acts
    on basis e_1..e_m by e_i -> -e_i + e_{i+1} shifted into position.
    Nontrivial image certifies a nontrivial braid (never the converse)."""
    size = strands
    mat = [[int(i == j) for j in range(size)] for i in range(size)]

    def apply(gen):
        nonlocal mat
        i = abs(gen) - 1
        if gen > 0:
            block = [[2, -1], [1, 0]]  # [[1 - t, t], [1, 0]] at t = -1
        else:
            block = [[0, 1], [-1, 2]]  # [[0, 1], [1/t, 1 - 1/t]] at t = -1
        new = [row[:] for row in mat]
        for r in range(size):
            a, b = mat[r][i], mat[r][i + 1]
            new[r][i] = a * block[0][0] + b * block[1][0]
            new[r][i + 1] = a * block[0][1] + b * block[1][1]
        mat = new

    for g in letters:
        apply(g)
    return tuple(tuple(row) for row in mat)


def _permutation(letters, strands):
    images = list(range(1, strands + 1))
    for g in letters:
        i = abs(g)
        images[i - 1], images[i] = images[i], images[i - 1]
    return tuple(images)


def _lowest_generator_signs(letters):
    if not letters:
        return None
    low = min(abs(x) for x in letters)
    return {x > 0 for x in letters if abs(x) == low}


def _tables_follow_the_word(monkeypatch, kernel):
    """Sign and reduction queries on 10^5 strands, through the ordering
    layer with the given kernel.  BraidWord checks the letters against
    the strand count, and the kernel sees the letters alone: tables
    sized by the strand count would take megabytes here."""
    monkeypatch.setattr(_kernel, "_impl", kernel)
    m = 10**5
    answers, peak = traced_peak(lambda: (
        reduced_word(BraidWord(m, (1, 2, -1))),
        sigma_sign(BraidWord(m, (1, -2, -1))),
        sigma_sign(BraidWord(m, (-2, 3, 2)))))
    assert answers == (BraidWord(m, (-2, 1, 2)), OrderSign.NEGATIVE,
                       OrderSign.POSITIVE)
    assert peak < 100_000


class TestReferenceKernel:
    @given(words_with_strands())
    @settings(max_examples=300)
    def test_reduced_word_is_sigma_definite(self, mw):
        _, w = mw
        reduced = tuple(_reduction_py.reduce_word(w, BUDGET))
        signs = _lowest_generator_signs(reduced)
        assert signs is None or len(signs) == 1

    @given(words_with_strands())
    @settings(max_examples=200)
    def test_reduction_is_idempotent(self, mw):
        _, w = mw
        once = tuple(_reduction_py.reduce_word(w, BUDGET))
        twice = tuple(_reduction_py.reduce_word(once, BUDGET))
        assert once == twice

    @given(words_with_strands())
    @settings(max_examples=200)
    def test_reduction_preserves_braid_invariants(self, mw):
        m, w = mw
        reduced = tuple(_reduction_py.reduce_word(w, BUDGET))
        assert _permutation(reduced, m) == _permutation(w, m)
        assert sum(1 if x > 0 else -1 for x in reduced) == sum(
            1 if x > 0 else -1 for x in w
        )
        assert _burau_minus1(reduced, m) == _burau_minus1(w, m)

    @given(words_with_strands())
    @settings(max_examples=200)
    def test_sign_matches_reduced_word(self, mw):
        _, w = mw
        reduced = tuple(_reduction_py.reduce_word(w, BUDGET))
        sign = _reduction_py.sign_of(w, BUDGET)
        if not reduced:
            assert sign == 0
        else:
            signs = _lowest_generator_signs(reduced)
            assert sign == (1 if signs == {True} else -1)

    @given(words_with_strands(max_len=30))
    @settings(max_examples=150)
    def test_word_times_inverse_is_trivial(self, mw):
        _, w = mw
        doubled = w + tuple(-x for x in reversed(w))
        assert _reduction_py.sign_of(doubled, BUDGET) == 0

    def test_nontrivial_burau_implies_nonzero_sign(self):
        # one-sided soundness spot check on specific words
        for m, w in [(3, (1, 2, -1)), (4, (1, 3, 2, 2)), (3, (1, 1, -2))]:
            if _burau_minus1(w, m) != _burau_minus1((), m):
                assert _reduction_py.sign_of(w, BUDGET) != 0

    def test_known_handle_rewrites(self):
        # sigma_1 sigma_2 sigma_1^-1 = sigma_2^-1 sigma_1 sigma_2
        assert _reduction_py.reduce_word((1, 2, -1), BUDGET) == [-2, 1, 2]
        # sigma_1 sigma_2^-1 sigma_1^-1 = sigma_2^-1 sigma_1^-1 sigma_2
        assert _reduction_py.reduce_word((1, -2, -1), BUDGET) == [-2, -1, 2]
        # already sigma-definite words come back freely reduced only
        assert _reduction_py.reduce_word((1, 2, -2, 1), BUDGET) == [1, 1]
        # each run sigma_2^2 becomes sigma_2^-1 sigma_1^2 sigma_2; then
        # the handle sigma_2 sigma_3 sigma_2^-1 between them is rewritten
        assert _reduction_py.reduce_word((1, 2, 2, 3, 2, 2, -1), BUDGET) == [
            -2, 1, 1, -3, 2, 3, 1, 1, 2]

    @given(gapped_words())
    @settings(max_examples=150, deadline=None)
    def test_gapped_prefix_reductions(self, mw):
        m, w = mw
        reduced = tuple(_reduction_py.reduce_word(w, BUDGET))
        signs = _lowest_generator_signs(reduced)
        assert signs is None or len(signs) == 1
        assert _permutation(reduced, m) == _permutation(w, m)
        assert _burau_minus1(reduced, m) == _burau_minus1(w, m)

    def test_budget_exceeded(self):
        w = (1, 2, -1, -2) * 40
        with pytest.raises(ReductionBudgetExceeded):
            _reduction_py.reduce_word(w, 10)

    def test_tables_follow_the_word_not_strands(self, monkeypatch):
        _tables_follow_the_word(monkeypatch, _reduction_py)


class TestKernelParity:
    @given(words_with_strands(max_len=80))
    @settings(max_examples=400)
    def test_reduce_word_identical(self, c_kernel, mw):
        _, w = mw
        assert c_kernel.reduce_word(w, BUDGET) == _reduction_py.reduce_word(w, BUDGET)

    @given(words_with_strands(max_len=80))
    @settings(max_examples=400)
    def test_sign_identical(self, c_kernel, mw):
        _, w = mw
        assert c_kernel.sign_of(w, BUDGET) == _reduction_py.sign_of(w, BUDGET)

    @given(st.one_of(gapped_words(), probe_words()))
    @settings(max_examples=300, deadline=None)
    def test_structured_words_identical(self, c_kernel, mw):
        _, w = mw
        for name in ("reduce_word", "sign_of"):
            assert getattr(c_kernel, name)(w, BUDGET) == getattr(
                _reduction_py, name)(w, BUDGET)

    @given(st.one_of(growing_words(), gapped_words(), probe_words()),
           st.integers(0, 3))
    @settings(max_examples=400, deadline=None)
    def test_budget_trips_identical(self, c_kernel, mw, slack):
        # a budget just above the free-reduced length trips in the
        # middle of the reduction whenever a rewrite grows the word
        _, w = mw
        max_len = _free_length(w) + slack
        for name in ("reduce_word", "sign_of"):
            assert _outcome(getattr(c_kernel, name), w, max_len) == _outcome(
                getattr(_reduction_py, name), w, max_len)

    @pytest.mark.parametrize("letters", _long_words())
    def test_long_words_identical(self, c_kernel, letters):
        # one letter past the freely reduced length, a word that grows
        # trips the budget mid-reduction
        for name in ("reduce_word", "sign_of"):
            for max_len in (BUDGET, _free_length(letters) + 1):
                assert _outcome(getattr(c_kernel, name), letters, max_len) == _outcome(
                    getattr(_reduction_py, name), letters, max_len)

    def test_high_generators_identical(self, c_kernel):
        # neither kernel reads a strand count: generators far above any
        # small braid group are reduced alike, with tables sized by them
        g = 10**4
        # the last word's lowest generator g leaves with its handle, so
        # the sign is read above it, at g + 2
        for w in [(g, g + 1, -g), (g + 1, -g, -g - 1, g), (-g, 1, g + 2, g),
                  (g, g + 2, -g, -g - 3)]:
            for name in ("reduce_word", "sign_of"):
                assert getattr(c_kernel, name)(w, BUDGET) == getattr(
                    _reduction_py, name)(w, BUDGET)
        assert _reduction_py.reduce_word((g, g + 1, -g), BUDGET) == [-g - 1, g, g + 1]
        assert _reduction_py.reduce_word((g, g + 2, -g, -g - 3), BUDGET) == [g + 2, -g - 3]
        assert _reduction_py.sign_of((g, g + 2, -g, -g - 3), BUDGET) == 1

    def test_budget_exceeded_matches(self, c_kernel):
        # The budget-floor and budget-fdtc goldens print these messages.
        cases = [
            ((1, 2, -1, -2) * 40, 10, "word of length 160 exceeds budget 10"),
            # 5 letters fit; the first handle rewrite makes 7.
            ((1, 2, 3, 2, -1), 5,
             "word grew past budget 5 during handle reduction"),
        ]
        for letters, max_len, message in cases:
            for name in ("reduce_word", "sign_of"):
                assert _budget_message(getattr(_reduction_py, name),
                                       letters, max_len) == message
                assert _budget_message(getattr(c_kernel, name),
                                       letters, max_len) == message

    def test_budget_trips_after_a_gapped_prefix(self, c_kernel):
        # The prefix omits sigma_3..sigma_5; its handle is rewritten
        # first, then the sigma_3 handle grows 11 letters to 13.
        w = (1, 2, -1, 2, 1, 2, 3, 4, 5, 4, -3)
        message = "word grew past budget 11 during handle reduction"
        for kernel in (_reduction_py, c_kernel):
            assert _budget_message(kernel.reduce_word, w, 11) == message
            assert kernel.reduce_word(w, 13) == [
                -2, 1, 2, 2, 1, 2, -4, 3, -5, 4, 5, 3, 4]


@pytest.fixture(scope="module", params=["python", "c"])
def kernel(request):
    """Each kernel in turn: the pure-Python one, then the compiled one."""
    if request.param == "python":
        return _reduction_py
    return request.getfixturevalue("c_kernel")


class TestGenericRewrite:
    """Both kernels against :func:`_generic_reduce`, letter for letter,
    with the same signs and the same budget messages."""

    @given(st.one_of(run_words(), vanishing_low_words(), words_with_strands()),
           st.integers(0, 3))
    @settings(max_examples=400, deadline=None)
    def test_kernel_matches_the_generic_rewrite(self, kernel, mw, slack):
        # a budget just above the free-reduced length refuses partway
        # through a reduction that grows the word
        _, w = mw
        for max_len in (BUDGET, _free_length(w) + slack):
            for name, full in (("reduce_word", True), ("sign_of", False)):
                assert _outcome(getattr(kernel, name), w, max_len) == _generic_outcome(
                    w, max_len, full)

    @given(vanishing_low_words())
    @settings(max_examples=100, deadline=None)
    def test_lowest_generator_vanishes(self, mw):
        # the family does what it is drawn for: sigma_c is gone from the
        # reduced word, so a sign query reads the next generator
        _, w = mw
        low = min(map(abs, w))
        _, reduced = _generic_reduce(w, BUDGET, True)
        assert all(abs(x) > low for x in reduced)


class TestCompiledBoundary:
    """The compiled kernel rejects malformed letters before it indexes
    anything; the pure kernel trusts its callers.  Neither checks a
    letter against a strand count: BraidWord does."""

    # A budget of 3 holds every word here, so each error is the letter's.
    @pytest.mark.parametrize("letters,max_len", [
        ((0,), 3), ((1, 0), 3),                     # letter 0
        ((2**31 - 1,), 3), ((-(2**31 - 1),), 3),    # gen(x) + 1 past a C int
        ((1, 2**31), 3), ((-2**31 - 1,), 3),        # x itself past a C int
    ])
    def test_value_errors(self, c_kernel, letters, max_len):
        for fn in (c_kernel.reduce_word, c_kernel.sign_of):
            with pytest.raises(ValueError):
                fn(letters, max_len)

    @pytest.mark.parametrize("letters,max_len,error", [
        ((1.0,), 3, TypeError),
        (("1",), 3, TypeError),
        ((None,), 3, TypeError),
        (7, 3, TypeError),
        ((2**64,), 3, OverflowError),
        ((-2**64,), 3, OverflowError),
        ((1,), 2**64, OverflowError),   # past a Py_ssize_t budget
        ((1,), 3.0, TypeError),
    ])
    def test_type_and_overflow_errors(self, c_kernel, letters, max_len, error):
        for fn in (c_kernel.reduce_word, c_kernel.sign_of):
            with pytest.raises(error):
                fn(letters, max_len)

    def test_tables_follow_the_word_not_strands(self, c_kernel, monkeypatch):
        _tables_follow_the_word(monkeypatch, c_kernel)


class TestKernelSelection:
    def _kernel_in_subprocess(self, env_value, code="print(braidcert.kernel_name())",
                              **env):
        env = dict(os.environ, BRAIDCERT_KERNEL=env_value, **env)
        return subprocess.run([sys.executable, "-c", "import braidcert; " + code],
                              capture_output=True, text=True, env=env)

    def test_force_python(self):
        result = self._kernel_in_subprocess("python")
        assert result.returncode == 0
        assert result.stdout.strip() == "python"

    def test_force_c(self, c_package):
        # selected at import, and called through the ordering layer
        code = ("print(braidcert.kernel_name(), braidcert.sigma_sign("
                "braidcert.BraidWord(3, (1, -2, -1))).value)")
        result = self._kernel_in_subprocess("c", code, PYTHONPATH=str(c_package))
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == ["c", "-1"]

    def test_bad_kernel_name_rejected(self):
        result = self._kernel_in_subprocess("fortran")
        assert result.returncode != 0

    def test_kernel_name_strips_ascii_blanks_only(self):
        result = self._kernel_in_subprocess(" \tpython ")
        assert result.returncode == 0
        assert result.stdout.strip() == "python"
        # an ideographic or a no-break space is not a blank
        for setting in ("\u3000python", "python\u00a0"):
            result = self._kernel_in_subprocess(setting)
            assert result.returncode != 0
            assert "BRAIDCERT_KERNEL must be" in result.stderr

    def test_budget_env(self, monkeypatch):
        from braidcert import _kernel

        monkeypatch.setenv("BRAIDCERT_REDUCTION_BUDGET", "12345")
        assert _kernel.default_budget() == 12345
        monkeypatch.setenv("BRAIDCERT_REDUCTION_BUDGET", "zero")
        with pytest.raises(BadParameters):
            _kernel.default_budget()
        monkeypatch.setenv("BRAIDCERT_REDUCTION_BUDGET", "-3")
        with pytest.raises(BadParameters):
            _kernel.default_budget()
        monkeypatch.setenv("BRAIDCERT_REDUCTION_BUDGET", "1_0")  # int() reads 10
        with pytest.raises(BadParameters):
            _kernel.default_budget()
        monkeypatch.delenv("BRAIDCERT_REDUCTION_BUDGET")
        assert _kernel.default_budget() == _kernel.DEFAULT_REDUCTION_BUDGET

    def test_budget_strips_ascii_blanks_only(self, monkeypatch):
        from braidcert import _kernel

        monkeypatch.setenv("BRAIDCERT_REDUCTION_BUDGET", " \t5 ")
        assert _kernel.default_budget() == 5
        for setting in ("\u3000 5", "5\u00a0", "\u20035"):
            monkeypatch.setenv("BRAIDCERT_REDUCTION_BUDGET", setting)
            with pytest.raises(BadParameters):
                _kernel.default_budget()

    def _answers_past_a_c_size(self, monkeypatch):
        # budgets of 2^63 and more, past a C ssize_t, reach either kernel
        # as sys.maxsize and answer every sign, reduction and floor probe
        # as the default budget does
        words = [(1, 2, -1), (1, 2, 3, -1, 2), (-2, 1, 1, -2, 3, -1, -3),
                 (1, -2) * 5 + (2, -1) * 5, (1, 2, 3) * 9 + (-1,)]
        braids = [BraidWord(4, word) for word in words]
        monkeypatch.delenv("BRAIDCERT_REDUCTION_BUDGET", raising=False)
        default = [(_kernel.sign_of(w), _kernel.reduce_word(w), dehornoy_floor(b))
                   for w, b in zip(words, braids)]
        for budget in (2**63, 10**30):
            monkeypatch.setenv("BRAIDCERT_REDUCTION_BUDGET", str(budget))
            assert _kernel.default_budget() == sys.maxsize
            assert [(_kernel.sign_of(w), _kernel.reduce_word(w), dehornoy_floor(b))
                    for w, b in zip(words, braids)] == default

    def test_budget_past_a_c_size_answers_as_the_default(self, monkeypatch):
        self._answers_past_a_c_size(monkeypatch)

    def test_budget_past_a_c_size_under_the_other_kernel(self, other_kernel, monkeypatch):
        self._answers_past_a_c_size(monkeypatch)
