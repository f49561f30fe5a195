"""Parity and correctness of the two handle-reduction kernels.

The pure-Python kernel is the reference; the compiled kernel must
produce letter-for-letter identical output.  Correctness of the
reference itself is checked against oracles that do not involve handle
reduction: the permutation representation, exponent sums, and the
integral Burau matrices at t = -1.
"""

from __future__ import annotations

import importlib.util
import os
import shutil
import subprocess
import sys
import sysconfig
import tracemalloc
from pathlib import Path

import pytest
from conftest import letter_lists
from hypothesis import given, settings
from hypothesis import strategies as st

from braidcert import _reduction_py
from braidcert.errors import ReductionBudgetExceeded

try:
    from braidcert import _reduction_c
except ImportError:  # pragma: no cover - build-environment dependent
    _reduction_c = None

needs_c = pytest.mark.skipif(_reduction_c is None,
                             reason="compiled kernel not built")

BUDGET = 10**6


@pytest.fixture(scope="session")
def c_kernel(tmp_path_factory):
    """The compiled kernel: the built extension if importable, else
    ``_reduction_c.c`` compiled here with gcc and loaded from a temporary
    directory without entering ``sys.modules``."""
    if _reduction_c is not None:
        return _reduction_c
    include = sysconfig.get_paths()["include"]
    gcc = shutil.which("gcc")
    if gcc is None or not os.path.exists(os.path.join(include, "Python.h")):
        pytest.skip("no gcc or Python.h to compile the kernel")
    source = Path(_reduction_py.__file__).with_name("_reduction_c.c")
    target = tmp_path_factory.mktemp("kernel") / (
        "_reduction_c" + sysconfig.get_config_var("EXT_SUFFIX")
    )
    built = subprocess.run(
        [gcc, "-shared", "-fPIC", "-O2", "-std=c99", "-pedantic", "-Wall",
         "-Wextra", "-Werror", f"-I{include}", str(source), "-o", str(target)],
        capture_output=True, text=True,
    )
    if built.returncode != 0:
        pytest.fail(f"kernel does not compile:\n{built.stderr}")
    spec = importlib.util.spec_from_file_location("braidcert._reduction_c", target)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _budget_message(fn, letters, strands, max_len):
    with pytest.raises(ReductionBudgetExceeded) as exc:
        fn(letters, strands, max_len)
    return str(exc.value)


@st.composite
def words_with_strands(draw, max_strands=5, max_len=60):
    m = draw(st.integers(2, max_strands))
    return m, tuple(draw(letter_lists(m, max_len)))


def _letters(draw, gens, max_len):
    return draw(st.lists(st.sampled_from([x for g in gens for x in (g, -g)]),
                         max_size=max_len))


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
def probe_words(draw):
    """Probes of floor searches and of the power ladder on b = w C w^-1,
    with C = delta^(2d) X^r and X one of delta_1 = sigma_1 ... sigma_(m-1),
    epsilon = delta_1 sigma_1 or sigma_1^(+-1).  Floor searches ask for
    u^-1 delta^(2j) and delta^(2j) u with u = b^n; the power ladder asks
    for the same braids with the full twists spread through the copies
    of C, w (C^-1 delta^(2a_1)) ... (C^-1 delta^(2a_n)) w^-1 and
    w (delta^(2a_1) C) ... (delta^(2a_n) C) w^-1, where
    a_i = floor(j i / n) - floor(j (i - 1) / n)."""
    m = draw(st.integers(3, 5))
    half = tuple(x for block in range(m - 1, 0, -1) for x in range(1, block + 1))
    core = draw(st.sampled_from([tuple(range(1, m)), tuple(range(1, m)) + (1,),
                                 (1,), (-1,)]))
    d = draw(st.integers(-1, 1))
    w = tuple(_letters(draw, range(1, m), 4))
    w_inv = tuple(-x for x in reversed(w))
    twist = half * (2 * abs(d)) if d >= 0 else tuple(-x for x in reversed(half)) * 2
    c = twist + core * draw(st.integers(1, 3))
    n, j = draw(st.integers(1, 4)), draw(st.integers(0, 3))
    inverted = draw(st.booleans())
    if not draw(st.booleans()):
        u = (w + c + w_inv) * n
        if inverted:
            return m, tuple(-x for x in reversed(u)) + half * (2 * j)
        return m, half * (2 * j) + u
    c_inv = tuple(-x for x in reversed(c))
    letters, cut = list(w), 0
    for i in range(1, n + 1):
        full = half * (2 * (j * i // n - cut))
        cut = j * i // n
        letters += c_inv + full if inverted else full + c
    return m, tuple(letters) + w_inv


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


def _free_length(letters):
    return len(_reduction_py._free_reduce(letters))


def _outcome(fn, letters, strands, max_len):
    """The kernel's result, or the message of its budget error."""
    try:
        return fn(letters, strands, max_len)
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


class TestReferenceKernel:
    @given(words_with_strands())
    @settings(max_examples=300)
    def test_reduced_word_is_sigma_definite(self, mw):
        m, w = mw
        reduced = tuple(_reduction_py.reduce_word(w, m, BUDGET))
        signs = _lowest_generator_signs(reduced)
        assert signs is None or len(signs) == 1

    @given(words_with_strands())
    @settings(max_examples=200)
    def test_reduction_is_idempotent(self, mw):
        m, w = mw
        once = tuple(_reduction_py.reduce_word(w, m, BUDGET))
        twice = tuple(_reduction_py.reduce_word(once, m, BUDGET))
        assert once == twice

    @given(words_with_strands())
    @settings(max_examples=200)
    def test_reduction_preserves_braid_invariants(self, mw):
        m, w = mw
        reduced = tuple(_reduction_py.reduce_word(w, m, BUDGET))
        assert _permutation(reduced, m) == _permutation(w, m)
        assert sum(1 if x > 0 else -1 for x in reduced) == sum(
            1 if x > 0 else -1 for x in w
        )
        assert _burau_minus1(reduced, m) == _burau_minus1(w, m)

    @given(words_with_strands())
    @settings(max_examples=200)
    def test_sign_matches_reduced_word(self, mw):
        m, w = mw
        reduced = tuple(_reduction_py.reduce_word(w, m, BUDGET))
        sign = _reduction_py.sign_of(w, m, BUDGET)
        if not reduced:
            assert sign == 0
        else:
            signs = _lowest_generator_signs(reduced)
            assert sign == (1 if signs == {True} else -1)

    @given(words_with_strands(max_len=30))
    @settings(max_examples=150)
    def test_word_times_inverse_is_trivial(self, mw):
        m, w = mw
        doubled = w + tuple(-x for x in reversed(w))
        assert _reduction_py.sign_of(doubled, m, BUDGET) == 0

    def test_nontrivial_burau_implies_nonzero_sign(self):
        # one-sided soundness spot check on specific words
        for m, w in [(3, (1, 2, -1)), (4, (1, 3, 2, 2)), (3, (1, 1, -2))]:
            if _burau_minus1(w, m) != _burau_minus1((), m):
                assert _reduction_py.sign_of(w, m, BUDGET) != 0

    def test_known_handle_rewrites(self):
        # sigma_1 sigma_2 sigma_1^-1 = sigma_2^-1 sigma_1 sigma_2
        assert _reduction_py.reduce_word((1, 2, -1), 3, BUDGET) == [-2, 1, 2]
        # sigma_1 sigma_2^-1 sigma_1^-1 = sigma_2^-1 sigma_1^-1 sigma_2
        assert _reduction_py.reduce_word((1, -2, -1), 3, BUDGET) == [-2, -1, 2]
        # already sigma-definite words come back freely reduced only
        assert _reduction_py.reduce_word((1, 2, -2, 1), 3, BUDGET) == [1, 1]

    @given(gapped_words())
    @settings(max_examples=150, deadline=None)
    def test_gapped_prefix_reductions(self, mw):
        m, w = mw
        reduced = tuple(_reduction_py.reduce_word(w, m, BUDGET))
        signs = _lowest_generator_signs(reduced)
        assert signs is None or len(signs) == 1
        assert _permutation(reduced, m) == _permutation(w, m)
        assert _burau_minus1(reduced, m) == _burau_minus1(w, m)

    def test_budget_exceeded(self):
        w = (1, 2, -1, -2) * 40
        with pytest.raises(ReductionBudgetExceeded):
            _reduction_py.reduce_word(w, 3, 10)


class TestKernelParity:
    @given(words_with_strands(max_len=80))
    @settings(max_examples=400)
    def test_reduce_word_identical(self, c_kernel, mw):
        m, w = mw
        assert c_kernel.reduce_word(w, m, BUDGET) == _reduction_py.reduce_word(
            w, m, BUDGET
        )

    @given(words_with_strands(max_len=80))
    @settings(max_examples=400)
    def test_sign_identical(self, c_kernel, mw):
        m, w = mw
        assert c_kernel.sign_of(w, m, BUDGET) == _reduction_py.sign_of(
            w, m, BUDGET
        )

    @given(st.one_of(gapped_words(), probe_words()))
    @settings(max_examples=300, deadline=None)
    def test_structured_words_identical(self, c_kernel, mw):
        m, w = mw
        for name in ("reduce_word", "sign_of"):
            assert getattr(c_kernel, name)(w, m, BUDGET) == getattr(
                _reduction_py, name)(w, m, BUDGET)

    @given(st.one_of(growing_words(), gapped_words(), probe_words()),
           st.integers(0, 3))
    @settings(max_examples=400, deadline=None)
    def test_budget_trips_identical(self, c_kernel, mw, slack):
        # a budget just above the free-reduced length trips in the
        # middle of the reduction whenever a rewrite grows the word
        m, w = mw
        max_len = _free_length(w) + slack
        for name in ("reduce_word", "sign_of"):
            assert _outcome(getattr(c_kernel, name), w, m, max_len) == _outcome(
                getattr(_reduction_py, name), w, m, max_len)

    def test_budget_exceeded_matches(self, c_kernel):
        # The budget-floor and budget-fdtc goldens print these messages.
        cases = [
            ((1, 2, -1, -2) * 40, 3, 10, "word of length 160 exceeds budget 10"),
            # 5 letters fit; the first handle rewrite makes 7.
            ((1, 2, 3, 2, -1), 4, 5,
             "word grew past budget 5 during handle reduction"),
        ]
        for letters, strands, max_len, message in cases:
            for name in ("reduce_word", "sign_of"):
                assert _budget_message(getattr(_reduction_py, name),
                                       letters, strands, max_len) == message
                assert _budget_message(getattr(c_kernel, name),
                                       letters, strands, max_len) == message

    def test_budget_trips_after_a_gapped_prefix(self, c_kernel):
        # The prefix omits sigma_3..sigma_5; its handle is rewritten
        # first, then the sigma_3 handle grows 11 letters to 13.
        w = (1, 2, -1, 2, 1, 2, 3, 4, 5, 4, -3)
        message = "word grew past budget 11 during handle reduction"
        for kernel in (_reduction_py, c_kernel):
            assert _budget_message(kernel.reduce_word, w, 6, 11) == message
            assert kernel.reduce_word(w, 6, 13) == [
                -2, 1, 2, 2, 1, 2, -4, 3, -5, 4, 5, 3, 4]


class TestCompiledBoundary:
    """The compiled kernel rejects malformed input before it indexes
    anything; the pure kernel trusts its callers."""

    @pytest.mark.parametrize("letters,strands", [
        ((0,), 3), ((1, 0), 3),           # letter 0
        ((3,), 3), ((1, -3), 3),          # |letter| == strands
        ((5,), 3), ((-2**31 - 1,), 3),    # past strands, past a C int
        ((1,), 1), ((), 0), ((1,), -4),   # strands < 2
    ])
    def test_value_errors(self, c_kernel, letters, strands):
        for fn in (c_kernel.reduce_word, c_kernel.sign_of):
            with pytest.raises(ValueError):
                fn(letters, strands, BUDGET)

    @pytest.mark.parametrize("letters,strands,error", [
        ((1.0,), 3, TypeError),
        (("1",), 3, TypeError),
        ((None,), 3, TypeError),
        (7, 3, TypeError),
        ((2**64,), 3, OverflowError),
        ((-2**64,), 3, OverflowError),
        ((1,), 2**40, OverflowError),
        ((1,), 3.0, TypeError),
    ])
    def test_type_and_overflow_errors(self, c_kernel, letters, strands, error):
        for fn in (c_kernel.reduce_word, c_kernel.sign_of):
            with pytest.raises(error):
                fn(letters, strands, BUDGET)

    def test_tables_follow_the_word_not_strands(self, c_kernel):
        # Tables sized by strands would take megabytes here.
        tracemalloc.start()
        try:
            assert c_kernel.reduce_word((1, 2, -1), 10**6, BUDGET) == [-2, 1, 2]
            assert c_kernel.sign_of((-2, 3, 2), 10**6, BUDGET) == 1
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000


class TestKernelSelection:
    def _kernel_in_subprocess(self, env_value):
        import os

        code = "import braidcert; print(braidcert.kernel_name())"
        env = dict(os.environ, BRAIDCERT_KERNEL=env_value)
        return subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env
        )

    def test_force_python(self):
        result = self._kernel_in_subprocess("python")
        assert result.returncode == 0
        assert result.stdout.strip() == "python"

    @needs_c
    def test_force_c(self):
        result = self._kernel_in_subprocess("c")
        assert result.returncode == 0
        assert result.stdout.strip() == "c"

    def test_bad_kernel_name_rejected(self):
        result = self._kernel_in_subprocess("fortran")
        assert result.returncode != 0

    def test_budget_env(self, monkeypatch):
        from braidcert import _kernel

        monkeypatch.setenv("BRAIDCERT_REDUCTION_BUDGET", "12345")
        assert _kernel.default_budget() == 12345
        monkeypatch.setenv("BRAIDCERT_REDUCTION_BUDGET", "zero")
        with pytest.raises(ValueError):
            _kernel.default_budget()
        monkeypatch.setenv("BRAIDCERT_REDUCTION_BUDGET", "-3")
        with pytest.raises(ValueError):
            _kernel.default_budget()
        monkeypatch.delenv("BRAIDCERT_REDUCTION_BUDGET")
        assert _kernel.default_budget() == _kernel.DEFAULT_REDUCTION_BUDGET
