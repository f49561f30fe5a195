from __future__ import annotations

import importlib.util
import os
import shutil
import subprocess
import sysconfig
from contextlib import contextmanager
from pathlib import Path

import pytest
from hypothesis import strategies as st

from braidcert import BraidWord, _kernel, _reduction_py, dynnikov

try:
    from braidcert import _reduction_c
except ImportError:  # pragma: no cover - build-environment dependent
    _reduction_c = None

# Pass/fail lines recorded by the acceptance tests; echoed after the run
# so they are visible even under captured output.
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("=", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def letter_lists(strands: int, max_len: int = 40):
    gens = [x for k in range(1, strands) for x in (k, -k)]
    return st.lists(st.sampled_from(gens), max_size=max_len)


@st.composite
def braid_words(draw, min_strands: int = 2, max_strands: int = 5,
                max_len: int = 40) -> BraidWord:
    m = draw(st.integers(min_strands, max_strands))
    return BraidWord(m, tuple(draw(letter_lists(m, max_len))))


@st.composite
def three_braids(draw, max_len: int = 30) -> BraidWord:
    return BraidWord(3, tuple(draw(letter_lists(3, max_len))))


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


def _letters(draw, gens, max_len):
    return draw(st.lists(st.sampled_from([x for g in gens for x in (g, -g)]),
                         max_size=max_len))


@st.composite
def probe_words(draw):
    """Probes of floor searches and of the power ladder on b = w C w^-1,
    with C = delta^(2d) X^r and X one of delta_1 = sigma_1 ... sigma_(m-1),
    epsilon = delta_1 sigma_1 or sigma_1^(+-1).  Floor searches ask for
    u^-1 delta^(2j) and delta^(2j) u with u = b^n; the power ladder asks
    for the same braids with the full twists spread through the copies
    of C, w (C^-1 delta^(2a_1)) ... (C^-1 delta^(2a_n)) w^-1 and
    w (delta^(2a_1) C) ... (delta^(2a_n) C) w^-1, where
    a_i = floor(j i / n) - floor(j (i - 1) / n).  A central-root query
    asks whether C^q delta^(-2p) is trivial, q = m or m - 1.  p is
    q e(C) / (m (m-1)) rounded down, off by one or not, so the query is
    trivial for C = delta^(2d) delta_1^r at q = m and for
    C = delta^(2d) epsilon^r at q = m - 1 when p is not moved, and those
    cores are asked at that q."""
    m = draw(st.integers(3, 5))
    half = tuple(x for block in range(m - 1, 0, -1) for x in range(1, block + 1))
    inverse_half = tuple(-x for x in reversed(half))
    core = draw(st.sampled_from([tuple(range(1, m)), tuple(range(1, m)) + (1,),
                                 (1,), (-1,)]))
    d = draw(st.integers(-1, 1))
    w = tuple(_letters(draw, range(1, m), 4))
    w_inv = tuple(-x for x in reversed(w))
    twist = half * (2 * abs(d)) if d >= 0 else inverse_half * 2
    c = twist + core * draw(st.integers(1, 3))
    shape = draw(st.sampled_from(["block", "spread", "root"]))
    if shape == "root":
        roots = {tuple(range(1, m)): m, tuple(range(1, m)) + (1,): m - 1}
        q = roots.get(core) or draw(st.sampled_from([m, m - 1]))
        e = sum(1 if x > 0 else -1 for x in c)
        p = q * e // (m * (m - 1)) + draw(st.sampled_from([0, 0, 1, -1]))
        return m, c * q + (inverse_half if p >= 0 else half) * (2 * abs(p))
    n, j = draw(st.integers(1, 4)), draw(st.integers(0, 3))
    inverted = draw(st.booleans())
    if shape == "block":
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


@contextmanager
def recorded_queries(module=_kernel, name="sign_of", at=0):
    """Every call of module.name made inside the block, as the tuple of
    its letters, argument number ``at``: by default the kernel's sign
    queries."""
    queries: list[tuple[int, ...]] = []
    original = getattr(module, name)

    def recording(*args):
        queries.append(tuple(args[at]))
        return original(*args)

    setattr(module, name, recording)
    try:
        yield queries
    finally:
        setattr(module, name, original)


def recorded_walks():
    """Every Dynnikov-coordinate walk made inside the block, as the
    letters walked: the triviality tests that passed the crossing
    screen."""
    return recorded_queries(dynnikov, "act", at=1)
