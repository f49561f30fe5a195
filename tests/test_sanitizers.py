"""The compiled kernel under AddressSanitizer and UndefinedBehaviorSanitizer.

A plain build that writes a few slots past a buffer can still give the
right answer, so the parity tests in ``test_kernels.py`` cannot see it.
Here ``_reduction_c.c`` is compiled with ``-fsanitize=address,undefined``
into a temporary copy of the package, and a subprocess compares it with
``_reduction_py`` on seeded words: any out-of-bounds access, use after
free or undefined operation aborts that process with a report.  The
interpreter is not built with ASan, so the ASan runtime is preloaded,
and ``PYTHONMALLOC=malloc`` routes the kernel's ``PyMem_*`` buffers
through the malloc that ASan watches.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest

import braidcert

_FLAGS = ("-O1", "-g", "-fsanitize=address,undefined", "-fno-sanitize-recover=all",
          "-fno-omit-frame-pointer")

#: Compares the two kernels, error messages included, on five sets of
#: seeded words; prints the kernel's file, the comparisons made, the
#: budget trips and the mismatches.
_CHECK = r"""
import random
from braidcert import _reduction_c, _reduction_py, dynnikov
from braidcert.errors import ReductionBudgetExceeded

def outcome(fn, letters, budget):
    try:
        return fn(letters, budget)
    except ReductionBudgetExceeded as exc:
        return "budget: " + str(exc)

def word(rng, m, length):
    return tuple(rng.choice((1, -1)) * rng.randrange(1, m) for _ in range(length))

def between(rng, low, high, length):
    return tuple(rng.choice((1, -1)) * rng.randint(low, high) for _ in range(length))

rng = random.Random(1)
cases = []
# short words on 2-7 strands, under budgets from 5 to 10^6; a budget
# near the word's length trips before or during the reduction
for _ in range(3000):
    letters = word(rng, rng.randint(2, 7), rng.randint(0, 60))
    if rng.random() < 0.5:
        budget = rng.randint(5, len(letters) + 8)
    else:
        budget = int(10 ** rng.uniform(0.7, 6))
    cases.append((letters, budget))
# long words on 4-6 strands, whose handle interiors pass the length at
# which the segment buffer grows past its first 64 slots
for _ in range(200):
    cases.append((word(rng, rng.randint(4, 6), rng.randint(200, 400)), 10**6))
# a handle sigma_g^e v sigma_g^-e whose interior alternates one sign of
# sigma_(g+1) with higher letters, so that its rewrite doubles it: the
# segment fills past 64 slots and the word past its 16 spare ones
for _ in range(200):
    m = rng.randint(4, 7)
    g, e, f = rng.randrange(1, m - 2), rng.choice((1, -1)), rng.choice((1, -1))
    v = []
    for _ in range(rng.randint(5, 30)):
        v += (f * (g + 1), rng.choice((1, -1)) * rng.randrange(g + 2, m))
    cases.append((word(rng, m, 10) + (e * g, *v, -e * g) + word(rng, m, 10), 10**6))
# a handle whose interior holds runs of 2 to 40 equal sigma_(g+1)
# letters between higher ones: the closed form merges each run into
# one patch of up to 42 letters, and long runs fill the segment
for _ in range(200):
    m = rng.randint(4, 7)
    g, e, d = rng.randrange(1, m - 2), rng.choice((1, -1)), rng.choice((1, -1))
    v = [d * (g + 1)] * rng.randint(2, 40)
    for _ in range(rng.randint(1, 8)):
        v += [rng.choice((1, -1)) * rng.randrange(g + 2, m) for _ in range(rng.randint(1, 2))]
        v += [d * (g + 1)] * rng.randint(2, 40)
    cases.append((word(rng, m, 10) + (e * g, *v, -e * g) + word(rng, m, 10), 10**6))
# u Delta v Delta^-1 u' with Delta the half twist of strands c..c+k-1,
# v in sigma_c .. sigma_(c+k-3) and u, u' above sigma_c: sigma_c cancels
# out during the reduction, and the kernel counts the next generator
# from the word; a growing handle above sigma_c at one end and a budget
# a few letters past the free length refuse before or after that
for _ in range(200):
    c, k = rng.randint(1, 2), rng.randint(3, 6)
    delta = tuple(x + c - 1 for block in range(k - 1, 0, -1) for x in range(1, block + 1))
    v = between(rng, c, c + k - 3, rng.randint(1, 30))
    e, d, f = (rng.choice((1, -1)) for _ in range(3))
    grows = ((e * (c + 1),) + (d * (c + 2), f * (c + 3)) * rng.randint(1, 3)
             + (d * (c + 2), -e * (c + 1)))
    body = (between(rng, c + 1, c + k, rng.randint(0, 10)) + delta + v
            + tuple(-x for x in reversed(delta)) + between(rng, c + 1, c + k, rng.randint(0, 10)))
    letters = grows + body if rng.random() < 0.5 else body + grows
    budget = len(dynnikov.free_reduce(letters)) + rng.randint(0, 8)
    cases.append((letters, budget))

trips = mismatches = 0
for letters, budget in cases:
    for name in ("sign_of", "reduce_word"):
        got = outcome(getattr(_reduction_c, name), letters, budget)
        want = outcome(getattr(_reduction_py, name), letters, budget)
        mismatches += got != want
        trips += isinstance(want, str)
print(_reduction_c.__file__)
print(2 * len(cases), trips, mismatches)
"""


def _sanitized_package(root: Path) -> Path:
    """A copy of the package under root with the kernel compiled under
    both sanitizers, or a skip when gcc, Python.h or libasan is missing."""
    gcc = shutil.which("gcc")
    include = sysconfig.get_paths()["include"]
    if gcc is None:
        pytest.skip("no gcc to compile the kernel")
    if not os.path.exists(os.path.join(include, "Python.h")):
        pytest.skip("no Python.h to compile the kernel")
    package = Path(braidcert.__file__).parent
    copy = shutil.copytree(package, root / "braidcert",
                           ignore=shutil.ignore_patterns("__pycache__", "*.so"))
    target = copy / ("_reduction_c" + sysconfig.get_config_var("EXT_SUFFIX"))
    built = subprocess.run(
        [gcc, "-shared", "-fPIC", "-std=c99", *_FLAGS, f"-I{include}",
         str(copy / "_reduction_c.c"), "-o", str(target)],
        capture_output=True, text=True,
    )
    if built.returncode != 0:
        if "asan" in built.stderr or "ubsan" in built.stderr:
            pytest.skip(f"no sanitizer runtime to link:\n{built.stderr}")
        pytest.fail(f"kernel does not compile under the sanitizers:\n{built.stderr}")
    return root


def _libasan() -> str:
    found = subprocess.run(["gcc", "-print-file-name=libasan.so"],
                           capture_output=True, text=True).stdout.strip()
    if not os.path.isabs(found) or not os.path.exists(found):
        pytest.skip("no libasan.so to preload")
    return found


def test_kernel_is_clean_under_sanitizers(tmp_path):
    root = _sanitized_package(tmp_path)
    env = dict(os.environ, PYTHONPATH=str(root), LD_PRELOAD=_libasan(),
               ASAN_OPTIONS="detect_leaks=0", PYTHONMALLOC="malloc",
               PYTHONDONTWRITEBYTECODE="1")
    result = subprocess.run([sys.executable, "-c", _CHECK], env=env,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr[-4000:]
    kernel, counts = result.stdout.splitlines()
    assert Path(kernel).parent == root / "braidcert"
    comparisons, trips, mismatches = map(int, counts.split())
    assert (comparisons, mismatches) == (7600, 0)
    assert trips > 0
