"""The one gateway to the engines: every braid question the library
asks of handle reduction or of a Dynnikov walk is asked here.

Two engines answer five questions (Dehornoy, Dynnikov, Rolfsen and
Wiest, *Ordering Braids*, 2008, ch. XII):

- :func:`sign_of`, the Dehornoy sign of a word, and :func:`reduce_word`,
  a fully handle-reduced word: handle reduction under either build;
- :meth:`FloorProbe.inside`, one probe of a floor search or ladder:
  under the compiled kernel, handle reduction of the probe's word;
  under the pure-Python one, a Dynnikov walk that continues from the
  last probe's point, so that a floor search walks each letter once;
- :func:`is_twist_power`, the root test "is this word on m strands
  delta^(2p)?", and :func:`is_trivial`, the word problem: a Dynnikov
  walk under either build.

The compiled extension and the pure-Python module implement the same
reduction, letter for letter.  Import-time selection prefers the
extension; set BRAIDCERT_KERNEL=python (or =c) to force a choice.  The
walks are :mod:`braidcert.dynnikov`'s under either build, and are
called through that module's attributes.

The callers pass the letters of a BraidWord, which has already checked
them against its strand count (:mod:`braidcert.braid`).  A strand count
goes with them only where the question holds full twists: a floor
probe's and the root test's delta^(2p).

This module is the one place that resolves the reduction budget: every
kernel call reads BRAIDCERT_REDUCTION_BUDGET afresh, so a program can
change it between calls.  The budget bounds handle reduction and the
walked floor probes; the root test and the triviality test walk
without it.
"""

from __future__ import annotations

import os
import sys
from functools import lru_cache

from braidcert import _reduction_py, dynnikov
from braidcert.braid import BLANKS, full_twist_letters, number_repr, parse_decimal
from braidcert.errors import BadParameters

try:
    from braidcert import _reduction_c
except ImportError:  # extension not built; pure fallback
    _reduction_c = None  # type: ignore[assignment]

_forced = os.environ.get("BRAIDCERT_KERNEL", "").strip(BLANKS).lower()
if _forced == "python":
    _impl = _reduction_py
elif _forced == "c":
    if _reduction_c is None:
        raise ImportError(
            "BRAIDCERT_KERNEL=c but the compiled kernel is not installed"
        )
    _impl = _reduction_c
elif _forced:
    raise ImportError(
        f"BRAIDCERT_KERNEL must be 'c' or 'python', got {_forced!r}"
    )
else:
    _impl = _reduction_c if _reduction_c is not None else _reduction_py

#: Default working-length budget for handle reduction.
DEFAULT_REDUCTION_BUDGET = 10**6


def default_budget() -> int:
    """Reduction budget: BRAIDCERT_REDUCTION_BUDGET env var, else 10^6,
    capped at sys.maxsize, the most a list can hold, which the compiled
    kernel takes as a C ssize_t.  Raises BadParameters when the setting
    is not a positive integer."""
    raw = os.environ.get("BRAIDCERT_REDUCTION_BUDGET", "").strip(BLANKS)
    if raw:
        try:
            value = parse_decimal(raw)
        except ValueError:
            raise BadParameters(
                f"BRAIDCERT_REDUCTION_BUDGET must be an integer, got {number_repr(raw)}"
            ) from None
        if value <= 0:
            raise BadParameters("BRAIDCERT_REDUCTION_BUDGET must be positive")
        return min(value, sys.maxsize)
    return DEFAULT_REDUCTION_BUDGET


def sign_of(letters) -> int:
    """Dehornoy sign of a word, -1, 0 or +1, under the process budget."""
    return _impl.sign_of(letters, default_budget())


def spread_probe(w: tuple[int, ...], x: tuple[int, ...], m: int, n: int,
                 j: int, positive: bool) -> tuple[int, ...]:
    """Letters of c^n delta^(2j) for a braid b = w X w^-1 on m strands,
    with c = b^-1 for a positive b and c = b for a negative one, and the
    j full twists spread through the |n| copies of c's core.

    For n >= 1 it is the probe of a floor search or ladder on b^n:
    w (X^-1 delta^(2a_1)) ... (X^-1 delta^(2a_n)) w^-1 for positive b,
    which is b^-n delta^(2j), and w (delta^(2a_1) X) ...
    (delta^(2a_n) X) w^-1 for negative b, which is delta^(2j) b^n.  The
    exponents a_i = floor(j i / n) - floor(j (i - 1) / n) split j
    evenly.  j may be negative there: X is a twist-free rotation of a
    core whose full twists :class:`FloorProbe` takes off j.  A negative n
    takes the inverse core, as c^n = w X^(+-|n|) w^-1, and for a
    negative j every a_i is <= 0; n = 0 gives delta^(2j) alone.
    """
    if n == 0:
        return full_twist_letters(m, j)
    core = tuple(-y for y in reversed(x)) if positive == (n > 0) else x
    copies = abs(n)
    letters = list(w)
    cut = 0
    for i in range(1, copies + 1):
        a = j * i // copies - cut
        cut += a
        twist = full_twist_letters(m, a)
        letters += core + twist if positive else twist + core
    letters += (-y for y in reversed(w))
    return tuple(letters)


class FloorProbe:
    """The probes of one floor search on a nontrivial braid
    b = delta^(2e) w X w^-1 on m strands: whether c^n delta^(2j) is
    positive, with c = b^-1 for a positive b and c = b for a negative
    one, that is whether b^n lies strictly inside delta^(2j) in the
    direction of b's sign.

    X is a twist-free rotation of b's cyclic core (see
    ``ordering._peel_twists``), and the e full twists, central, leave
    each probe as a shift of its twist count: c^n delta^(2j) is
    c'^n delta^(2t) for the conjugate c' of X^-1 or of X, with
    t = j - n |e|, as e has b's sign.  t may be negative.  Its word is
    :meth:`word`.

    Under the compiled kernel, :func:`sign_of` decides each probe by
    handle reduction of that word.  The pure-Python build walks Dynnikov
    coordinates instead, and walks each letter once.  It keeps the image
    of the start point under the last probe c'^n0 delta^(2t0).  The walk
    is a right action of the braid group and delta^2 is central, so

        c'^n delta^(2t) = (c'^n0 delta^(2t0)) (c'^(n - n0) delta^(2(t - t0))),

    and the next probe walks only the freely reduced difference,
    ``spread_probe(w, X, m, n - n0, t - t0, positive)``, from that image.
    The image is exact, so the sign is the one a walk of the whole probe
    gives (:func:`braidcert.dynnikov.point_sign`).

    Either engine refuses a probe whose whole word, freely reduced, is
    longer than the budget: the walk by the pure-Python kernel's own
    check, :func:`braidcert._reduction_py.admit`, so both builds fail on
    the same probes with the same message.  The pure-Python build builds
    that word only when its 2|w| + n|X| + |t| m (m - 1) letters exceed
    the budget, as free reduction only shortens a word.
    """

    def __init__(self, w: tuple[int, ...], x: tuple[int, ...], m: int,
                 positive: bool, twists: int = 0):
        self.w, self.x, self.m, self.positive = w, x, m, positive
        self.twists = twists
        self._n = self._t = 0
        self._point = [0, 1] * m

    def _shifted(self, n: int, j: int) -> int:
        """t, the full twists of the probe on b^n with j full twists once
        the peeled ones are taken out."""
        return j - n * abs(self.twists)

    def word(self, n: int, j: int) -> tuple[int, ...]:
        """Letters of the probe on b^n with j full twists:
        ``spread_probe(w, X, m, n, t, positive)``."""
        return spread_probe(self.w, self.x, self.m, n, self._shifted(n, j), self.positive)

    def inside(self, n: int, j: int) -> bool:
        """Whether b^n lies strictly inside delta^(2j) in the direction
        of b's sign, for n >= 1 and j >= 0."""
        if _impl is not _reduction_py:
            return sign_of(self.word(n, j)) > 0
        w, x, m = self.w, self.x, self.m
        t = self._shifted(n, j)
        budget = default_budget()
        if 2 * len(w) + n * len(x) + abs(t) * m * (m - 1) > budget:
            _reduction_py.admit(self.word(n, j), budget)
        step = spread_probe(w, x, m, n - self._n, t - self._t, self.positive)
        self._point = dynnikov.act(self._point, dynnikov.free_reduce(step))
        self._n, self._t = n, t
        return dynnikov.point_sign(self._point) > 0


def reduce_word(letters) -> list[int]:
    """A fully handle-reduced word equal to the given one, under the
    process budget."""
    return _impl.reduce_word(letters, default_budget())


@lru_cache(maxsize=1024)
def twist_point(m: int, p: int) -> tuple[int, ...]:
    """The image of the start point (0, 1, ..., 0, 1), with m pairs,
    under delta^(2p) on m strands: one walk of those letters the first
    time, kept as an immutable tuple for later calls."""
    return tuple(dynnikov.act((0, 1) * m, full_twist_letters(m, p)))


def is_twist_power(letters, m: int, p: int) -> bool:
    """Whether a word on m strands is delta^(2p): whether its walk moves
    the start point where :func:`twist_point` says delta^(2p) does.  The
    action is faithful, so the images agree exactly when the braids do."""
    return tuple(dynnikov.act((0, 1) * m, letters)) == twist_point(m, p)


def is_trivial(letters) -> bool:
    """Whether a word is the identity braid, by a Dynnikov walk
    (:func:`braidcert.dynnikov.is_trivial`)."""
    return dynnikov.is_trivial(letters)


def kernel_name() -> str:
    """Which reduction kernel is active: "c" or "python"."""
    return "python" if _impl is _reduction_py else "c"
