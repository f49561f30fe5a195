"""Kernel selection: compiled handle reduction when available.

The compiled extension and the pure-Python module implement the same
reduction, letter for letter.  Import-time selection prefers the
extension; set BRAIDCERT_KERNEL=python (or =c) to force a choice.

Every entry point takes letters alone: the callers pass the letters of
a BraidWord, which has already checked them against its strand count
(:mod:`braidcert.braid`), and no engine needs more.

This module also picks the one engine for every floor probe
(:func:`probe_sign`): handle reduction under the compiled kernel,
Dynnikov coordinates under the pure-Python one.

This module is the one place that resolves the reduction budget: every
kernel call reads BRAIDCERT_REDUCTION_BUDGET afresh, so a program can
change it between calls.
"""

from __future__ import annotations

import os

from braidcert import _reduction_py, dynnikov
from braidcert.braid import BLANKS, parse_decimal
from braidcert.errors import BadParameters, ReductionBudgetExceeded

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
    """Reduction budget: BRAIDCERT_REDUCTION_BUDGET env var, else 10^6.
    Raises BadParameters when the setting is not a positive integer."""
    raw = os.environ.get("BRAIDCERT_REDUCTION_BUDGET", "").strip(BLANKS)
    if raw:
        try:
            value = parse_decimal(raw)
        except ValueError:
            raise BadParameters(
                f"BRAIDCERT_REDUCTION_BUDGET must be an integer, got {raw!r}"
            ) from None
        if value <= 0:
            raise BadParameters("BRAIDCERT_REDUCTION_BUDGET must be positive")
        return value
    return DEFAULT_REDUCTION_BUDGET


def sign_of(letters) -> int:
    """Dehornoy sign of a word, -1, 0 or +1, under the process budget."""
    return _impl.sign_of(letters, default_budget())


def probe_sign(letters) -> int:
    """Dehornoy sign of a floor search's or ladder's probe, under the
    process budget.

    The compiled kernel decides it by handle reduction, through
    :func:`sign_of`.  The pure-Python build walks Dynnikov coordinates
    instead (:func:`braidcert.dynnikov.sign`): on the probes, a power
    or a braid and its full twists, the walk is about twice as fast as
    pure-Python handle reduction, but slower than compiled handle
    reduction.  A probe whose freely reduced word
    is longer than the budget is refused with the kernels' own message,
    so either engine fails on the same probes in the same words.
    """
    if _impl is not _reduction_py:
        return sign_of(letters)
    budget = default_budget()
    if len(letters) > budget:  # free reduction only shortens a word
        length = len(dynnikov.free_reduce(letters))
        if length > budget:
            raise ReductionBudgetExceeded(
                f"word of length {length} exceeds budget {budget}"
            )
    return dynnikov.sign(letters)


def reduce_word(letters) -> list[int]:
    """A fully handle-reduced word equal to the given one, under the
    process budget."""
    return _impl.reduce_word(letters, default_budget())


def kernel_name() -> str:
    """Which reduction kernel is active: "c" or "python"."""
    return "c" if _impl is _reduction_c else "python"
