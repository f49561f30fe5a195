"""Kernel selection: compiled handle reduction when available.

The compiled extension and the pure-Python module implement the same
reduction, letter for letter.  Import-time selection prefers the
extension; set BRAIDCERT_KERNEL=python (or =c) to force a choice.

This module is the one place that resolves the reduction budget: every
kernel call reads BRAIDCERT_REDUCTION_BUDGET afresh, so a program can
change it between calls.
"""

from __future__ import annotations

import os

from braidcert import _reduction_py

try:
    from braidcert import _reduction_c
except ImportError:  # extension not built; pure fallback
    _reduction_c = None  # type: ignore[assignment]

_forced = os.environ.get("BRAIDCERT_KERNEL", "").strip().lower()
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
    """Reduction budget: BRAIDCERT_REDUCTION_BUDGET env var, else 10^6."""
    raw = os.environ.get("BRAIDCERT_REDUCTION_BUDGET", "").strip()
    if raw:
        try:
            value = int(raw)
        except ValueError:
            raise ValueError(
                f"BRAIDCERT_REDUCTION_BUDGET must be an integer, got {raw!r}"
            ) from None
        if value <= 0:
            raise ValueError("BRAIDCERT_REDUCTION_BUDGET must be positive")
        return value
    return DEFAULT_REDUCTION_BUDGET


def sign_of(letters, strands: int) -> int:
    """Dehornoy sign of a word, -1, 0 or +1, under the process budget."""
    return _impl.sign_of(letters, strands, default_budget())


def reduce_word(letters, strands: int) -> list[int]:
    """A fully handle-reduced word equal to the given one, under the
    process budget."""
    return _impl.reduce_word(letters, strands, default_budget())


def kernel_name() -> str:
    """Which reduction kernel is active: "c" or "python"."""
    return "c" if _impl is _reduction_c else "python"
