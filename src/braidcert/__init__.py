"""Exact computations in braid groups with certificate-producing
decision rules for cyclic branched covers, surgeries and satellites.

The library works entirely in exact rational arithmetic: braid words as
signed generator sequences, the Dehornoy order via handle reduction
(with a compiled kernel when available), the word problem by integer
Dynnikov coordinates, fractional Dehn twist
coefficients as exact rationals on three strands and certified
intervals otherwise (from ``power_floor``, which gives the Dehornoy
floor of a power b^k together with the sign of b, read off a central
root or asked once by the floor search), and verdict certificates
whose inequalities an independent replay checker re-evaluates.

Importing the package loads only the error, word, kernel and order
modules; a name from ``certify``, ``fdtc``, ``threebraid`` or ``replay``
loads its module on first use.
"""

from __future__ import annotations

import importlib

# Every command needs these modules, and importing _kernel selects the
# kernel, so they load with the package; the others load on first use.
from braidcert import _kernel, braid, errors, ordering  # noqa: F401

#: Each public name, by the module that defines it.  A name is looked up
#: on its module at each access (PEP 562), never stored here, so a
#: wrapper installed on the module is the one the package hands out.
_EXPORTS = {
    "_kernel": ("DEFAULT_REDUCTION_BUDGET", "default_budget", "kernel_name"),
    "braid": (
        "MAX_WORD_LETTERS", "BraidWord", "Permutation", "compose", "delta",
        "format_braid", "full_twist", "identity", "is_trivial", "parse_braid",
    ),
    "errors": (
        "BadGenus", "BadParameters", "BadStrands", "BraidError", "GeneratorOutOfRange",
        "NotThreeBraid", "ParseError", "ReductionBudgetExceeded", "SplitBinding",
        "StrandMismatch", "WordLengthExceeded",
    ),
    "ordering": (
        "Comparison", "OrderSign", "compare", "dehornoy_floor", "power_floor",
        "reduced_word", "sigma_sign",
    ),
    "certify": (
        "Certificate", "Justification", "Verdict", "certify_closed_braid_cover",
        "certify_fibred_cover", "certify_genus1_cover", "certify_orbifold_cover",
        "certify_satellite",
    ),
    "fdtc": (
        "FdtcValue", "fdtc_exact_b3", "fdtc_interval", "fdtc_interval_by_floor",
        "fdtc_lift", "fdtc_lower_bound",
    ),
    "replay": ("ReplayError", "evaluate_inequality", "verify_certificate"),
    "threebraid": (
        "LSpaceStatus", "PeriodicForm", "PseudoAnosovForm", "ReducibleForm",
        "baldwin_lspace_double_cover", "normal_form", "representative", "sl2_image",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted(globals().keys() | _HOME.keys())


__version__ = "0.1.0"
__all__ = sorted(_HOME)
