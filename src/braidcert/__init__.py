"""Exact computations in braid groups with certificate-producing
decision rules for cyclic branched covers, surgeries and satellites.

The library works entirely in exact rational arithmetic: braid words as
signed generator sequences, the Dehornoy order via handle reduction
(with a compiled kernel when available), fractional Dehn twist
coefficients as exact rationals on three strands and certified
intervals otherwise, and verdict certificates whose inequalities an
independent replay checker re-evaluates.
"""

from __future__ import annotations

from braidcert._kernel import DEFAULT_REDUCTION_BUDGET, default_budget, kernel_name
from braidcert.braid import (
    MAX_WORD_LETTERS,
    BraidWord,
    Permutation,
    compose,
    delta,
    format_braid,
    full_twist,
    identity,
    is_trivial,
    parse_braid,
)
from braidcert.certify import (
    Certificate,
    DegeneracySlope,
    Justification,
    SurgerySlope,
    Verdict,
    certify_closed_braid_cover,
    certify_fibred_cover,
    certify_genus1_cover,
    certify_orbifold_cover,
    certify_satellite,
    excluded_q,
    slope_distance,
)
from braidcert.errors import (
    BadGenus,
    BadParameters,
    BadStrands,
    BraidError,
    GeneratorOutOfRange,
    NotThreeBraid,
    ParseError,
    ReductionBudgetExceeded,
    SplitBinding,
    StrandMismatch,
    WordLengthExceeded,
)
from braidcert.fdtc import (
    FdtcValue,
    fdtc_exact_b3,
    fdtc_interval,
    fdtc_interval_by_floor,
    fdtc_lift,
    fdtc_lower_bound,
)
from braidcert.ordering import (
    Comparison,
    OrderSign,
    compare,
    dehornoy_floor,
    power_floor,
    reduced_word,
    sigma_sign,
)
from braidcert.replay import ReplayError, evaluate_inequality, verify_certificate
from braidcert.threebraid import (
    LSpaceStatus,
    NTType,
    PeriodicForm,
    PseudoAnosovForm,
    ReducibleForm,
    baldwin_lspace_double_cover,
    normal_form,
    nt_type,
    representative,
    sl2_image,
)

__version__ = "0.1.0"

__all__ = [
    "BadGenus",
    "BadParameters",
    "BadStrands",
    "BraidError",
    "BraidWord",
    "Certificate",
    "Comparison",
    "DEFAULT_REDUCTION_BUDGET",
    "DegeneracySlope",
    "FdtcValue",
    "GeneratorOutOfRange",
    "Justification",
    "LSpaceStatus",
    "MAX_WORD_LETTERS",
    "NTType",
    "NotThreeBraid",
    "OrderSign",
    "ParseError",
    "PeriodicForm",
    "Permutation",
    "PseudoAnosovForm",
    "ReducibleForm",
    "ReductionBudgetExceeded",
    "ReplayError",
    "SplitBinding",
    "StrandMismatch",
    "SurgerySlope",
    "Verdict",
    "WordLengthExceeded",
    "baldwin_lspace_double_cover",
    "certify_closed_braid_cover",
    "certify_fibred_cover",
    "certify_genus1_cover",
    "certify_orbifold_cover",
    "certify_satellite",
    "compare",
    "compose",
    "default_budget",
    "dehornoy_floor",
    "delta",
    "evaluate_inequality",
    "excluded_q",
    "fdtc_exact_b3",
    "fdtc_interval",
    "fdtc_interval_by_floor",
    "fdtc_lift",
    "fdtc_lower_bound",
    "format_braid",
    "full_twist",
    "identity",
    "is_trivial",
    "kernel_name",
    "normal_form",
    "nt_type",
    "parse_braid",
    "power_floor",
    "reduced_word",
    "representative",
    "sigma_sign",
    "sl2_image",
    "slope_distance",
    "verify_certificate",
]
