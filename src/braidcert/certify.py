"""Certified verdicts for branched covers, surgeries and satellites.

Each certifier consumes exact rational twist data (and, where relevant,
a braid word) and returns a :class:`Certificate`: a verdict plus the
chain of rules that justify it.  Every justification carries the rule's
defining inequality *instantiated with the exact rationals used*, in a
tiny arithmetic grammar that the independent replay checker
(:mod:`braidcert.replay`) re-evaluates from scratch.  Definite verdicts
(Excellent, TotalLSpace) always carry at least one justification;
geometric hypotheses that cannot be checked from the input (fibredness,
hyperbolicity, irreducibility, pseudo-Anosov type on more than 3
strands) are consumed as explicit assertions and echoed back in the
certificate, never inferred silently.

Verdict vocabulary: "excellent" means the manifold carries a co-oriented
taut foliation, has left-orderable fundamental group bundle, and is not
a Heegaard Floer L-space; "total L-space" is the opposite corner (an
L-space, not left-orderable, no such foliation).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from braidcert.braid import BraidWord
from braidcert.errors import BadGenus, BadParameters, SplitBinding
from braidcert.fdtc import FdtcValue, fdtc_interval
from braidcert.ordering import OrderSign, sigma_sign
from braidcert.threebraid import (
    NTType,
    PeriodicForm,
    PseudoAnosovForm,
    ReducibleForm,
    normal_form,
    nt_type,
)


class Verdict(Enum):
    EXCELLENT = "Excellent"
    TOTAL_L_SPACE = "TotalLSpace"
    UNKNOWN = "Unknown"


@dataclass(frozen=True)
class Justification:
    """One applied rule: an identifier, the rule statement, and the
    instantiated inequality that makes it machine-checkable."""

    rule: str
    citation: str
    inequality: str


@dataclass(frozen=True)
class Certificate:
    verdict: Verdict
    justifications: tuple[Justification, ...] = ()
    assumptions: tuple[str, ...] = ()
    notes: tuple[str, ...] = ()

    def __post_init__(self):
        if self.verdict is not Verdict.UNKNOWN and not self.justifications:
            raise BadParameters(
                f"{self.verdict.value} verdict requires a justification chain"
            )

    def to_record(self) -> dict:
        """Stable-field-order plain record (suitable for golden diffs)."""
        return {
            "verdict": self.verdict.value,
            "justifications": [
                {"rule": j.rule, "citation": j.citation, "inequality": j.inequality}
                for j in self.justifications
            ],
            "assumptions": list(self.assumptions),
            "notes": list(self.notes),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_record(), separators=(", ", ": "))

    def render_text(self) -> str:
        lines = [self.verdict.value]
        for j in self.justifications:
            lines.append(f"  rule {j.rule}: {j.citation}")
            lines.append(f"    check: {j.inequality}")
        for a in self.assumptions:
            lines.append(f"  assuming: {a}")
        for n in self.notes:
            lines.append(f"  note: {n}")
        return "\n".join(lines)


@dataclass(frozen=True)
class SurgerySlope:
    """Slope n mu + q lambda on a knot boundary, n >= 1."""

    n: int
    q: int

    def __post_init__(self):
        if self.n < 1:
            raise BadParameters(f"slope needs n >= 1, got n = {self.n}")


@dataclass(frozen=True)
class DegeneracySlope:
    """Slope b mu + a lambda, b > 0, gcd(|a|, b) = 1; the boundary slope
    pinned by a fractional twist c = a / b."""

    b: int
    a: int

    def __post_init__(self):
        if self.b <= 0:
            raise BadParameters(f"degeneracy slope needs b > 0, got {self.b}")
        if math.gcd(abs(self.a), self.b) != 1:
            raise BadParameters(
                f"degeneracy slope ({self.b}, {self.a}) is not in lowest terms"
            )

    @classmethod
    def from_twist(cls, c: Fraction | int) -> "DegeneracySlope":
        r = Fraction(c)
        return cls(r.denominator, r.numerator)


def slope_distance(s: SurgerySlope, d: DegeneracySlope) -> int:
    """Geometric intersection number of the two slopes: |n a - q b|."""
    return abs(s.n * d.a - s.q * d.b)


# ---------------------------------------------------------------------------
# shared builders


def _verdict(justifications, assumptions, notes, otherwise: str) -> Certificate:
    """Excellent on the applied rules when any applied; otherwise Unknown,
    with the reason ``otherwise`` after the notes."""
    if justifications:
        return Certificate(
            Verdict.EXCELLENT, tuple(justifications), tuple(assumptions), tuple(notes)
        )
    return Certificate(Verdict.UNKNOWN, (), tuple(assumptions), (*notes, otherwise))


def _gap_inequality(scale: int, p: int, q: int, v: FdtcValue) -> str | None:
    """Instantiated check that scale * |p * c - q| >= 1 holds for every c
    in the interval; None when it cannot be certified.  The product term
    pins both endpoints to the same side of the root q / p."""
    lo, hi = v.lo, v.hi
    holds = (
        scale * abs(p * lo - q) >= 1
        and scale * abs(p * hi - q) >= 1
        and (p * lo - q) * (p * hi - q) > 0
    )
    if not holds:
        return None
    return (
        f"{scale} * abs({p} * ({lo}) - ({q})) >= 1"
        f" and {scale} * abs({p} * ({hi}) - ({q})) >= 1"
        f" and ({p} * ({lo}) - ({q})) * ({p} * ({hi}) - ({q})) > 0"
    )


# ---------------------------------------------------------------------------
# fibred knots in integer homology spheres


_FIBRED_ASSUMPTIONS = (
    "K is a fibred hyperbolic knot in an integer homology sphere (asserted)",
)


def certify_fibred_cover(
    c_h: FdtcValue, n: int, q: int, genus: int | None = None
) -> Certificate:
    """Is q-surgery on the lifted binding in the n-fold cyclic branched
    cover of K excellent?

    Certifies when |n c(K) - q| >= 1 holds across the whole certified
    interval; with the fibre genus supplied and c(K) certified nonzero,
    also when q = 0 and n >= 2 (2 genus - 1), via the universal lower
    bound |c| >= 1 / (2 (2 genus - 1)) for pseudo-Anosov monodromies.
    """
    if n < 1:
        raise BadParameters(f"cover order must be >= 1, got {n}")
    if genus is not None and genus < 1:
        raise BadGenus(f"genus must be >= 1, got {genus}")

    justifications = []
    gap = _gap_inequality(1, n, q, c_h)
    if gap is not None:
        justifications.append(
            Justification(
                rule="cover-surgery-twist-gap",
                citation=(
                    "surgery along the lifted binding with slope (n, q) is"
                    " excellent when the fractional twist keeps distance"
                    " |n c - q| >= 1"
                ),
                inequality=gap,
            )
        )

    cmin = c_h.abs_lower_bound()
    if genus is not None and q == 0 and n >= 2 * (2 * genus - 1) and cmin > 0:
        justifications.append(
            Justification(
                rule="genus-twist-floor",
                citation=(
                    "0-surgery in the n-fold cover is excellent once"
                    " n >= 2 (2 genus - 1): a nonzero twist of a genus-g"
                    " pseudo-Anosov monodromy satisfies |c| >= 1 / (2 (2 g - 1))"
                ),
                inequality=(
                    f"({q}) == 0 and {n} >= 2 * (2 * {genus} - 1)"
                    f" and {cmin} > 0"
                ),
            )
        )

    return _verdict(
        justifications, _FIBRED_ASSUMPTIONS, (),
        f"certified twist data allows |{n} c - {q}| < 1; no rule applies",
    )


def excluded_q(c_h: Fraction | int, n: int) -> frozenset[int]:
    """The q values the twist-gap rule can never certify for this exact
    twist: {n c} when n c is an integer, else the two integers around it."""
    if n < 1:
        raise BadParameters(f"cover order must be >= 1, got {n}")
    nc = n * Fraction(c_h)
    if nc.denominator == 1:
        return frozenset({int(nc)})
    return frozenset({math.floor(nc), math.floor(nc) + 1})


def certify_orbifold_cover(c_h: FdtcValue, p: int, q: int, m: int) -> Certificate:
    """Excellence of the (p, q) orbifold surgery with multiplicity m on
    the lifted binding: certified when m |p c(K) - q| >= 1."""
    if p < 1:
        raise BadParameters(f"slope numerator p must be >= 1, got {p}")
    if m < 1:
        raise BadParameters(f"multiplicity must be >= 1, got {m}")
    if math.gcd(p, abs(q)) != 1:
        raise BadParameters(f"slope ({p}, {q}) is not in lowest terms")

    gap = _gap_inequality(m, p, q, c_h)
    justifications = () if gap is None else (
        Justification(
            rule="orbifold-twist-gap",
            citation=(
                "the orbifold filling of multiplicity m along slope"
                " (p, q) is excellent when m |p c - q| >= 1"
            ),
            inequality=gap,
        ),
    )
    return _verdict(
        justifications, _FIBRED_ASSUMPTIONS, (),
        f"certified twist data allows {m} |{p} c - {q}| < 1; no rule applies",
    )


# ---------------------------------------------------------------------------
# pseudo-Anosov type of a braid


#: Gate wording, (proved note, assertion, refusal on 3 strands, refusal
#: on other strand counts), for a closed braid and for a satellite pattern.
_BRAID_PA_GATE = (
    "pseudo-Anosov type proved by the 3-braid classification",
    "braid asserted pseudo-Anosov",
    "braid is not pseudo-Anosov by the 3-braid classification",
    "pseudo-Anosov type is only provable on 3 strands; assert it"
    " explicitly for other strand counts",
)
_PATTERN_PA_GATE = (
    "pattern pseudo-Anosov type proved by the 3-braid classification",
    "pattern braid asserted pseudo-Anosov",
    "pattern is not pseudo-Anosov by the 3-braid classification",
    "pattern pseudo-Anosov type must be asserted on more than 3 strands",
)


def _pa_gate(
    b: BraidWord,
    pa_asserted: bool,
    wording: tuple[str, str, str, str],
    assumptions: list[str],
    notes: list[str],
) -> Certificate | None:
    """Establish pseudo-Anosov type of b, or refuse.

    On 3 strands the classification proves it; failing that, and on any
    other strand count, only an assertion lets the certifier proceed.
    Records the proof or assertion in notes / assumptions and returns
    None, or returns the Unknown certificate that refuses."""
    proved, asserted, not_pa, must_assert = wording
    if b.strands == 3 and nt_type(normal_form(b)) is NTType.PSEUDO_ANOSOV:
        notes.append(proved)
        return None
    if pa_asserted:
        assumptions.append(asserted)
        if b.strands == 3:
            notes.append(
                "3-braid classification does not find pseudo-Anosov type;"
                " proceeding on the assertion"
            )
        return None
    return _verdict((), assumptions, (), not_pa if b.strands == 3 else must_assert)


# ---------------------------------------------------------------------------
# cyclic branched covers of closed braids


def certify_closed_braid_cover(
    b: BraidWord,
    t: int,
    pa_asserted: bool = False,
    tol: Fraction | int = Fraction(1, 12),
) -> Certificate:
    """Is the t-fold cyclic branched cover of the braid closure excellent?

    Two rules: even t for odd-strand braids with certified |c| >= 2, and
    factorisations t = n k with 2 <= n <= |c| and n coprime to the
    strand count.  Pseudo-Anosov type is proved by the classification on
    3 strands and must be asserted otherwise.
    """
    if t < 2:
        raise BadParameters(f"cover order must be >= 2, got {t}")
    m = b.strands

    assumptions: list[str] = []
    notes: list[str] = []
    refusal = _pa_gate(b, pa_asserted, _BRAID_PA_GATE, assumptions, notes)
    if refusal is not None:
        return refusal

    c = fdtc_interval(b, tol)
    cmin = c.abs_lower_bound()

    justifications = []
    if m % 2 == 1 and t % 2 == 0 and cmin >= 2:
        justifications.append(
            Justification(
                rule="even-cover",
                citation=(
                    "every even-order cyclic branched cover of the closure of"
                    " an odd-strand pseudo-Anosov braid with |c| >= 2 is"
                    " excellent"
                ),
                inequality=f"{cmin} >= 2 and {t} % 2 == 0 and {m} % 2 == 1",
            )
        )

    biggest = int(cmin)  # floor: cmin >= 0
    for n in range(2, biggest + 1):
        if t % n == 0 and math.gcd(m, n) == 1:
            k = t // n
            justifications.append(
                Justification(
                    rule="coprime-divisor-cover",
                    citation=(
                        "the (n k)-fold cyclic branched cover of a"
                        " pseudo-Anosov braid closure is excellent for"
                        " 2 <= n <= |c| with n coprime to the strand count"
                    ),
                    inequality=(
                        f"{t} == {n} * {k} and 2 <= {n} and {n} <= {cmin}"
                        f" and gcd({m}, {n}) == 1 and {k} >= 1"
                    ),
                )
            )
            break

    return _verdict(
        justifications, assumptions, notes,
        f"certified twist bound |c| >= {cmin} admits no qualifying cover order"
        f" dividing {t}",
    )


# ---------------------------------------------------------------------------
# genus-one fibred knots (3-braids via the double-cover dictionary)


_GENUS1_ASSUMPTIONS = (
    "h is the monodromy of a genus-one fibred knot, given as a 3-braid via"
    " the double-cover dictionary, in an irreducible ambient manifold"
    " (asserted)",
)


def _trichotomy_just(n: int) -> Justification:
    return Justification(
        rule="genus1-trichotomy",
        citation=(
            "an irreducible manifold with a genus-one one-boundary open book is"
            " excellent exactly when it is not an L-space, and a total L-space"
            " otherwise"
        ),
        inequality=f"{n} >= 2",
    )


def _periodic_residue(family: int, d: int, n: int) -> tuple[bool, str, str]:
    """L-space condition for the n-fold cover of the periodic family
    C^d sigma_1^-family sigma_2^-1.  Returns (is_lspace, inequality for
    the L-space side, inequality for its negation), instantiated."""
    modulus = 2 if family == 2 else 3
    k, r = divmod(n, modulus)
    base = 2 * k if family == 3 else k
    nd = n * d
    if r == 0:
        is_l = nd in (base - 1, base + 1)
        pos = f"{n} * ({d}) == {base} - 1 or {n} * ({d}) == {base} + 1"
        neg = f"{n} * ({d}) != {base} - 1 and {n} * ({d}) != {base} + 1"
        return is_l, pos, neg
    lo = base if (family == 3 and r == 2) else base - 1
    hi = lo + 3
    is_l = lo <= nd <= hi
    pos = f"{lo} <= {n} * ({d}) <= {hi}"
    neg = f"{n} * ({d}) < {lo} or {n} * ({d}) > {hi}"
    return is_l, pos, neg


def certify_genus1_cover(h: BraidWord, n: int) -> Certificate:
    """Verdict for the n-fold cyclic branched cover of a genus-one
    fibred knot with monodromy h (a 3-braid word in the two dual Dehn
    twists).  Every such cover is excellent or a total L-space; the
    normal form of h decides which.

    Raises SplitBinding when the reducible family has no full twist
    (d = 0): the braid closure is then a split link (or the trivial
    braid), the open book is reducible, and the dichotomy does not
    apply.
    """
    if n < 2:
        raise BadParameters(f"cover order must be >= 2, got {n}")
    nf = normal_form(h)
    d = nf.central_power

    if isinstance(nf, PseudoAnosovForm) and d == 0:
        verdict = Verdict.TOTAL_L_SPACE
        why = Justification(
            rule="genus1-pa-zero-twist",
            citation=(
                "pseudo-Anosov genus-one monodromy with zero"
                " fractional twist: every cyclic branched cover of"
                " the binding is an L-space"
            ),
            inequality=f"({d}) == 0 and {n} >= 2",
        )
    elif isinstance(nf, PseudoAnosovForm):
        verdict = Verdict.EXCELLENT
        why = Justification(
            rule="genus1-pa-nonzero-twist",
            citation=(
                "pseudo-Anosov genus-one monodromy with full-twist"
                " power d != 0: the n-th power has twist n d of"
                " magnitude >= 2, so the cover is excellent"
            ),
            inequality=f"abs({n} * ({d})) >= 2",
        )
    elif isinstance(nf, ReducibleForm):
        if d == 0:
            raise SplitBinding(
                "reducible monodromy with no full twist: the binding is a"
                " split closure and the cover dichotomy does not apply"
            )
        verdict = Verdict.EXCELLENT
        why = Justification(
            rule="genus1-reducible-twisted",
            citation=(
                "reducible genus-one monodromy with full-twist power"
                " d != 0: the n-th power has |n d| >= 2, outside the"
                " L-space range of the reducible family"
            ),
            inequality=f"abs({n} * ({d})) >= 2",
        )
    else:
        assert isinstance(nf, PeriodicForm)
        family = -nf.sigma1_power
        is_l, pos, neg = _periodic_residue(family, d, n)
        verdict = Verdict.TOTAL_L_SPACE if is_l else Verdict.EXCELLENT
        why = Justification(
            rule="genus1-periodic-residue",
            citation=(
                f"periodic family sigma_1^{nf.sigma1_power} sigma_2^-1 with d"
                f" full twists: the n-fold cover is an L-space exactly when"
                f" n d sits in the residue window of n modulo"
                f" {2 if family == 2 else 3}"
            ),
            inequality=pos if is_l else neg,
        )
    return Certificate(verdict, (why, _trichotomy_just(n)), _GENUS1_ASSUMPTIONS)


# ---------------------------------------------------------------------------
# satellites


def certify_satellite(
    pattern: BraidWord,
    n: int,
    c_companion: FdtcValue,
    companion_exact_zero: bool = False,
    pa_asserted: bool = False,
) -> Certificate:
    """Excellence of the n-fold cyclic branched cover of a satellite
    link: the pattern is a closed braid in the companion solid torus,
    the companion a fibred hyperbolic knot with the given certified
    fractional twist.

    Rules, all needing n coprime to the pattern's strand count: exact
    companion twist zero; companion twist certified away from zero with
    n >= 2 / |c|; or both the pattern braid Dehornoy-nonnegative and the
    companion twist certified nonnegative.
    """
    if n < 2:
        raise BadParameters(f"cover order must be >= 2, got {n}")
    m = pattern.strands

    assumptions = [
        "companion is a fibred hyperbolic knot in an integer homology sphere"
        " (asserted)",
    ]
    notes: list[str] = []
    refusal = _pa_gate(pattern, pa_asserted, _PATTERN_PA_GATE, assumptions, notes)
    if refusal is not None:
        return refusal

    if math.gcd(m, n) != 1:
        return _verdict(
            (), assumptions, (),
            f"cover order {n} shares a factor with the braid index {m};"
            " no rule applies",
        )

    justifications = []
    if companion_exact_zero or (c_companion.is_exact and c_companion.lo == 0):
        if companion_exact_zero:
            assumptions.append("companion fractional twist asserted exactly zero")
        justifications.append(
            Justification(
                rule="satellite-zero-twist-companion",
                citation=(
                    "satellite with companion monodromy of fractional twist"
                    " exactly zero: every cover order coprime to the braid"
                    " index is excellent"
                ),
                inequality=f"gcd({m}, {n}) == 1",
            )
        )

    cmin = c_companion.abs_lower_bound()
    if cmin > 0 and n * cmin >= 2:
        justifications.append(
            Justification(
                rule="satellite-twist-threshold",
                citation=(
                    "satellite with companion twist certified nonzero:"
                    " cover orders n >= 2 / |c| coprime to the braid index"
                    " are excellent"
                ),
                inequality=(
                    f"gcd({m}, {n}) == 1 and {cmin} > 0"
                    f" and {n} * ({cmin}) >= 2"
                ),
            )
        )

    pattern_sign = sigma_sign(pattern)
    if pattern_sign is not OrderSign.NEGATIVE and c_companion.certifies_nonnegative():
        justifications.append(
            Justification(
                rule="satellite-nonnegative-twists",
                citation=(
                    "pattern braid Dehornoy-nonnegative (so its twist is"
                    " >= 0) and companion twist certified >= 0: all cover"
                    " orders >= 2 coprime to the braid index are excellent"
                ),
                inequality=(
                    f"gcd({m}, {n}) == 1 and ({c_companion.lo}) >= 0"
                    f" and {n} >= 2"
                ),
            )
        )

    return _verdict(
        justifications, assumptions, notes,
        "no satellite rule applies to the certified twist data",
    )
