"""Certified verdicts for branched covers, surgeries and satellites.

Each certifier consumes exact rational twist data (and, where relevant,
a braid word) and returns a :class:`Certificate`: a verdict plus the
chain of rules that justify it.  Every justification carries the rule's
defining inequality *instantiated with the exact rationals used*, in a
tiny arithmetic grammar that the independent replay checker
(:mod:`braidcert.replay`) re-evaluates from scratch; each rule's
citation and inequality are stated once, as templates in ``_RULES``.
Definite verdicts
(Excellent, TotalLSpace) always carry at least one justification;
geometric hypotheses that cannot be checked from the input (fibredness,
hyperbolicity, irreducibility, pseudo-Anosov type on more than 3
strands) are consumed as explicit assertions and echoed back in the
certificate, never inferred silently; an assertion of pseudo-Anosov
type that a central root disproves is refused.

Verdict vocabulary: "excellent" means the manifold carries a co-oriented
taut foliation, has left-orderable fundamental group bundle, and is not
a Heegaard Floer L-space; "total L-space" is the opposite corner (an
L-space, not left-orderable, no such foliation).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from braidcert.braid import BraidWord
from braidcert.errors import BadParameters, SplitBinding, WordLengthExceeded
from braidcert.fdtc import (
    FdtcValue,
    check_tolerance,
    fdtc_interval,
    fdtc_lower_bound,
    fdtc_of_normal_form,
)
from braidcert.ordering import OrderSign, central_root, sigma_sign
from braidcert.threebraid import (
    PeriodicForm,
    PseudoAnosovForm,
    ReducibleForm,
    ThreeBraidNormalForm,
    normal_form,
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


# ---------------------------------------------------------------------------
# the rules and shared builders


#: The inequality of both twist-gap rules: scale * |p c - q| >= 1 at both
#: ends of the twist interval [lo, hi], and the product term pins both
#: ends to the same side of the root q / p.
_TWIST_GAP = (
    "{scale} * abs({p} * ({lo}) - ({q})) >= 1"
    " and {scale} * abs({p} * ({hi}) - ({q})) >= 1"
    " and ({p} * ({lo}) - ({q})) * ({p} * ({hi}) - ({q})) > 0"
)

#: Every certificate rule, stated once: rule id -> (citation, inequality),
#: two templates that :func:`_rule` fills in.  Whether a rule applies is
#: decided in the certifiers, never by evaluating these templates, so
#: replay's independent evaluation of the filled-in inequality checks
#: that decision.
_RULES = {
    "cover-surgery-twist-gap": (
        "surgery along the lifted binding with slope (n, q) is excellent"
        " when the fractional twist keeps distance |n c - q| >= 1",
        _TWIST_GAP,
    ),
    "genus-twist-floor": (
        "0-surgery in the n-fold cover is excellent once n >= 2 (2 genus - 1):"
        " a nonzero twist of a genus-g pseudo-Anosov monodromy satisfies"
        " |c| >= 1 / (2 (2 g - 1))",
        "({q}) == 0 and {n} >= 2 * (2 * {genus} - 1) and {cmin} > 0",
    ),
    "orbifold-twist-gap": (
        "the orbifold filling of multiplicity m along slope (p, q) is"
        " excellent when m |p c - q| >= 1",
        _TWIST_GAP,
    ),
    "even-cover": (
        "every even-order cyclic branched cover of the closure of an"
        " odd-strand pseudo-Anosov braid with |c| >= 2 is excellent",
        "{cmin} >= 2 and {t} % 2 == 0 and {m} % 2 == 1",
    ),
    "coprime-divisor-cover": (
        "the (n k)-fold cyclic branched cover of a pseudo-Anosov braid"
        " closure is excellent for 2 <= n <= |c| with n coprime to the"
        " strand count",
        "{t} == {n} * {k} and 2 <= {n} and {n} <= {cmin}"
        " and gcd({m}, {n}) == 1 and {k} >= 1",
    ),
    "genus1-trichotomy": (
        "an irreducible manifold with a genus-one one-boundary open book is"
        " excellent exactly when it is not an L-space, and a total L-space"
        " otherwise",
        "{n} >= 2",
    ),
    "genus1-pa-zero-twist": (
        "pseudo-Anosov genus-one monodromy with zero fractional twist: every"
        " cyclic branched cover of the binding is an L-space",
        "({d}) == 0 and {n} >= 2",
    ),
    "genus1-pa-nonzero-twist": (
        "pseudo-Anosov genus-one monodromy with full-twist power d != 0: the"
        " n-th power has twist n d of magnitude >= 2, so the cover is"
        " excellent",
        "abs({n} * ({d})) >= 2",
    ),
    "genus1-reducible-twisted": (
        "reducible genus-one monodromy with full-twist power d != 0: the n-th"
        " power has |n d| >= 2, outside the L-space range of the reducible"
        " family",
        "abs({n} * ({d})) >= 2",
    ),
    "genus1-periodic-residue": (
        "periodic family sigma_1^{power} sigma_2^-1 with d full twists: the"
        " n-fold cover is an L-space exactly when n d sits in the residue"
        " window of n modulo {modulus}",
        "{window}",  # the side of the window that holds: _periodic_residue
    ),
    "satellite-zero-twist-companion": (
        "satellite with companion monodromy of fractional twist exactly zero:"
        " every cover order coprime to the braid index is excellent",
        "gcd({m}, {n}) == 1",
    ),
    "satellite-twist-threshold": (
        "satellite with companion twist certified nonzero: cover orders"
        " n >= 2 / |c| coprime to the braid index are excellent",
        "gcd({m}, {n}) == 1 and {cmin} > 0 and {n} * ({cmin}) >= 2",
    ),
    "satellite-nonnegative-twists": (
        "pattern braid Dehornoy-nonnegative (so its twist is >= 0) and"
        " companion twist certified >= 0: all cover orders >= 2 coprime to"
        " the braid index are excellent",
        "gcd({m}, {n}) == 1 and ({lo}) >= 0 and {n} >= 2",
    ),
}


def _rule(rule_id: str, **values) -> Justification:
    """The justification of rule ``rule_id``, its citation and inequality
    filled in with ``values``."""
    citation, inequality = _RULES[rule_id]
    return Justification(rule_id, citation.format(**values),
                         inequality.format(**values))


def _verdict(justifications, assumptions, notes, otherwise: str) -> Certificate:
    """Excellent on the applied rules when any applied; otherwise Unknown,
    with the reason ``otherwise`` after the notes."""
    if justifications:
        return Certificate(
            Verdict.EXCELLENT, tuple(justifications), tuple(assumptions), tuple(notes)
        )
    return Certificate(Verdict.UNKNOWN, (), tuple(assumptions), (*notes, otherwise))


def _twist_gap(
    rule_id: str, scale: int, p: int, q: int, v: FdtcValue
) -> list[Justification]:
    """[the twist-gap rule's justification] when scale * |p c - q| >= 1
    holds for every c in the interval v, with both ends on one side of
    the root q / p; [] when that cannot be certified."""
    at_lo, at_hi = p * v.lo - q, p * v.hi - q
    if scale * abs(at_lo) >= 1 and scale * abs(at_hi) >= 1 and at_lo * at_hi > 0:
        return [_rule(rule_id, scale=scale, p=p, q=q, lo=v.lo, hi=v.hi)]
    return []


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
    bound |c| >= 1 / (2 (2 genus - 1)) for pseudo-Anosov monodromies
    (:func:`~braidcert.fdtc.fdtc_lower_bound`, which refuses a genus
    below 1).
    """
    if n < 1:
        raise BadParameters(f"cover order must be >= 1, got {n}")

    justifications = _twist_gap("cover-surgery-twist-gap", 1, n, q, c_h)
    cmin = c_h.abs_lower_bound()
    if (genus is not None and n * fdtc_lower_bound(genus) >= 1
            and q == 0 and cmin > 0):
        justifications.append(
            _rule("genus-twist-floor", q=q, n=n, genus=genus, cmin=cmin))

    return _verdict(
        justifications, _FIBRED_ASSUMPTIONS, (),
        f"certified twist data allows |{n} c - {q}| < 1; no rule applies",
    )


def certify_orbifold_cover(c_h: FdtcValue, p: int, q: int, m: int) -> Certificate:
    """Excellence of the (p, q) orbifold surgery with multiplicity m on
    the lifted binding: certified when m |p c(K) - q| >= 1."""
    if p < 1:
        raise BadParameters(f"slope numerator p must be >= 1, got {p}")
    if m < 1:
        raise BadParameters(f"multiplicity must be >= 1, got {m}")
    if math.gcd(p, abs(q)) != 1:
        raise BadParameters(f"slope ({p}, {q}) is not in lowest terms")

    return _verdict(
        _twist_gap("orbifold-twist-gap", m, p, q, c_h), _FIBRED_ASSUMPTIONS, (),
        f"certified twist data allows {m} |{p} c - {q}| < 1; no rule applies",
    )


# ---------------------------------------------------------------------------
# pseudo-Anosov type of a braid


#: Gate wording, (proved note, assertion, refusal as not pseudo-Anosov,
#: refusal on other strand counts), for a closed braid and for a
#: satellite pattern.
_TWO_STRANDS_PERIODIC = (
    "no 2-braid is pseudo-Anosov: B_2 is generated by sigma_1, and"
    " sigma_1^2 = Delta^2 is central, so every 2-braid is periodic"
)
_BRAID_PA_GATE = (
    "pseudo-Anosov type proved by the 3-braid classification",
    "braid asserted pseudo-Anosov",
    "braid is not pseudo-Anosov",
    "pseudo-Anosov type is only provable on 3 strands; assert it"
    " explicitly for other strand counts",
)
_PATTERN_PA_GATE = (
    "pattern pseudo-Anosov type proved by the 3-braid classification",
    "pattern braid asserted pseudo-Anosov",
    "pattern is not pseudo-Anosov",
    "pattern pseudo-Anosov type must be asserted on more than 3 strands",
)


def _pa_gate(
    b: BraidWord,
    nf: ThreeBraidNormalForm | None,
    pa_asserted: bool,
    wording: tuple[str, str, str, str],
    assumptions: list[str],
    notes: list[str],
) -> Certificate | None:
    """Establish pseudo-Anosov type of b, or refuse; nf is b's normal
    form on 3 strands, and None on others.

    No 2-braid is pseudo-Anosov, so on 2 strands the gate refuses even
    an assertion.  On 3 strands the classification proves it; failing
    that, and on 4 or more strands, only an assertion lets the certifier
    proceed.  On 4 or more strands the gate first asks
    :func:`~braidcert.ordering.central_root` for a root b^q = delta^(2p):
    every periodic braid has one with q = m or m - 1, so a root found
    refutes the assertion and the gate refuses.  When that test would
    build a power past the letter cap the gate proceeds on the assertion
    and notes that periodicity went untested.  Records the proof or
    assertion in notes / assumptions and returns None, or returns the
    Unknown certificate that refuses."""
    proved, asserted, not_pa, must_assert = wording
    m = b.strands
    if m == 2:
        return _verdict((), assumptions, (), _TWO_STRANDS_PERIODIC)
    if isinstance(nf, PseudoAnosovForm):
        notes.append(proved)
        return None
    if not pa_asserted:
        return _verdict((), assumptions, (), f"{not_pa} by the 3-braid classification"
                        if m == 3 else must_assert)
    if m == 3:
        notes.append("3-braid classification does not find pseudo-Anosov type;"
                     " proceeding on the assertion")
    else:
        try:
            root = central_root(b, m)
        except WordLengthExceeded as exc:
            notes.append(f"periodicity not tested ({exc}); proceeding on the"
                         " assertion")
        else:
            if root is not None:
                q, p = root
                return _verdict((), assumptions, (), f"{not_pa}, though asserted:"
                                f" it is periodic, b^{q} = Delta^{2 * p}")
    assumptions.append(asserted)
    return None


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
    3 strands and must be asserted on more; a 2-braid is never
    pseudo-Anosov.  A bad tol is refused up front, as the twist of b
    would refuse it, even where the gate then computes no twist.  On 3
    strands the normal form the gate computes also gives the twist.
    """
    if t < 2:
        raise BadParameters(f"cover order must be >= 2, got {t}")
    m = b.strands
    check_tolerance(m, tol)

    assumptions: list[str] = []
    notes: list[str] = []
    nf = normal_form(b) if m == 3 else None
    refusal = _pa_gate(b, nf, pa_asserted, _BRAID_PA_GATE, assumptions, notes)
    if refusal is not None:
        return refusal

    cmin = (abs(fdtc_of_normal_form(nf)) if nf is not None
            else fdtc_interval(b, tol).abs_lower_bound())

    justifications = []
    if m % 2 == 1 and t % 2 == 0 and cmin >= 2:
        justifications.append(_rule("even-cover", cmin=cmin, t=t, m=m))

    biggest = int(cmin)  # floor: cmin >= 0
    for n in range(2, biggest + 1):
        if t % n == 0 and math.gcd(m, n) == 1:
            justifications.append(_rule("coprime-divisor-cover",
                                        t=t, n=n, k=t // n, cmin=cmin, m=m))
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


def _periodic_residue(family: int, modulus: int, d: int, n: int) -> tuple[bool, str]:
    """L-space condition for the n-fold cover of the periodic family
    C^d sigma_1^-family sigma_2^-1, whose window repeats modulo modulus.
    Returns (is_lspace, the inequality of the side that holds),
    instantiated."""
    k, r = divmod(n, modulus)
    base = 2 * k if family == 3 else k
    nd = n * d
    if r == 0:
        if nd in (base - 1, base + 1):
            return True, f"{n} * ({d}) == {base} - 1 or {n} * ({d}) == {base} + 1"
        return False, f"{n} * ({d}) != {base} - 1 and {n} * ({d}) != {base} + 1"
    lo = base if (family == 3 and r == 2) else base - 1
    hi = lo + 3
    if lo <= nd <= hi:
        return True, f"{lo} <= {n} * ({d}) <= {hi}"
    return False, f"{n} * ({d}) < {lo} or {n} * ({d}) > {hi}"


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

    if isinstance(nf, PseudoAnosovForm):
        verdict = Verdict.TOTAL_L_SPACE if d == 0 else Verdict.EXCELLENT
        why = _rule("genus1-pa-zero-twist" if d == 0 else "genus1-pa-nonzero-twist",
                    d=d, n=n)
    elif isinstance(nf, ReducibleForm):
        if d == 0:
            raise SplitBinding(
                "reducible monodromy with no full twist: the binding is a"
                " split closure and the cover dichotomy does not apply"
            )
        verdict = Verdict.EXCELLENT
        why = _rule("genus1-reducible-twisted", d=d, n=n)
    else:
        assert isinstance(nf, PeriodicForm)
        family = -nf.sigma1_power
        modulus = 2 if family == 2 else 3
        is_l, window = _periodic_residue(family, modulus, d, n)
        verdict = Verdict.TOTAL_L_SPACE if is_l else Verdict.EXCELLENT
        why = _rule("genus1-periodic-residue", power=nf.sigma1_power,
                    modulus=modulus, window=window)
    return Certificate(verdict, (why, _rule("genus1-trichotomy", n=n)),
                       _GENUS1_ASSUMPTIONS)


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
    nf = normal_form(pattern) if m == 3 else None
    refusal = _pa_gate(pattern, nf, pa_asserted, _PATTERN_PA_GATE, assumptions,
                       notes)
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
        justifications.append(_rule("satellite-zero-twist-companion", m=m, n=n))

    cmin = c_companion.abs_lower_bound()
    if cmin > 0 and n * cmin >= 2:
        justifications.append(
            _rule("satellite-twist-threshold", m=m, n=n, cmin=cmin))

    pattern_sign = sigma_sign(pattern)
    if pattern_sign is not OrderSign.NEGATIVE and c_companion.certifies_nonnegative():
        justifications.append(
            _rule("satellite-nonnegative-twists", m=m, n=n, lo=c_companion.lo))

    return _verdict(
        justifications, assumptions, notes,
        "no satellite rule applies to the certified twist data",
    )
