"""Fractional Dehn twist coefficients (FDTC), exact and interval-certified.

The FDTC ``c(h)`` of a mapping class measures boundary twisting; it is
a conjugacy invariant, homogeneous (``c(h^n) = n c(h)``), equals 1 on
the boundary twist, and is additive on commuting elements.  For braids
(mapping classes of the punctured disc) it is computable:

* exactly on 3 strands, through the conjugacy classification of
  3-braids (:mod:`braidcert.threebraid`);
* to any tolerance on any strand count, through Dehornoy floors of
  powers: ``floor(b^k) <= |c(b^k)| = k |c(b)| <= floor(b^k) + 1`` pins
  ``|c(b)|`` inside an interval of width ``1/k``, and the Dehornoy sign
  of ``b`` fixes the sign of ``c(b)``.

All values are exact rationals (:class:`fractions.Fraction`); nothing
here ever rounds through floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from braidcert.braid import BraidWord
from braidcert.errors import BadGenus, BadParameters, NotThreeBraid
# dehornoy_floor is not called here any more but stays importable from
# this module, where callers and perfbench's tracer look it up.
from braidcert.ordering import (  # noqa: F401
    OrderSign,
    dehornoy_floor,
    power_floor,
    sigma_sign,
)
from braidcert.threebraid import (
    PeriodicForm,
    PseudoAnosovForm,
    ReducibleForm,
    normal_form,
)

#: FDTC of the periodic 3-braid families sigma_1^m sigma_2^-1 relative
#: to their full-twist part: these words satisfy w^3 = C^-1 (m = -1),
#: w^2 = C^-1 (m = -2), w^3 = C^-2 (m = -3), so homogeneity forces the
#: fractional parts below.
_PERIODIC_FRACTION = {
    -1: Fraction(-1, 3),
    -2: Fraction(-1, 2),
    -3: Fraction(-2, 3),
}


@dataclass(frozen=True)
class FdtcValue:
    """An exact value or a closed interval [lo, hi] certified to contain
    the FDTC.  Exact values are intervals with lo == hi."""

    lo: Fraction
    hi: Fraction
    provenance: str

    def __post_init__(self):
        if self.lo > self.hi:
            raise BadParameters(f"empty interval [{self.lo}, {self.hi}]")

    @classmethod
    def exact(cls, value: Fraction | int, provenance: str) -> "FdtcValue":
        r = Fraction(value)
        return cls(r, r, provenance)

    @classmethod
    def interval(
        cls, lo: Fraction | int, hi: Fraction | int, provenance: str
    ) -> "FdtcValue":
        return cls(Fraction(lo), Fraction(hi), provenance)

    @property
    def is_exact(self) -> bool:
        return self.lo == self.hi

    @property
    def value(self) -> Fraction:
        if not self.is_exact:
            raise BadParameters("interval value is not exact")
        return self.lo

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def contains(self, r: Fraction | int) -> bool:
        return self.lo <= r <= self.hi

    def abs_lower_bound(self) -> Fraction:
        """Largest x >= 0 with |c| >= x certified for every c in the
        interval (0 when the interval straddles zero)."""
        if self.lo > 0:
            return self.lo
        if self.hi < 0:
            return -self.hi
        return Fraction(0)

    def certifies_nonnegative(self) -> bool:
        return self.lo >= 0

    def __str__(self) -> str:
        if self.is_exact:
            return f"{self.lo}"
        return f"[{self.lo}, {self.hi}]"


def fdtc_exact_b3(b: BraidWord) -> Fraction:
    """Exact FDTC of a 3-braid via its conjugacy normal form.

    With C the full twist and d its exponent in the normal form: the
    pseudo-Anosov and reducible families have c = d, and the periodic
    families sigma_1^m sigma_2^-1 contribute the fixed fractional parts
    -1/3, -1/2, -2/3 for m = -1, -2, -3.
    """
    if b.strands != 3:
        raise NotThreeBraid(f"exact FDTC needs 3 strands, got {b.strands}")
    nf = normal_form(b)
    if isinstance(nf, (PseudoAnosovForm, ReducibleForm)):
        return Fraction(nf.central_power)
    assert isinstance(nf, PeriodicForm)
    return nf.central_power + _PERIODIC_FRACTION[nf.sigma1_power]


def fdtc_interval_by_floor(b: BraidWord, tol: Fraction | int) -> FdtcValue:
    """Interval of width <= tol around c(b) from the Dehornoy floor of
    the power b^k, k = ceil(1/tol).  Works on any strand count.

    The floor comes from :func:`~braidcert.ordering.power_floor`, which
    searches it through a central root of b when b is periodic and
    otherwise climbs a binary ladder of powers with one probe per step;
    the value is the same as ``dehornoy_floor(b**k)``."""
    t = Fraction(tol)
    if t <= 0:
        raise BadParameters(f"tolerance must be positive, got {t}")
    sign = sigma_sign(b)
    if sign is OrderSign.TRIVIAL:
        return FdtcValue.exact(0, "trivial braid")
    k = math.ceil(1 / t)
    floor = power_floor(b, k)
    prov = f"Dehornoy floor {floor} of the {k}-th power, twist bounds"
    if sign is OrderSign.POSITIVE:
        return FdtcValue.interval(Fraction(floor, k), Fraction(floor + 1, k), prov)
    return FdtcValue.interval(Fraction(-(floor + 1), k), Fraction(-floor, k), prov)


def fdtc_interval(b: BraidWord, tol: Fraction | int) -> FdtcValue:
    """Certified enclosure of c(b): exact on 3 strands (delegating to
    the conjugacy classification), floor-based interval otherwise."""
    t = Fraction(tol)
    if t <= 0:
        raise BadParameters(f"tolerance must be positive, got {t}")
    if b.strands == 3:
        return FdtcValue.exact(fdtc_exact_b3(b), "conjugacy classification of 3-braids")
    return fdtc_interval_by_floor(b, t)


def fdtc_lift(c_b: Fraction | int, m: int, n: int) -> Fraction:
    """FDTC of the lifted mapping class on the n-fold cyclic cover.

    For a braid on m strands with FDTC c(b), the lift of the associated
    mapping class to the n-fold cyclic branched cover has FDTC
    gcd(m, n) / n * c(b); the boundary of the cover is an
    n/gcd(m, n)-fold cover of the original boundary.
    """
    if m < 2:
        raise BadParameters(f"strand count must be >= 2, got {m}")
    if n < 1:
        raise BadParameters(f"cover order must be >= 1, got {n}")
    return Fraction(math.gcd(m, n), n) * Fraction(c_b)


def fdtc_lower_bound(genus: int) -> Fraction:
    """Universal positive lower bound on |c| for pseudo-Anosov
    monodromies of genus-g one-boundary surfaces with c != 0:
    |c| >= 1 / (2 (2g - 1)), from the Euler-Poincare formula."""
    if genus < 1:
        raise BadGenus(f"genus must be >= 1, got {genus}")
    return Fraction(1, 2 * (2 * genus - 1))
