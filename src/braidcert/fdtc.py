"""Fractional Dehn twist coefficients (FDTC), exact and interval-certified.

The FDTC ``c(h)`` of a mapping class measures boundary twisting; it is
a conjugacy invariant, homogeneous (``c(h^n) = n c(h)``), equals 1 on
the boundary twist, and is additive on commuting elements.  For braids
(mapping classes of the punctured disc) it is computable:

* exactly on 3 strands, through the conjugacy classification of
  3-braids (:mod:`braidcert.threebraid`): ``c = d`` for the
  pseudo-Anosov and reducible forms ``delta^(2d) w``, and for a periodic
  braid, a root of ``b^q = delta^(2p)``, homogeneity gives
  ``c = p/q = e(b)/6`` with ``e`` the exponent sum, which the periodic
  form ``delta^(2d) sigma_1^m sigma_2^-1`` gives as
  ``c = (6d + m - 1)/6``: the normal form alone decides the twist;
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

from braidcert.braid import MAX_WORD_LETTERS, BraidWord
from braidcert.errors import BadGenus, BadParameters, NotThreeBraid
# dehornoy_floor is not called here any more but stays importable from
# this module, where callers and perfbench's tracer look it up.
from braidcert.ordering import (  # noqa: F401
    OrderSign,
    dehornoy_floor,
    power_floor,
)
from braidcert.threebraid import PeriodicForm, ThreeBraidNormalForm, normal_form


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


def fdtc_of_normal_form(nf: ThreeBraidNormalForm) -> Fraction:
    """Exact FDTC of a 3-braid from its conjugacy normal form alone.

    With C = delta^2 the full twist and d its exponent in the normal
    form, the pseudo-Anosov and reducible families have c = d.  A
    periodic b has a root b^q = delta^(2p), q >= 1, so homogeneity and
    c(delta^2) = 1 give c = p / q; the exponent sum e is a homomorphism
    with e(delta^2) = 6, so q e(b) = 6 p, and c = e(b) / 6.  As e is a
    conjugacy invariant, it is that of the form C^d sigma_1^m sigma_2^-1,
    6 d + m - 1.
    """
    if isinstance(nf, PeriodicForm):
        return Fraction(6 * nf.central_power + nf.sigma1_power - 1, 6)
    return Fraction(nf.central_power)


def fdtc_exact_b3(b: BraidWord) -> Fraction:
    """Exact FDTC of a 3-braid, from the normal form of its conjugacy
    class (:func:`fdtc_of_normal_form`)."""
    if b.strands != 3:
        raise NotThreeBraid(f"exact FDTC needs 3 strands, got {b.strands}")
    return fdtc_of_normal_form(normal_form(b))


def _positive(tol: Fraction | int) -> Fraction:
    t = Fraction(tol)
    if t <= 0:
        raise BadParameters(f"tolerance must be positive, got {t}")
    return t


def _floor_power(tol: Fraction | int) -> int:
    """The power k = ceil(1/tol) of a floor-based interval, for a tol
    that keeps k within the letter cap."""
    k = math.ceil(1 / _positive(tol))
    if k > MAX_WORD_LETTERS:
        raise BadParameters(f"tolerance must be at least 1/{MAX_WORD_LETTERS}, so"
                            f" that the power k = ceil(1/tol) stays within the"
                            f" letter cap")
    return k


def fdtc_interval_by_floor(b: BraidWord, tol: Fraction | int) -> FdtcValue:
    """Interval of width <= tol around c(b) from the Dehornoy floor of
    the power b^k, k = ceil(1/tol).  Works on any strand count.

    The floor comes from :func:`~braidcert.ordering.power_floor`, which
    searches it through a central root of b when b is periodic and
    otherwise climbs a binary ladder of powers with one probe per step;
    the value is the same as ``dehornoy_floor(b**k)``.  It also gives the
    sign of b, which fixes the sign of c(b): the sign of p in the root
    b^q = delta^(2p), which asks no query, or else the one sign query
    that orients the ladder's probes.  The identity answers 0 under any
    letter cap or reduction budget: power_floor decides it first, by one
    Dynnikov walk of b, with no power and no kernel query.  Any other b is
    refused for a power past the letter cap before any kernel work, and
    for a kernel query past the budget when that query is asked.  Both
    routes work on a twist-free rotation of b's cyclic core: the longest
    run of whole full twists is peeled off it, and as delta^2 is central
    only the twist counts of the queries change.  One probe object
    answers the search for the floor of b and every ladder step; in the
    pure-Python build it walks Dynnikov coordinates on from the last
    probe's image, so each letter of the power and its twists is walked
    once, and a root test walks the power of the twist-free core against
    a cached image of the full twists.

    A tolerance below 1/MAX_WORD_LETTERS is refused: the power of any
    nonempty word would pass the letter cap, and k itself could be too
    long to print."""
    k = _floor_power(tol)
    sign, floor = power_floor(b, k)
    if sign is OrderSign.TRIVIAL:
        return FdtcValue.exact(0, "trivial braid")
    prov = f"Dehornoy floor {floor} of the {k}-th power, twist bounds"
    if sign is OrderSign.POSITIVE:
        return FdtcValue.interval(Fraction(floor, k), Fraction(floor + 1, k), prov)
    return FdtcValue.interval(Fraction(-(floor + 1), k), Fraction(-floor, k), prov)


def check_tolerance(strands: int, tol: Fraction | int) -> None:
    """Refuse tol as :func:`fdtc_interval` refuses it for a braid on
    this many strands: it must be positive, and where the twist comes
    from a floor, at least 1/MAX_WORD_LETTERS."""
    if strands == 3:
        _positive(tol)
    else:
        _floor_power(tol)


def fdtc_interval(b: BraidWord, tol: Fraction | int) -> FdtcValue:
    """Certified enclosure of c(b): exact on 3 strands (delegating to
    the conjugacy classification), floor-based interval otherwise, where
    :func:`fdtc_interval_by_floor` checks the tolerance."""
    if b.strands != 3:
        return fdtc_interval_by_floor(b, tol)
    _positive(tol)
    return FdtcValue.exact(fdtc_exact_b3(b), "conjugacy classification of 3-braids")


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
