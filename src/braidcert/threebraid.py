"""Conjugacy classification of 3-braids and the double-cover L-space list.

Every 3-braid is conjugate to exactly one of, with ``C`` the full twist
(the center of the group is generated by ``C``):

* pseudo-Anosov family:  ``C^d  sigma_1 sigma_2^-a1 ... sigma_1 sigma_2^-an``
  with all ``ai >= 0``, at least one positive (the ``ai`` sequence taken
  up to cyclic rotation);
* reducible family:      ``C^d  sigma_2^m``  (``m = 0`` is the central
  subfamily, flagged rather than given a Nielsen-Thurston label);
* periodic family:       ``C^d  sigma_1^m sigma_2^-1`` with
  ``m in {-1, -2, -3}``.

The classification is computed in the central quotient, which is the
free product Z/2 * Z/3 generated by the images ``x`` of the half twist
and ``y`` of ``sigma_1 sigma_2``.  Conjugacy there is decided by cyclic
reduction: finite-order classes are single letters, infinite-order
classes are alternating cycles whose ``y``-exponent pattern separates
the families (all 2s or all 1s: reducible; mixed: pseudo-Anosov, with
the runs of 1s giving back the ``ai``).  The full-twist exponent ``d``
is then recovered from the exponent sum, which drops by 6 per factor
of ``C``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum

from braidcert.braid import BraidWord, full_twist_letters
from braidcert.errors import NotThreeBraid

_X = 0  # image of the half twist, order 2
# y-letters are stored as their exponent, 1 or 2 (y has order 3)

#: Each letter's image as (e, x first): y^e x, or x y^e.
_LETTER_IMAGES = {
    1: (2, False),   # sigma_1      -> y^2 x
    -1: (1, True),   # sigma_1^-1   -> x y
    2: (2, True),    # sigma_2      -> x y^2
    -2: (1, False),  # sigma_2^-1   -> y x
}


class LSpaceStatus(Enum):
    L_SPACE = "LSpace"
    NOT_L_SPACE = "NotLSpace"


@dataclass(frozen=True)
class PseudoAnosovForm:
    """C^d prod_i (sigma_1 sigma_2^-a_i); twist_exponents is the a-list,
    stored as its lexicographically minimal cyclic rotation."""

    central_power: int
    twist_exponents: tuple[int, ...]


@dataclass(frozen=True)
class ReducibleForm:
    """C^d sigma_2^m.  sigma2_power == 0 means the braid is central."""

    central_power: int
    sigma2_power: int

    @property
    def central(self) -> bool:
        return self.sigma2_power == 0


@dataclass(frozen=True)
class PeriodicForm:
    """C^d sigma_1^m sigma_2^-1 with m in {-1, -2, -3}."""

    central_power: int
    sigma1_power: int


ThreeBraidNormalForm = PseudoAnosovForm | ReducibleForm | PeriodicForm


def _quotient_word(letters: tuple[int, ...]) -> list[int]:
    # Image in Z/2 * Z/3, freely reduced: x x cancels and y-exponents
    # add mod 3.  The word alternates x with y-powers, so each letter's
    # image, y^e x or x y^e, meets only its last entries.  A -1 under
    # the word stands for its start, so no step tests for an empty word.
    out = [-1]
    for letter in letters:
        e, x_first = _LETTER_IMAGES[letter]
        last = out[-1]
        if x_first:
            if last:  # a y-power or the start: no cancellation
                out += (_X, e)
                continue
            out.pop()  # x x
            last = out[-1]
            if last < 0:
                out.append(e)
            elif (last + e) % 3:
                out[-1] = (last + e) % 3
            else:
                out.pop()
        elif last > 0:  # y^last y^e
            if (last + e) % 3:
                out[-1] = (last + e) % 3
                out.append(_X)
            else:
                out.pop()
                if out[-1] == _X:  # x x
                    out.pop()
                else:
                    out.append(_X)
        else:  # after an x or at the start: no merge
            out += (e, _X)
    return out[1:]


def _cyclic_reduce(word: list[int]) -> list[int]:
    w = deque(word)
    while len(w) >= 2 and (w[0] == _X) == (w[-1] == _X):
        last = w.pop()
        first = w.popleft()
        if last == _X:
            continue  # x x annihilates
        e = (last + first) % 3
        if e:
            w.appendleft(e)
    return list(w)


def _min_rotation(a: tuple[int, ...]) -> tuple[int, ...]:
    # The least rotation in linear time.  i < j are the two candidate
    # starts, and their rotations agree on their first k entries.  If
    # entry k is larger at i, every start i + t, t <= k, is beaten by
    # j + t, so i moves past them; likewise for j.
    n, doubled = len(a), a + a
    i, j, k = 0, 1, 0
    while j < n and k < n:
        x, y = doubled[i + k], doubled[j + k]
        if x == y:
            k += 1
            continue
        if x > y:
            i += k + 1
        else:
            j += k + 1
        if i == j:
            j += 1
        i, j, k = min(i, j), max(i, j), 0
    return doubled[i:i + n]


def normal_form(b: BraidWord) -> ThreeBraidNormalForm:
    """Conjugacy normal form of a 3-braid.

    Two 3-braids are conjugate exactly when their normal forms are
    equal: the cyclic word in the central quotient plus the exponent
    sum determine the class, and the full-twist exponent is
    ``d = (exponent_sum(b) - exponent_sum(representative)) / 6``.
    """
    if b.strands != 3:
        raise NotThreeBraid(f"normal form needs 3 strands, got {b.strands}")
    e = b.exponent_sum
    cyc = _cyclic_reduce(_quotient_word(b.letters))

    if not cyc:
        return ReducibleForm(_central_power(e, 0), 0)
    if len(cyc) == 1:
        sigma1_power = {_X: -2, 2: -1, 1: -3}[cyc[0]]
        return PeriodicForm(_central_power(e, sigma1_power - 1), sigma1_power)

    exps = [v for v in cyc if v != _X]
    if len(exps) * 2 != len(cyc):
        raise RuntimeError(f"internal: quotient word not alternating: {cyc}")
    if all(v == 2 for v in exps):
        m = len(exps)
        return ReducibleForm(_central_power(e, m), m)
    if all(v == 1 for v in exps):
        m = -len(exps)
        return ReducibleForm(_central_power(e, m), m)

    # Mixed exponents: pseudo-Anosov.  Each 2 is a sigma_1, each run of
    # 1s after it is that syllable's sigma_2^-a exponent.
    starts = [i for i, v in enumerate(exps) if v == 2]
    a: list[int] = []
    for idx, p in enumerate(starts):
        nxt = starts[idx + 1] if idx + 1 < len(starts) else starts[0] + len(exps)
        a.append(nxt - p - 1)
    n = len(starts)
    return PseudoAnosovForm(
        _central_power(e, n - sum(a)), _min_rotation(tuple(a))
    )


def _central_power(e: int, e_rep: int) -> int:
    d, r = divmod(e - e_rep, 6)
    if r:
        raise RuntimeError(
            f"internal: exponent sum {e} not congruent to {e_rep} mod 6"
        )
    return d


def representative(nf: ThreeBraidNormalForm) -> BraidWord:
    """The normal form spelled out as a braid word C^d * family word."""
    letters = list(full_twist_letters(3, nf.central_power))
    if isinstance(nf, PseudoAnosovForm):
        for a in nf.twist_exponents:
            letters.append(1)
            letters.extend([-2] * a)
    elif isinstance(nf, ReducibleForm):
        letters.extend([2 if nf.sigma2_power > 0 else -2] * abs(nf.sigma2_power))
    else:
        letters.extend([-1] * (-nf.sigma1_power))
        letters.append(-2)
    return BraidWord(3, tuple(letters))


@dataclass(frozen=True)
class Mat2:
    """2x2 integer matrix [[a, b], [c, d]]."""

    a: int
    b: int
    c: int
    d: int

    @classmethod
    def identity(cls) -> "Mat2":
        return cls(1, 0, 0, 1)

    def __mul__(self, o: "Mat2") -> "Mat2":
        return Mat2(
            self.a * o.a + self.b * o.c,
            self.a * o.b + self.b * o.d,
            self.c * o.a + self.d * o.c,
            self.c * o.b + self.d * o.d,
        )

    @property
    def trace(self) -> int:
        return self.a + self.d


_SL2_IMAGES = {
    1: Mat2(1, 1, 0, 1),
    -1: Mat2(1, -1, 0, 1),
    2: Mat2(1, 0, -1, 1),
    -2: Mat2(1, 0, 1, 1),
}


def sl2_image(b: BraidWord) -> Mat2:
    """Image of a 3-braid in SL(2, Z) (the reduced Burau representation
    at t = -1): sigma_1 -> [[1,1],[0,1]], sigma_2 -> [[1,0],[-1,1]].

    The full twist maps to -identity, so the projective image detects
    the Nielsen-Thurston type: |trace| > 2 exactly for pseudo-Anosov
    classes, and periodic classes have projective order dividing 6.
    Used as an independent cross-check of :func:`normal_form`.
    """
    if b.strands != 3:
        raise NotThreeBraid(f"SL(2, Z) image needs 3 strands, got {b.strands}")
    m = Mat2.identity()
    for letter in b.letters:
        m = m * _SL2_IMAGES[letter]
    return m


#: Full-twist exponents d for which C^d * (family word) has an L-space
#: double branched cover, per the classification of 3-braids with that
#: property: pseudo-Anosov family d in {-1, 0, 1}; reducible family
#: d = +-1; periodic family d in {-1, 0, 1, 2}.
_LSPACE_D = {
    PseudoAnosovForm: (-1, 0, 1),
    ReducibleForm: (-1, 1),
    PeriodicForm: (-1, 0, 1, 2),
}


def baldwin_lspace_double_cover(nf: ThreeBraidNormalForm) -> LSpaceStatus:
    """Is the double branched cover of the closure an L-space?

    Decided from the conjugacy normal form alone via the published
    classification (Baldwin) of 3-braids whose closure has an L-space
    double branched cover.
    """
    if nf.central_power in _LSPACE_D[type(nf)]:
        return LSpaceStatus.L_SPACE
    return LSpaceStatus.NOT_L_SPACE
