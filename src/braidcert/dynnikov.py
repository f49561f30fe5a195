"""The braid word problem in integer arithmetic: Dynnikov coordinates.

The braid group on ``m`` strands acts on integer points by
piecewise-linear maps (Dehornoy, Dynnikov, Rolfsen and Wiest, *Ordering
Braids*, 2008, ch. XII; Dehornoy, "Efficient solutions to the braid
isotopy problem", 2008), and a word is the identity exactly when it
fixes the start point ``(0, 1, ..., 0, 1)``.  Deciding this costs one
pass over the word; each letter adds a bounded number of bits to the
coordinates, so their size grows at most linearly with the word's
length.  No word is rewritten, so no working length can outgrow the
handle-reduction budget.

Here ``m`` strands use ``m`` coordinate pairs, and every sigma_i acts by
the same formulas on pairs ``i`` and ``i + 1`` (see :func:`act`), so
sigma_(m-1) needs the m-th pair.  With these formulas the full twist
delta^2, which is central, moves the start point, as a nontrivial braid
must.  Before any walk, :func:`is_trivial` screens the word by its
strand-pair crossing counts, which refuse most nontrivial words in one
cheap pass.
"""

from __future__ import annotations

from typing import Iterable, Sequence


def act(point: Sequence[int], letters: Iterable[int]) -> list[int]:
    """The image of a point (a_1, b_1, ..., a_m, b_m) under a word on m
    strands, letters acting left to right.  sigma_i^(+-1) changes only
    (a, b) = (a_i, b_i) and (c, d) = (a_(i+1), b_(i+1)); with
    x+ = max(x, 0) and x- = min(x, 0):

        sigma_i:    z = a - b- - c + d+,
                    (a + b+ + (d+ - z)+, d - z+, c + d- + (b- + z)-, b + z+);
        sigma_i^-1: z = a + b- - c - d+,
                    (a - b+ - (d+ + z)+, d + z-, c - d- - (b- - z)-, b - z-).
    """
    point = list(point)
    for x in letters:
        if x > 0:
            j = 2 * x - 2
            a, b, c, d = point[j], point[j + 1], point[j + 2], point[j + 3]
            if b > 0:
                bp, bm = b, 0
            else:
                bp, bm = 0, b
            if d > 0:
                dp, dm = d, 0
            else:
                dp, dm = 0, d
            z = a - bm - c + dp
            zp = z if z > 0 else 0
            e, g = dp - z, bm + z
            point[j] = a + bp + (e if e > 0 else 0)
            point[j + 1] = d - zp
            point[j + 2] = c + dm + (g if g < 0 else 0)
            point[j + 3] = b + zp
        else:
            j = -2 * x - 2
            a, b, c, d = point[j], point[j + 1], point[j + 2], point[j + 3]
            if b > 0:
                bp, bm = b, 0
            else:
                bp, bm = 0, b
            if d > 0:
                dp, dm = d, 0
            else:
                dp, dm = 0, d
            z = a + bm - c - dp
            zm = z if z < 0 else 0
            e, g = dp + z, bm - z
            point[j] = a - bp - (e if e > 0 else 0)
            point[j + 1] = d + zm
            point[j + 2] = c - dm - (g if g < 0 else 0)
            point[j + 3] = b - zm
    return point


def is_trivial(letters: Sequence[int], m: int) -> bool:
    """Whether a word on m strands is the identity braid: whether it
    fixes the start point (0, 1, ..., 0, 1).  The strand-pair crossing
    counts (:func:`_strand_crossings`) come first: the identity's are
    all 0, so a word with any other count is refused without a walk."""
    if any(_strand_crossings(letters, m)):
        return False
    start = [0, 1] * m
    return act(start, letters) == start


def _strand_crossings(letters: Sequence[int], m: int) -> list[int]:
    """Signed crossing counts of a word on m strands, numbered 0 .. m-1
    by where they start: item a * m + c, a < c, is how often strands a
    and c cross, each crossing counted with the sign of its letter.

    These counts depend only on the braid, as each defining relation
    keeps them and leaves the strands in the same places: free
    cancellation removes a +1 and a -1 for the same pair;
    sigma_i sigma_j = sigma_j sigma_i, |i - j| >= 2, crosses the same
    two disjoint pairs in either order; and both sides of
    sigma_i sigma_(i+1) sigma_i = sigma_(i+1) sigma_i sigma_(i+1) cross
    each pair of the three strands at positions i, i + 1, i + 2 once,
    with the same sign.
    """
    at = list(range(m))  # at[i]: the strand now at position i
    crossings = [0] * (m * m)
    for x in letters:
        i = (x if x > 0 else -x) - 1
        a, c = at[i], at[i + 1]
        crossings[a * m + c if a < c else c * m + a] += 1 if x > 0 else -1
        at[i], at[i + 1] = c, a
    return crossings

