"""The braid word problem and the Dehornoy sign in integer arithmetic:
Dynnikov coordinates.

The braid group on ``m`` strands acts on integer points by
piecewise-linear maps (Dehornoy, Dynnikov, Rolfsen and Wiest, *Ordering
Braids*, 2008, ch. XII; Dehornoy, "Efficient solutions to the braid
isotopy problem", 2008), and a word is the identity exactly when it
fixes the start point ``(0, 1, ..., 0, 1)``; where it moves the point
to says which sign it has (:func:`sign`).  Deciding either costs one
pass over the word; each letter adds a bounded number of bits to the
coordinates, so their size grows at most linearly with the word's
length.  No word is rewritten, so no working length can outgrow the
handle-reduction budget.

Every sigma_i acts by the same formulas on pairs ``i`` and ``i + 1``
(see :func:`act`), so a word whose highest generator is ``top`` is
walked on ``top + 1`` pairs, however many strands it is read on: the
pairs above stay at (0, 1).  With these formulas the full twist
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


def free_reduce(letters: Iterable[int]) -> list[int]:
    """The word with every adjacent pair x, -x cancelled, until none is
    left."""
    out: list[int] = []
    push, pop = out.append, out.pop
    top = 0  # last letter of out; 0 when out is empty, as no letter is 0
    for x in letters:
        if top == -x:
            pop()
            top = out[-1] if out else 0
        else:
            push(x)
            top = x
    return out


def sign(letters: Iterable[int], m: int) -> int:
    """Dehornoy sign of a word on m strands, -1, 0 or +1, read off its
    Dynnikov coordinates.

    The criterion (Dehornoy, Dynnikov, Rolfsen and Wiest, *Ordering
    Braids*, 2008, ch. XII; Dehornoy, "Efficient solutions to the braid
    isotopy problem", 2008): let p be the image of the start
    point s = (0, 1, ..., 0, 1) under the braid.  The braid is the
    identity when p = s, and otherwise has the sign of the first nonzero
    entry of p - s.

    It carries over to the m pairs used here.  A letter of B_m changes
    only pairs 1 .. m, and a pair at (0, 1) that no letter touches stays
    there, so walking the word with more pairs appended gives the same
    p - s followed by zeros: the answer does not depend on how many
    strands the word is read on, as the Dehornoy sign does not on the
    embedding of B_m in B_(m+1).  So the walk takes the fewest pairs,
    and m does not enter it.  On every word that the tests compare with
    both handle-reduction kernels, the first nonzero entry of p - s is
    also an a-entry, so the reading "the sign of the first nonzero a_i"
    gives the same answer there.

    Before any walk the word is freely reduced and screened as the
    kernels screen it: the empty word has sign 0, and a word whose
    lowest generator occurs with one sign only is sigma-definite, of
    that sign.
    """
    word = free_reduce(letters)
    if not word:
        return 0
    low = min(x if x > 0 else -x for x in word)
    positive, negative = low in word, -low in word
    if positive != negative:
        return 1 if positive else -1
    start = [0, 1] * (max(map(abs, word)) + 1)
    for x, y in zip(act(start, word), start):
        if x != y:
            return 1 if x > y else -1
    return 0


def is_trivial(letters: Sequence[int], m: int) -> bool:
    """Whether a word on m strands is the identity braid: whether it
    fixes the start point (0, 1, ..., 0, 1).  The strand-pair crossing
    counts (:func:`_strand_crossings`) come first: the identity's are
    all 0, so a word with any other count is refused without a walk.
    As for :func:`sign`, m does not enter either: both read the word on
    the strands that it reaches."""
    n = max(map(abs, letters), default=0) + 1
    if any(_strand_crossings(letters, n)):
        return False
    start = [0, 1] * n
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

