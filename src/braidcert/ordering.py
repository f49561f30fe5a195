"""The Dehornoy left order on braid groups.

A braid is *positive* in the Dehornoy order when it admits a word in
which the lowest-index generator that occurs at all occurs only
positively (a sigma-positive word).  Every nontrivial braid is either
positive or negative, and the order ``u < v  iff  u^-1 v`` is positive
is a left-invariant strict total order.

The sign is decided by the handle-reduction kernel: fully
handle-reduce the word; the empty word is the identity, otherwise the
lowest generator of the reduced word occurs with one sign only and that
sign is the answer.  Whether a word is trivial, a question that needs no
sign, is decided apart from the kernel, by Dynnikov coordinates
(:mod:`braidcert.dynnikov`).

The *floor* of a braid ``b`` counts full twists, using the Garside half
twist ``delta``:

    floor(b) = min { k >= 0 : delta^(-2k-2) < b < delta^(2k+2) }

It bounds the fractional Dehn twist coefficient ``c`` of the braid,
``floor(b) <= |c(b)| <= floor(b) + 1``, which is what makes rigorous
two-sided interval bounds on ``c`` computable from comparisons alone.
(Some authors define the floor as the largest ``t`` with
``delta^(2t) <= b``; the min-k form used here is what the twist bounds
above are stated for, and the two differ on braids between powers of
``delta^2``.)
"""

from __future__ import annotations

from enum import Enum
from functools import cache

from braidcert import _kernel, dynnikov
from braidcert.braid import MAX_WORD_LETTERS, BraidWord, delta
from braidcert.errors import BadParameters, StrandMismatch, WordLengthExceeded


class OrderSign(Enum):
    """Position of a braid relative to the identity in the Dehornoy order."""

    NEGATIVE = -1
    TRIVIAL = 0
    POSITIVE = 1


class Comparison(Enum):
    LESS = -1
    EQUAL = 0
    GREATER = 1


def sigma_sign(u: BraidWord) -> OrderSign:
    """Dehornoy sign of a braid: POSITIVE, TRIVIAL or NEGATIVE.

    Raises ReductionBudgetExceeded if handle reduction outgrows the
    working-length budget (BRAIDCERT_REDUCTION_BUDGET, else 10^6
    letters).
    """
    return OrderSign(_kernel.sign_of(u.letters, u.strands))


def compare(u: BraidWord, v: BraidWord) -> Comparison:
    """Compare two braids on the same strand count: u < v iff u^-1 v > 1."""
    if u.strands != v.strands:
        raise StrandMismatch(
            f"cannot compare braids on {u.strands} and {v.strands} strands"
        )
    word = tuple(-x for x in reversed(u.letters)) + v.letters
    # sign(u^-1 v) = +1 places u BELOW v in the order
    return Comparison(-_kernel.sign_of(word, u.strands))


def reduced_word(u: BraidWord) -> BraidWord:
    """A fully handle-reduced word equal to u in the braid group.

    The result is sigma-definite: empty, or its lowest generator occurs
    with a single sign.
    """
    return BraidWord(u.strands, tuple(_kernel.reduce_word(u.letters, u.strands)))


def _search_floor(u: BraidWord, positive: bool) -> int:
    """The floor of a nontrivial u of the given sign: gallop from a
    seed to a bracket, then bisect.  holds(k) says whether u lies
    strictly inside delta^(2k+2) in the direction of its sign:
    u < delta^(2k+2) for positive u, delta^(-2k-2) < u for negative u.
    That is one kernel query, whether u^-1 delta^(2k+2) or
    delta^(2k+2) u is positive (the ladder's probe on one copy of u,
    :func:`_spread_probe`).  The other inequality holds for every
    k >= 0, because a positive u is above every negative power of
    delta, and symmetrically."""
    m = u.strands

    def holds(k: int) -> bool:
        probe = _spread_probe((), u.letters, m, 1, k + 1, positive)
        return _kernel.sign_of(probe, m) > 0

    seed = abs(u.exponent_sum) // (m * (m - 1))
    if holds(seed):
        hi = seed  # holds; gallop down for a non-holding lower bound
        step = 1
        lo = hi - step
        while lo >= 0 and holds(lo):
            hi = lo
            step *= 2
            lo = hi - step
        lo = max(lo, -1)
    else:
        lo = seed  # does not hold; gallop up for a holding upper bound
        step = 1
        hi = lo + step
        while not holds(hi):
            lo = hi
            step *= 2
            hi = lo + step
    # invariant: not holds(lo) (or lo == -1), holds(hi); bisect for the
    # least k that holds
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if holds(mid):
            hi = mid
        else:
            lo = mid
    return hi


def dehornoy_floor(u: BraidWord) -> int:
    """min { k >= 0 : delta^(-2k-2) < u < delta^(2k+2) }.

    The search starts at the exponent sum divided by m(m-1), the
    exponent sum of the full twist delta^2, gallops away from it to a
    bracket, then bisects; each candidate needs one sign computation
    because a positive braid is automatically above every negative power
    of delta, and symmetrically.  Every probe is a kernel query, so the
    result does not depend on the start, only the number of queries
    does.
    """
    sign = sigma_sign(u)
    if sign is OrderSign.TRIVIAL:
        return 0
    return _search_floor(u, sign is OrderSign.POSITIVE)


@cache
def _half_twists(m: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Letters of delta and of delta^-1 on m strands."""
    half = delta(m).letters
    return half, tuple(-x for x in reversed(half))


def _delta_power(m: int, n: int) -> tuple[int, ...]:
    """Letters of delta^n on m strands, for any integer n."""
    half, inverse = _half_twists(m)
    return half * n if n >= 0 else inverse * -n


def _power_cap(b: BraidWord, n: int) -> None:
    """Refuse a power b^n that is never built where b**n would be
    refused: when it would have more than MAX_WORD_LETTERS letters."""
    if len(b.letters) * n > MAX_WORD_LETTERS:
        raise WordLengthExceeded(
            f"power would have {len(b.letters) * n} letters, cap is {MAX_WORD_LETTERS}"
        )


def central_root(b: BraidWord, max_power: int) -> tuple[int, int] | None:
    """(q, p) with b^q = delta^(2p), trying q = m, then q = m - 1, and
    skipping any q above max_power; None if neither holds.

    Periodic braids are exactly the ones with such a root: every one is
    conjugate to a power of delta_1 = sigma_1 ... sigma_{m-1} or of
    epsilon = delta_1 sigma_1, and delta_1^m = epsilon^(m-1) = delta^2
    (Brouwer-Kerekjarto-Eilenberg).  Comparing exponent sums forces
    p = q e(b) / (m (m-1)), so each q costs at most one word-problem
    query, and none when p is not an integer.

    The query is on the cyclic core.  Write b = w X w^-1 with X
    cyclically reduced; then b^q = w X^q w^-1, and as delta^2 is
    central, b^q = delta^(2p) exactly when X^q delta^(-2p) is trivial,
    a word without the conjugator's 2 |w| letters.  Dynnikov
    coordinates decide it (:func:`braidcert.dynnikov.is_trivial`), so no
    root query reaches the handle-reduction kernel or its budget.

    Raises WordLengthExceeded where b**q would, when |b| q passes
    MAX_WORD_LETTERS.
    """
    m = b.strands
    core = BraidWord(m, _cyclic_core(b)[1])
    for q in (m, m - 1):
        p, rest = divmod(q * b.exponent_sum, m * (m - 1))
        if q > max_power or rest:
            continue
        _power_cap(b, q)
        if dynnikov.is_trivial((core**q).letters + _delta_power(m, -2 * p), m):
            return q, p
    return None


def _cyclic_core(b: BraidWord) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(w, X) with b.letters = w + X + w^-1 and X cyclically reduced:
    X is one letter long, or its last letter does not cancel its first."""
    letters = b.letters
    i, j = 0, len(letters)
    while j - i > 1 and letters[i] == -letters[j - 1]:
        i, j = i + 1, j - 1
    return letters[:i], letters[i:j]


def _spread_probe(w: tuple[int, ...], x: tuple[int, ...], m: int, n: int,
                  j: int, positive: bool) -> tuple[int, ...]:
    """The ladder's probe on b^n, b = w X w^-1, for the twist delta^(2j):
    w (X^-1 delta^(2a_1)) ... (X^-1 delta^(2a_n)) w^-1 for positive b,
    which is b^-n delta^(2j), and w (delta^(2a_1) X) ... (delta^(2a_n) X)
    w^-1 for negative b, which is delta^(2j) b^n.  The exponents
    a_i = floor(j i / n) - floor(j (i - 1) / n) split j evenly."""
    full = _delta_power(m, 2)
    core = tuple(-y for y in reversed(x)) if positive else x
    letters = list(w)
    cut = 0
    for i in range(1, n + 1):
        twist = full * (j * i // n - cut)
        cut = j * i // n
        letters += core + twist if positive else twist + core
    letters += (-y for y in reversed(w))
    return tuple(letters)


def power_floor(b: BraidWord, k: int) -> int:
    """dehornoy_floor(b**k) for k >= 1, without a search on b^k.

    When b has a central root b^q = delta^(2p) with q <= k (see
    :func:`central_root`), the floor is a whole number of twists plus the
    floor of a short remainder.  b > 1 exactly when p > 0, as b^q and b
    have the same sign; for p < 0 take b^-1 and -p, since
    floor(b^k) = floor(b^-k) (see below).  So let p >= 0, and write
    k = s q + r with the nearest remainder, |r| <= q / 2: r = k mod q,
    or r - q and s + 1 in its place when 2 r > q.  Then
    b^k = delta^(2t) b^r with t = p s, and for a positive x the floor is
    the largest i with delta^(2i) <= x.  Left-invariance and the
    centrality of delta^2 shift it by whole twists:

        max { i : delta^(2i) <= delta^(2t) y } = t + max { i : delta^(2i) <= y }.

    For r >= 0, y = b^r >= 1 and the floor is t + dehornoy_floor(b^r)
    (b^0 is the identity, of floor 0).  For r < 0, y = v^-1 with
    v = b^|r| > 1 of floor f, so delta^(2f) <= v < delta^(2f+2).
    delta^(2i) <= v^-1 exactly when v <= delta^(-2i), so the largest
    such i is -f when v = delta^(2f) and -f - 1 otherwise, and the floor
    is t - f or t - f - 1.  Whether v = delta^(2f) is decided on the
    cyclic core X of b, as in :func:`central_root`: whether
    X^|r| delta^(-2f) is trivial.  No query holds the full twists
    of delta^(2t), so the cost does not grow with s: at k = 24 a root at
    q = 5 leaves a search on one copy of b, not on delta^(2p 5) b^-1.

    Otherwise the floor is quasi-additive on powers of b, and a binary
    ladder climbs to k with one kernel query per step.

    Lemma: for A, B >= 1, floor(b^(A+B)) is S = floor(b^A) + floor(b^B)
    or S + 1.  Proof for b > 1, where every power of b is > 1: a
    positive x has floor f exactly when delta^(2f) <= x < delta^(2f+2).
    Let x = b^A and y = b^B have floors f and g.  Left-invariance and
    the centrality of delta^2 give

        xy < x delta^(2g+2) = delta^(2g+2) x < delta^(2S+4),
        xy >= x delta^(2g) = delta^(2g) x >= delta^(2S),

    so S <= floor(xy) <= S + 1.  For b < 1: delta^(-2j-2) < x iff
    x^-1 < delta^(2j+2) (multiply by x^-1 on the left, then use
    centrality), so floor(x) = floor(x^-1) and the argument runs on
    b^-1.  Hence one probe, whether b^(A+B) lies inside delta^(2S+2),
    decides the floor.

    The probe for b > 1 is the sign of b^-n delta^(2J), J = S + 1.
    Write b = w X w^-1 with X cyclically reduced, so b^-n = w X^-n w^-1
    letter for letter.  Because delta^2 is central, the J full twists
    can sit anywhere between the letters, and the ladder spreads them
    evenly:

        b^-n delta^(2J) = w (X^-1 delta^(2a_1)) ... (X^-1 delta^(2a_n)) w^-1,

    with a_i = floor(J i / n) - floor(J (i - 1) / n).  It is the same
    braid, written with the same letters in another order, so it has the
    same sign; but handle reduction meets positive letters next to each
    X^-1 instead of carrying every negative letter across the whole power
    to one block at the end.  For b < 1 the probe delta^(2J) b^n is
    spread the same way, as w (delta^(2a_1) X) ... (delta^(2a_n) X) w^-1.

    The ladder reads the bits of k after the leading one: each bit
    doubles n -> 2n, and a set bit then steps n -> n + 1.  So k costs
    the floor of b plus k.bit_length() - 1 + (set bits of k) - 1
    probes, and no sign query on any b^n with n >= 2, which has the
    sign of b.
    """
    if k < 1:
        raise BadParameters(f"power must be >= 1, got {k}")
    m = b.strands
    root = central_root(b, k)
    if root is not None:
        q, p = root
        if p < 0:
            b, p = b.inverse(), -p
        s, r = divmod(k, q)
        if 2 * r > q:
            s, r = s + 1, r - q
        f = dehornoy_floor(BraidWord(m, b.letters * abs(r)))
        if r >= 0:
            return p * s + f
        x = _cyclic_core(b)[1]
        if dynnikov.is_trivial(x * -r + _delta_power(m, -2 * f), m):
            return p * s - f
        return p * s - f - 1

    sign = sigma_sign(b)
    if sign is OrderSign.TRIVIAL:
        return 0
    positive = sign is OrderSign.POSITIVE
    w, x = _cyclic_core(b)

    def floor_of_power(n: int, s: int) -> int:
        # floor(b^n) is s or s + 1 by the lemma; one probe decides
        _power_cap(b, n)
        probe = _spread_probe(w, x, m, n, s + 1, positive)
        return s if _kernel.sign_of(probe, m) > 0 else s + 1

    n, f = 1, _search_floor(b, positive)
    f1 = f
    for bit in bin(k)[3:]:
        n, f = 2 * n, floor_of_power(2 * n, 2 * f)
        if bit == "1":
            n, f = n + 1, floor_of_power(n + 1, f + f1)
    return f
