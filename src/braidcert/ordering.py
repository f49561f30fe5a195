"""The Dehornoy left order on braid groups.

A braid is *positive* in the Dehornoy order when it admits a word in
which the lowest-index generator that occurs at all occurs only
positively (a sigma-positive word).  Every nontrivial braid is either
positive or negative, and the order ``u < v  iff  u^-1 v`` is positive
is a left-invariant strict total order.

Every question this module asks of a braid, its sign, a reduced word,
a floor probe, a root test or the word problem, goes to
:mod:`braidcert._kernel`, which says which engine answers it.  The
probes of a floor search or ladder go to one probe object per search
(:class:`braidcert._kernel.FloorProbe`), built once on a twist-free
rotation of the braid's cyclic core: the longest run of whole full
twists is peeled off the core (:func:`_peel_twists`), and as delta^2 is
central each probe carries them as a shift of its twist count, which
may then be negative.  A root test asks whether a power of the
twist-free core is a whole number of full twists
(:func:`braidcert._kernel.is_twist_power`).

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

from braidcert import _kernel
from braidcert.braid import BraidWord, check_power, full_twist_letters
from braidcert.errors import BadParameters, StrandMismatch


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
    return OrderSign(_kernel.sign_of(u.letters))


def compare(u: BraidWord, v: BraidWord) -> Comparison:
    """Compare two braids on the same strand count: u < v iff u^-1 v > 1."""
    if u.strands != v.strands:
        raise StrandMismatch(
            f"cannot compare braids on {u.strands} and {v.strands} strands"
        )
    word = tuple(-x for x in reversed(u.letters)) + v.letters
    # sign(u^-1 v) = +1 places u BELOW v in the order
    return Comparison(-_kernel.sign_of(word))


def reduced_word(u: BraidWord) -> BraidWord:
    """A fully handle-reduced word equal to u in the braid group.

    The result is sigma-definite: empty, or its lowest generator occurs
    with a single sign.
    """
    return BraidWord(u.strands, tuple(_kernel.reduce_word(u.letters)))


def _search_floor(u: BraidWord, probe: _kernel.FloorProbe) -> int:
    """The floor of a nontrivial u: gallop from a seed to a bracket,
    then bisect.  holds(k) says whether u lies strictly inside
    delta^(2k+2) in the direction of its sign: u < delta^(2k+2) for
    positive u, delta^(-2k-2) < u for negative u.  That is one probe on
    one copy of u, asked of u's probe object.  The other inequality
    holds for every k >= 0, because a positive u is above every negative
    power of delta, and symmetrically."""
    m = u.strands

    def holds(k: int) -> bool:
        return probe.inside(1, k + 1)

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
    of delta, and symmetrically.  Every probe is decided exactly, so the
    result does not depend on the start, only the number of probes
    does.  The probes go to one :class:`braidcert._kernel.FloorProbe`
    on the twist-free rotation of u's cyclic core (:func:`_peel_twists`),
    so no probe holds the core's own run of full twists.
    """
    probe = _floor_probe(u)
    return 0 if probe is None else _search_floor(u, probe)


def _floor_probe(b: BraidWord) -> _kernel.FloorProbe | None:
    """The probe object of a floor search on b, oriented by b's sign (its
    ``positive``), built on b's cyclic core less the full twists of b's
    sign that :func:`_peel_twists` takes off it; None for the identity,
    whose floor is 0.  The sign is its one kernel query on b."""
    sign = sigma_sign(b)
    if sign is OrderSign.TRIVIAL:
        return None
    w, y, e = _peel_twists(b, sign.value)
    return _kernel.FloorProbe(w, y, b.strands, sign is OrderSign.POSITIVE, e)


def central_root(b: BraidWord, max_power: int) -> tuple[int, int] | None:
    """(q, p) with b^q = delta^(2p), trying q = m, then q = m - 1, and
    skipping any q above max_power; None if neither holds.

    Periodic braids are exactly the ones with such a root: every one is
    conjugate to a power of delta_1 = sigma_1 ... sigma_{m-1} or of
    epsilon = delta_1 sigma_1, and delta_1^m = epsilon^(m-1) = delta^2
    (Brouwer-Kerekjarto-Eilenberg).  Comparing exponent sums forces
    p = q e(b) / (m (m-1)), so each q costs at most one word-problem
    query, and none when p is not an integer.

    An exponent sum of 0 forces p = 0, and as braid groups are
    torsion-free, b^q = 1 only for b = 1: one triviality test of b
    decides it, and the answer is (m, 0) for the identity, whatever
    max_power is, or None.  No power is built or checked against the
    letter cap for it.

    The query is on the twist-free core.  Write b = delta^(2e) w Y w^-1,
    with the longest run of whole full twists of the exponent sum's sign
    peeled off b's cyclic core (:func:`_peel_twists`); then
    b^q = delta^(2qe) w Y^q w^-1, and as delta^2 is central,
    b^q = delta^(2p) exactly when Y^q = delta^(2(p - qe)), a question
    without the conjugator's 2 |w| letters or the q |e| peeled twists.
    :func:`braidcert._kernel.is_twist_power` decides it, and no root
    query reaches the reduction budget.  The peel waits for a candidate
    root: it runs once, for the first q that passes both the exponent-sum
    test and max_power, and not at all when neither does.

    Raises WordLengthExceeded where b**q would, when |b| q passes
    MAX_WORD_LETTERS and the exponent sum is not 0.
    """
    m, total = b.strands, b.exponent_sum
    if total == 0:
        return (m, 0) if b.is_trivial() else None
    core = None
    for q in (m, m - 1):
        p, rest = divmod(q * total, m * (m - 1))
        if q > max_power or rest:
            continue
        check_power(b, q)
        if core is None:  # peeled once, for the first candidate root
            _, y, e = _peel_twists(b, -1 if total < 0 else 1)
            core = BraidWord(m, y)
        if _kernel.is_twist_power((core**q).letters, m, p - q * e):
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


def _peel_twists(b: BraidWord, s: int) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """(w, Y, e) with b = delta^(2e) w Y w^-1, for s = 1 or -1: Y is b's
    cyclic core X, rotated to begin with its longest run of whole
    literal blocks delta^(2s), less that run of |e| blocks; e has the
    sign of s, or is 0.

    The rotation B A of X = A B is A^-1 X A, so b = (w' A) (B A) (w' A)^-1
    for b = w' X w'^-1, and as delta^2 is central the run's blocks leave
    the conjugate as a power of delta^2.  A core shorter than one block
    comes back whole, with e = 0, and no delta^2 is built for it.

    Written as text of one character per letter, X followed by its
    first |X| - 1 letters holds every stretch of at most |X| letters of
    the cyclic word, first at a start inside X.  A run of e blocks holds
    one of e - 1, so a binary search over e <= |X| // (m (m-1)), the cap
    that keeps a run from counting a block twice, finds the longest run
    with the standard library's substring search, and X is rotated at
    that run's first start.
    """
    w, x = _cyclic_core(b)
    m, n = b.strands, len(x)
    size = m * (m - 1)
    if n < size:
        return w, x, 0
    # a run needs m (m-1) <= |X| <= MAX_WORD_LETTERS, so m <= 1000 and
    # each letter's code point m + y lies in [1, 2m - 1], below 2,000
    text = "".join([chr(m + y) for y in x + x[:n - 1]])
    block = "".join([chr(m + y) for y in full_twist_letters(m, s)])
    e, hi = 0, n // size
    while e < hi:
        mid = (e + hi + 1) // 2
        if block * mid in text:
            e = mid
        else:
            hi = mid - 1
    if not e:
        return w, x, 0
    r = text.find(block * e)
    rotated = x[r:] + x[:r]
    return w + x[:r], rotated[e * size:], s * e


def power_floor(b: BraidWord, k: int) -> tuple[OrderSign, int]:
    """(sigma_sign(b), dehornoy_floor(b**k)) for k >= 1, without a search
    on b^k and with at most one sign query on b itself.

    When b has a central root b^q = delta^(2p) with q <= k (see
    :func:`central_root`), the floor is a whole number of twists plus the
    floor of a remainder.  Write k = s q + r with r = k mod q, so that
    b^k = delta^(2t) b^r with t = p s.  b > 1 exactly when p > 0, as b^q
    and b have the same sign, and p = 0 only for the identity, as braid
    groups are torsion-free; so the root gives b's sign, and no query
    asks for it.  For p >= 0, every power of b is >= 1, and
    for an x >= 1 the floor is the largest i with delta^(2i) <= x.
    Left-invariance and the centrality of delta^2 shift it by whole
    twists:

        max { i : delta^(2i) <= delta^(2t) y } = t + max { i : delta^(2i) <= y },

    so the floor is t + dehornoy_floor(b^r) (b^0 is the identity, of
    floor 0).  For p < 0, b^-1 has the root b^-q = delta^(-2p) with
    -p > 0, so floor(b^-k) = -p s + dehornoy_floor(b^-r), and as
    floor(x) = floor(x^-1) (see below), the floor of b^k is
    |p| s + dehornoy_floor(b^r) in either case.  No query holds the full
    twists of delta^(2t), so the cost does not grow with s: the search
    runs on fewer than q copies of b.

    Otherwise b is not the identity, for which central_root answers
    (m, 0) under any k, the floor is quasi-additive on powers of b, and a
    binary ladder climbs to k with one probe per step.  The sign of b is
    the one query that orients the ladder's probe object
    (:func:`_floor_probe`).  Before it, b^k is checked against the letter
    cap, once for every rung, as each rung's power b^n has n <= k: a
    refusal for length comes before any kernel work.

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
    spread the same way, as w (delta^(2a_1) X) ... (delta^(2a_n) X) w^-1
    (:func:`braidcert._kernel.spread_probe`).

    X is in fact a twist-free rotation of b's cyclic core: the longest
    run of whole full twists of b's sign, delta^(2e), is peeled off it
    (:func:`_peel_twists`), so that b = delta^(2e) b' with
    b' = w X w^-1, and the probe is b'^-n delta^(2(J - ne)), or
    delta^(2(J + ne)) b'^n for b < 1.  Its twist count may be negative.
    Without the peel, free reduction cancels nothing between a copy's
    own full twists and the probe's, which a rotation keeps apart, and
    every copy carries them again.

    One probe object (:class:`braidcert._kernel.FloorProbe`), built once
    on (w, X) and e, answers the search for the floor of b and then every
    ladder step; :mod:`braidcert._kernel` says which engine answers each
    probe.

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
        if p == 0:  # b^q = 1, so b = 1, whose floor asks no query
            return OrderSign.TRIVIAL, 0
        s, r = divmod(k, q)
        sign = OrderSign.POSITIVE if p > 0 else OrderSign.NEGATIVE
        return sign, abs(p) * s + dehornoy_floor(BraidWord(m, b.letters * r))

    check_power(b, k)  # every rung's power b^n has n <= k
    probe = _floor_probe(b)  # b is not the identity, which has a root
    sign = OrderSign.POSITIVE if probe.positive else OrderSign.NEGATIVE
    n, f = 1, _search_floor(b, probe)

    def floor_of_power(n: int, s: int) -> int:
        # floor(b^n) is s or s + 1 by the lemma; one probe decides
        return s if probe.inside(n, s + 1) else s + 1

    f1 = f
    for bit in bin(k)[3:]:
        n, f = 2 * n, floor_of_power(2 * n, 2 * f)
        if bit == "1":
            n, f = n + 1, floor_of_power(n + 1, f + f1)
    return sign, f
