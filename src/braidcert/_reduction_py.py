"""Pure-Python handle-reduction kernel.

Reference implementation of Dehornoy handle reduction for braid words.
A word is a list of nonzero ints, letter +i / -i for the i-th Artin
generator and its inverse.  The compiled twin ``_reduction_c`` mirrors
this module exactly; tests assert they agree letter for letter.

Every query starts at :func:`admit`: the word freely reduced by
:func:`braidcert.dynnikov.free_reduce`, the library's one free
reduction, and refused past the length budget.  The compiled twin keeps
its own intake, so the parity tests check free reduction against an
independent implementation.

Algorithm: repeatedly rewrite the handle that closes leftmost.  A
sigma_g-handle is a subword  (+-g) v (-+g)  whose interior v contains no
letter of index <= g.  Rewriting drops the bracket pair and conjugates
each interior letter of index g+1:

    (g+1)^d  ->  (g+1)^-e  g^d  (g+1)^e      (e = sign of the opening letter)

Scanning for the first *closing* position guarantees the interior holds
no smaller handle, which is the strategy known to terminate without
blowup in practice.  The scan keeps, for each generator, its last
occurrence before the current position, and for each scanned position
the previous occurrence of its generator.  After rewriting a
sigma_g-handle w[s..i] the scan resumes at s.  Only generators g and
above can occur in the rewritten stretch, and their last occurrences
step back along those links, so no rewrite rescans the prefix.  A
length budget turns pathological growth into ReductionBudgetExceeded
instead of an unbounded loop.

Invariant: the scanned prefix w[:i] holds no handle, since a handle
closing at an earlier position would have been rewritten there, and a
rewrite at s leaves w[:s] as it was.  In particular w[:i] is freely
reduced: an adjacent pair x, -x is a handle with an empty interior.

Closed form: in a sigma_g-handle's interior, two consecutive letters of
index g+1 have only letters of index > g+1 between them, so if their
signs differed they would bound a handle inside w[:i].  Hence every
letter of index g+1 in the interior has one sign d, and they stand in
runs (g+1)^(dk), each between letters of higher index or the brackets.
Conjugating letter by letter makes (g+1)^e (g+1)^-e between neighbours
in a run, and nothing else cancels: copied letters were neighbours in
the freely reduced w[:i] already, and a run's patch meets letters of
higher index or the ends of the patch.  So the rewrite is each run

    (g+1)^(dk)  ->  (g+1)^-e  g^(dk)  (g+1)^e

with every other interior letter copied.  The result is the same word,
letter for letter, as conjugating each letter and freely cancelling
while building.

Sign queries stop early once the lowest generator present occurs with a
single sign: such a word is sigma-definite and its class under the
Dehornoy order is already decided.  Only the lowest generator's two
letter counts are kept.  No rewrite brings in a generator below it, and
only a handle of that generator changes them: it removes one letter of
each sign and brings in one letter g^d per interior letter of index
g+1.  When both counts reach 0, the next lowest generator is counted
from the word.
"""

from __future__ import annotations

from braidcert import dynnikov
from braidcert.errors import ReductionBudgetExceeded


def admit(letters, max_len):
    """The freely reduced word, or ReductionBudgetExceeded when it is
    longer than max_len: the budget check in front of every query."""
    w = dynnikov.free_reduce(letters)
    if len(w) > max_len:
        raise ReductionBudgetExceeded(
            f"word of length {len(w)} exceeds budget {max_len}"
        )
    return w


def _lowest(w):
    # The lowest generator in w (0 for the empty word) and the numbers
    # of its positive and of its negative letters.
    low = min(map(abs, w), default=0)
    return low, w.count(low), w.count(-low)


def _reduce_core(letters, max_len, full):
    w = admit(letters, max_len)

    # The sign is (pos > 0) - (neg > 0) once pos or neg is 0.
    low, pos, neg = _lowest(w)
    if not full and not (pos and neg):
        return (pos > 0) - (neg > 0), w

    # The table is sized by the word's highest generator, as a rewrite
    # brings in no other.
    top = max(map(abs, w), default=0)
    last = [-1] * (top + 1)  # last occurrence of each generator in w[:i]
    prev: list[int] = []  # prev[p]: previous occurrence of w[p]'s generator
    i = 0
    n = len(w)
    while i < n:
        x = w[i]
        g = x if x > 0 else -x
        s = last[g]
        is_handle = s >= 0 and w[s] == -x
        if is_handle:
            for j in range(1, g):
                if last[j] > s:
                    is_handle = False
                    break
        if not is_handle:
            prev.append(s)
            last[g] = i
            i += 1
            continue

        # Rewrite handle w[s..i] in closed form: the interior's letters
        # of index g+1 are all y, and a run y^k becomes -up d^k up, where
        # up is g+1 with the opening letter's sign and d is g with y's.
        seg = w[s + 1 : i]
        g1 = g + 1
        y = g1 if g1 in seg else -g1
        if y in seg:
            up = g1 if x < 0 else -g1
            d = g if y > 0 else -g
            patch = []
            for q in range(s + 1, i):
                z = w[q]
                if z != y:
                    patch.append(z)
                    continue
                if w[q - 1] != y:
                    patch.append(-up)
                patch.append(d)
                if w[q + 1] != y:
                    patch.append(up)
            seg = patch

        w[s : i + 1] = seg
        n += len(seg) - (i + 1 - s)
        if n > max_len:
            raise ReductionBudgetExceeded(
                f"word grew past budget {max_len} during handle reduction"
            )

        # Only a handle of the lowest generator changes its counts.
        if g == low:
            pos += seg.count(low) - 1
            neg += seg.count(-low) - 1
            if not (pos or neg):
                low, pos, neg = _lowest(w)
            if not full and not (pos and neg):
                return (pos > 0) - (neg > 0), w

        # Resume at s.  No generator below g occurs in w[s..i], so only
        # last[g:] can point into it; step those back along prev.
        for j in range(g, top + 1):
            p = last[j]
            while p >= s:
                p = prev[p]
            last[j] = p
        del prev[s:]
        i = s

    return (pos > 0) - (neg > 0), w


def reduce_word(letters, max_len):
    """Fully handle-reduced word equal to the input in the braid group."""
    _, w = _reduce_core(letters, max_len, True)
    return w


def sign_of(letters, max_len):
    """Dehornoy sign of the word: +1, 0 or -1 (may stop before full
    reduction once the lowest generator is sign-uniform)."""
    s, _ = _reduce_core(letters, max_len, False)
    return s
