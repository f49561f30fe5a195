"""Pure-Python handle-reduction kernel.

Reference implementation of Dehornoy handle reduction for braid words.
A word is a list of nonzero ints, letter +i / -i for the i-th Artin
generator and its inverse.  The compiled twin ``_reduction_c`` mirrors
this module exactly; tests assert they agree letter for letter.

Algorithm: repeatedly rewrite the handle that closes leftmost.  A
sigma_i-handle is a subword  (+-i) v (-+i)  whose interior v contains no
letter of index <= i.  Rewriting drops the bracket pair and conjugates
each interior letter of index i+1:

    (i+1)^d  ->  (i+1)^-e  i^d  (i+1)^e      (e = sign of the opening letter)

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

Sign queries stop early once the lowest generator present occurs with a
single sign: such a word is sigma-definite and its class under the
Dehornoy order is already decided.
"""

from __future__ import annotations

from braidcert.errors import ReductionBudgetExceeded

_MIXED = 2  # sentinel: lowest generator occurs with both signs


def _free_reduce(letters):
    out = []
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


def _definite_sign(cnt, strands):
    # Sign decided by the lowest generator present; _MIXED if undecided.
    for j in range(1, strands):
        p = cnt[j]
        n = cnt[-j]
        if p or n:
            if n == 0:
                return 1
            if p == 0:
                return -1
            return _MIXED
    return 0


def _reduce_core(letters, strands, max_len, full):
    w = _free_reduce(letters)
    if len(w) > max_len:
        raise ReductionBudgetExceeded(
            f"word of length {len(w)} exceeds budget {max_len}"
        )

    # cnt[x] counts the letter x; a negative x indexes from the end.
    cnt = [0] * (2 * strands)
    for x in w:
        cnt[x] += 1

    if not full:
        s = _definite_sign(cnt, strands)
        if s != _MIXED:
            return s, w

    last = [-1] * strands  # last occurrence of each generator in w[:i]
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

        # Rewrite handle w[s..i]; free-cancel while building the patch,
        # counting every letter that leaves or enters the word.
        e = 1 if w[s] > 0 else -1
        g1 = g + 1
        cnt[x] -= 1
        cnt[-x] -= 1
        seg: list[int] = []
        for q in range(s + 1, i):
            y = w[q]
            if y == g1 or y == -g1:
                cnt[y] -= 1
                for z in (-e * g1, g if y > 0 else -g, e * g1):
                    if seg and seg[-1] == -z:
                        seg.pop()
                        cnt[-z] -= 1
                    else:
                        seg.append(z)
                        cnt[z] += 1
            elif seg and seg[-1] == -y:
                seg.pop()
                cnt[y] -= 1
                cnt[-y] -= 1
            else:
                seg.append(y)

        w[s : i + 1] = seg
        n += len(seg) - (i + 1 - s)
        if n > max_len:
            raise ReductionBudgetExceeded(
                f"word grew past budget {max_len} during handle reduction"
            )

        # While sigma_1 occurs with both signs the word is mixed, so
        # the scan of cnt can wait.
        if not full and not (cnt[1] and cnt[-1]):
            sd = _definite_sign(cnt, strands)
            if sd != _MIXED:
                return sd, w

        # Resume at s.  No generator below g occurs in w[s..i], so only
        # last[g:] can point into it; step those back along prev.
        for j in range(g, strands):
            p = last[j]
            while p >= s:
                p = prev[p]
            last[j] = p
        del prev[s:]
        i = s

    return _definite_sign(cnt, strands), w


def reduce_word(letters, strands, max_len):
    """Fully handle-reduced word equal to the input in the braid group."""
    _, w = _reduce_core(letters, strands, max_len, True)
    return w


def sign_of(letters, strands, max_len):
    """Dehornoy sign of the word: +1, 0 or -1 (may stop before full
    reduction once the lowest generator is sign-uniform)."""
    s, _ = _reduce_core(letters, strands, max_len, False)
    return s
