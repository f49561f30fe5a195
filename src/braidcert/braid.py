"""Braid words, permutations, and the basic group operations.

A braid on ``m`` strands is represented by a word in the Artin
generators: letter ``+i`` is sigma_i (strand i crosses over strand
i+1), letter ``-i`` its inverse, with ``1 <= i <= m - 1``.  The product
``u * v`` places ``u`` on top of ``v``; as mapping classes this is
``(u * v)(x) = u(v(x))``, so concatenating words left to right matches
composing maps left to right.

Words are freely reduced on construction (adjacent ``+i, -i`` pairs are
cancelled until none remain), so equality of ``BraidWord`` values is
equality of freely reduced words.  Equality in the braid group is a
different, decidable question: use :func:`is_trivial` on ``u * v.inverse()``,
which Dynnikov coordinates decide (:mod:`braidcert.dynnikov`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, TypeVar

from braidcert import dynnikov
from braidcert.errors import (
    BadStrands,
    GeneratorOutOfRange,
    ParseError,
    StrandMismatch,
    WordLengthExceeded,
)

#: Hard cap on the letter count of any braid word, including every
#: intermediate produced by compose/power.  Exceeding it raises
#: WordLengthExceeded rather than silently consuming memory.
MAX_WORD_LETTERS = 10**6

#: The separators of the text format: ASCII space and tab, nothing else.
_BLANKS = " \t"

_N = TypeVar("_N")


@dataclass(frozen=True)
class BraidWord:
    """A freely reduced braid word on a fixed number of strands."""

    strands: int
    letters: tuple[int, ...]

    def __init__(self, strands: int, letters: Iterable[int] = ()):
        if not isinstance(strands, int) or strands < 2:
            raise BadStrands(f"strand count must be an integer >= 2, got {strands!r}")
        raw = tuple(letters)
        if len(raw) > MAX_WORD_LETTERS:
            raise WordLengthExceeded(
                f"{len(raw)} letters exceeds the cap of {MAX_WORD_LETTERS}"
            )
        reduced: list[int] = []
        for x in raw:
            if type(x) is not int or x == 0 or abs(x) >= strands:
                raise GeneratorOutOfRange(
                    f"letter {x!r} is not a generator of the {strands}-strand braid group"
                )
            if reduced and reduced[-1] == -x:
                reduced.pop()
            else:
                reduced.append(x)
        object.__setattr__(self, "strands", strands)
        object.__setattr__(self, "letters", tuple(reduced))

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[int]:
        return iter(self.letters)

    def __mul__(self, other: "BraidWord") -> "BraidWord":
        return compose(self, other)

    def __pow__(self, k: int) -> "BraidWord":
        base = self if k >= 0 else self.inverse()
        total = len(base.letters) * abs(k)
        if total > MAX_WORD_LETTERS:
            raise WordLengthExceeded(
                f"power would have {total} letters, cap is {MAX_WORD_LETTERS}"
            )
        return BraidWord(self.strands, base.letters * abs(k))

    def __invert__(self) -> "BraidWord":
        return self.inverse()

    def inverse(self) -> "BraidWord":
        """The inverse word: letters reversed and negated."""
        return BraidWord(self.strands, tuple(-x for x in reversed(self.letters)))

    def conjugated_by(self, w: "BraidWord") -> "BraidWord":
        """w * self * w^-1."""
        return w * self * w.inverse()

    @property
    def exponent_sum(self) -> int:
        """Abelianization: sum of letter signs (a conjugacy invariant)."""
        return sum(1 if x > 0 else -1 for x in self.letters)

    def permutation(self) -> "Permutation":
        """Underlying strand permutation (sigma_i maps to the
        transposition of i and i+1)."""
        images = list(range(1, self.strands + 1))
        for x in self.letters:
            i = abs(x)
            images[i - 1], images[i] = images[i], images[i - 1]
        return Permutation(tuple(images))

    def closure_components(self) -> int:
        """Number of link components of the braid closure."""
        return self.permutation().cycle_count()

    def is_trivial(self) -> bool:
        """Word problem: does this word represent the identity braid?
        Dynnikov coordinates decide it (:func:`braidcert.dynnikov.is_trivial`);
        handle reduction and its budget are not involved."""
        return dynnikov.is_trivial(self.letters, self.strands)

    def __str__(self) -> str:
        return format_braid(self)


@dataclass(frozen=True)
class Permutation:
    """A permutation of {1, ..., n}, stored as the tuple of images.

    ``images[i - 1]`` is where ``i`` is sent.  Composition follows the
    braid product convention: ``(p * q)(x) = p(q(x))``.
    """

    images: tuple[int, ...]

    def __post_init__(self):
        n = len(self.images)
        if sorted(self.images) != list(range(1, n + 1)):
            raise BadStrands(f"not a permutation of 1..{n}: {self.images}")

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(1, n + 1)))

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        if len(self.images) != len(other.images):
            raise StrandMismatch("permutations act on different strand counts")
        return Permutation(tuple(self.images[j - 1] for j in other.images))

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.images)
        for i, j in enumerate(self.images, start=1):
            inv[j - 1] = i
        return Permutation(tuple(inv))

    @property
    def is_identity(self) -> bool:
        return all(j == i for i, j in enumerate(self.images, start=1))

    def cycle_count(self) -> int:
        seen = [False] * len(self.images)
        count = 0
        for i in range(len(self.images)):
            if not seen[i]:
                count += 1
                j = i
                while not seen[j]:
                    seen[j] = True
                    j = self.images[j] - 1
        return count


def compose(u: BraidWord, v: BraidWord) -> BraidWord:
    """Product u v (u stacked on top of v)."""
    if u.strands != v.strands:
        raise StrandMismatch(
            f"cannot compose braids on {u.strands} and {v.strands} strands"
        )
    if len(u.letters) + len(v.letters) > MAX_WORD_LETTERS:
        raise WordLengthExceeded(
            f"product would have {len(u.letters) + len(v.letters)} letters"
        )
    return BraidWord(u.strands, u.letters + v.letters)


# kept as a function: perfbench's order-mix workload calls it
def is_trivial(u: BraidWord) -> bool:
    return u.is_trivial()


def identity(m: int) -> BraidWord:
    """The empty word on m strands."""
    return BraidWord(m, ())


def delta(m: int) -> BraidWord:
    """The Garside half twist on m strands:
    (sigma_1 ... sigma_{m-1})(sigma_1 ... sigma_{m-2}) ... (sigma_1)."""
    if m < 2:
        raise BadStrands(f"strand count must be >= 2, got {m}")
    letters: list[int] = []
    for block in range(m - 1, 0, -1):
        letters.extend(range(1, block + 1))
    return BraidWord(m, tuple(letters))


def full_twist(m: int) -> BraidWord:
    """The full twist delta^2, generator of the center for m >= 3."""
    return delta(m) ** 2


def format_braid(u: BraidWord) -> str:
    """Render in the text format ``m: i1 i2 ...`` (``m:`` if empty)."""
    if not u.letters:
        return f"{u.strands}:"
    return f"{u.strands}: " + " ".join(str(x) for x in u.letters)


def parse_braid(text: str, line: int = 1) -> BraidWord:
    """Parse the text format ``m: i1 i2 ...``.

    Numbers are read by :func:`parse_decimal`, and only ASCII spaces and
    tabs separate them.  Raises ParseError with 1-based line/column on
    malformed input; the resulting word is validated and freely reduced
    by construction.
    """
    head, sep, tail = text.partition(":")
    if not sep:
        raise ParseError("expected 'strands: letters', missing ':'", line, len(text) + 1)
    strands_text = head.strip(_BLANKS)
    try:
        strands = parse_decimal(strands_text)
    except ValueError:
        raise ParseError(
            f"strand count {strands_text!r} is not an integer",
            line,
            1 + _leading_ws(head),
        ) from None
    if strands < 2:
        raise ParseError(f"strand count must be >= 2, got {strands}", line, 1 + _leading_ws(head))

    letters: list[int] = []
    col = len(head) + len(sep) + 1  # 1-based column of the next token
    for token in tail.replace("\t", " ").split(" "):
        at, col = col, col + len(token) + 1
        if not token:
            continue
        try:
            x = parse_decimal(token)
        except ValueError:
            raise ParseError(f"letter {token!r} is not an integer", line, at) from None
        if x == 0 or abs(x) >= strands:
            raise ParseError(
                f"letter {x} is out of range for {strands} strands", line, at
            )
        letters.append(x)
    return BraidWord(strands, tuple(letters))


def parse_decimal(text: str, number: Callable[[str], _N] = int) -> _N:
    """number(text) for ASCII text without '_'; ValueError otherwise.

    The one rule for number text, in braid words, command-line options,
    corpus parameters and BRAIDCERT_REDUCTION_BUDGET.  int() and
    Fraction() alone also read '_' separators and non-ASCII digits, so
    that "1_0" would be 10 and an Arabic-Indic three would be 3."""
    if not text.isascii() or "_" in text:
        raise ValueError(text)
    return number(text)


def _leading_ws(s: str) -> int:
    return len(s) - len(s.lstrip(_BLANKS))
