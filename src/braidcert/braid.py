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
different, decidable question: use :func:`is_trivial` on
``u * v.inverse()``, which :mod:`braidcert._kernel` answers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
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
#: WordLengthExceeded rather than silently consuming memory.  It also
#: caps the strand count at MAX_WORD_LETTERS + 1, so that no generator
#: index passes it either: the kernels' tables and the Dynnikov walk's
#: start point are sized by the highest generator of a word.
MAX_WORD_LETTERS = 10**6

#: The separators of the text format: ASCII space and tab, nothing else.
BLANKS = " \t"

#: Longest number text :func:`parse_decimal` reads.  A rational read from
#: it has a numerator and a denominator of at most this many digits, fewer
#: than the 640 below which Python's int-to-str limit cannot be set, so
#: every number that parses also prints.
_MAX_NUMBER_CHARS = 600

_N = TypeVar("_N")


@dataclass(frozen=True)
class BraidWord:
    """A freely reduced braid word on a fixed number of strands."""

    strands: int
    letters: tuple[int, ...]

    def __init__(self, strands: int, letters: Iterable[int] = ()):
        if not isinstance(strands, int) or not 2 <= strands <= MAX_WORD_LETTERS + 1:
            raise BadStrands(
                f"strand count must be an integer from 2 to {MAX_WORD_LETTERS + 1},"
                f" got {strands!r}"
            )
        raw = tuple(letters)
        if len(raw) > MAX_WORD_LETTERS:
            raise WordLengthExceeded(
                f"{len(raw)} letters exceeds the cap of {MAX_WORD_LETTERS}"
            )
        for x in raw:
            if type(x) is not int or x == 0 or abs(x) >= strands:
                raise GeneratorOutOfRange(
                    f"letter {x!r} is not a generator of the {strands}-strand braid group"
                )
        object.__setattr__(self, "strands", strands)
        object.__setattr__(self, "letters", tuple(dynnikov.free_reduce(raw)))

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[int]:
        return iter(self.letters)

    def __mul__(self, other: "BraidWord") -> "BraidWord":
        return compose(self, other)

    def __pow__(self, k: int) -> "BraidWord":
        check_power(self, k)
        base = self if k >= 0 else self.inverse()
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
        Asked of :func:`braidcert._kernel.is_trivial`, without the
        reduction budget."""
        # imported here, as _kernel imports from this module
        from braidcert import _kernel

        return _kernel.is_trivial(self.letters)

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
    return BraidWord(u.strands, u.letters + v.letters)


def check_power(b: BraidWord, k: int) -> None:
    """Refuse the power b^k, built or not, when it would have more than
    MAX_WORD_LETTERS letters."""
    total = len(b.letters) * abs(k)
    if total > MAX_WORD_LETTERS:
        raise WordLengthExceeded(
            f"power would have {total} letters, cap is {MAX_WORD_LETTERS}"
        )


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
    size = m * (m - 1) // 2
    if size > MAX_WORD_LETTERS:  # refused before a letter is built
        raise WordLengthExceeded(f"{size} letters exceeds the cap of {MAX_WORD_LETTERS}")
    generators = list(range(1, m))  # one int object per index, for every block
    letters: list[int] = []
    for block in range(m - 1, 0, -1):
        letters.extend(generators[:block])
    return BraidWord(m, tuple(letters))


def full_twist(m: int) -> BraidWord:
    """The full twist delta^2, generator of the center for m >= 3."""
    return BraidWord(m, full_twist_letters(m, 1))


def full_twist_letters(m: int, j: int) -> tuple[int, ...]:
    """Letters of delta^(2j) on m strands, for any integer j: () for
    j = 0, which builds no half twist, else refused where delta(m) is."""
    if j == 0:
        return ()
    full, inverse = _full_twists(m)
    return full * j if j > 0 else inverse * -j


@lru_cache(maxsize=3)
def _full_twists(m: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Letters of delta^2 and of delta^-2 on m strands, kept for the
    last three strand counts asked: floor searches reach 3 to 5."""
    full = delta(m).letters * 2
    negatives = [-i for i in range(m)]  # one int object per inverse generator
    return full, tuple(map(negatives.__getitem__, reversed(full)))


def format_braid(u: BraidWord) -> str:
    """Render in the text format ``m: i1 i2 ...`` (``m:`` if empty)."""
    if not u.letters:
        return f"{u.strands}:"
    return f"{u.strands}: " + " ".join(str(x) for x in u.letters)


def parse_braid(text: str, line: int = 1) -> BraidWord:
    """Parse the text format ``m: i1 i2 ...``.

    Numbers are read by :func:`parse_decimal`, and only ASCII spaces and
    tabs separate them.  Raises ParseError with 1-based line/column on
    malformed input, at the first bad token; the resulting word is
    validated and freely reduced by construction.  :class:`BraidWord`
    checks the letters; the tokens' columns are worked out only when it
    or :func:`parse_decimal` refuses.
    """
    head, sep, tail = text.partition(":")
    if not sep:
        raise ParseError("expected 'strands: letters', missing ':'", line, len(text) + 1)
    strands_text = head.strip(BLANKS)
    try:
        strands = parse_decimal(strands_text)
    except ValueError:
        raise ParseError(
            f"strand count {number_repr(strands_text)} is not an integer",
            line,
            1 + _leading_ws(head),
        ) from None
    if not 2 <= strands <= MAX_WORD_LETTERS + 1:
        raise ParseError(
            f"strand count must be from 2 to {MAX_WORD_LETTERS + 1}, got {strands}",
            line,
            1 + _leading_ws(head),
        )

    tokens = tail.replace("\t", " ").split(" ")
    try:
        return BraidWord(strands, [parse_decimal(t) for t in tokens if t])
    except (ValueError, GeneratorOutOfRange, WordLengthExceeded) as exc:
        fault = exc
    col = len(head) + len(sep) + 1  # 1-based column of the next token
    for token in tokens:
        at, col = col, col + len(token) + 1
        if not token:
            continue
        try:
            x = parse_decimal(token)
        except ValueError:
            raise ParseError(f"letter {number_repr(token)} is not an integer", line,
                             at) from None
        if x == 0 or abs(x) >= strands:
            raise ParseError(
                f"letter {x} is out of range for {strands} strands", line, at
            )
    raise fault


def parse_decimal(text: str, number: Callable[[str], _N] = int) -> _N:
    """number(text) for ASCII text of at most _MAX_NUMBER_CHARS characters,
    without '_', an exponent or surrounding whitespace; ValueError
    otherwise.

    The one rule for number text, in braid words, command-line options,
    corpus parameters and BRAIDCERT_REDUCTION_BUDGET.  int() and
    Fraction() alone also read '_' separators and non-ASCII digits, so
    that "1_0" would be 10 and an Arabic-Indic three would be 3, and
    they strip any whitespace, so that "1\n" or a vertical tab before a
    1 would be 1, although only BLANKS separate the tokens of a word.
    Fraction() also reads exponents, so that the six characters
    "1e5000" would be a 5,001-digit number, which Python refuses to
    print, and "1e-10000000" takes seconds to build.  A decimal needs no
    exponent to pass that limit: "0." with 4,299 zeros and a 1 has a
    denominator of 4,301 digits."""
    if (len(text) > _MAX_NUMBER_CHARS or not text.isascii() or "_" in text
            or "e" in text or "E" in text or text != text.strip()):
        raise ValueError(text)
    return number(text)


def number_repr(text: str) -> str:
    """repr(text), for an error message on number text that
    :func:`parse_decimal` refused; for text longer than
    _MAX_NUMBER_CHARS, refused for its length alone, the repr of its
    first 20 characters and that reason, so that a message never echoes
    thousands of characters."""
    if len(text) <= _MAX_NUMBER_CHARS:
        return repr(text)
    return (f"{text[:20]!r}... ({len(text)} characters, longer than the"
            f" {_MAX_NUMBER_CHARS} a number may have)")


def _leading_ws(s: str) -> int:
    return len(s) - len(s.lstrip(BLANKS))
