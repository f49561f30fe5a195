"""Exception hierarchy for braidcert.

Every error raised by the library derives from :class:`BraidError` so
callers (and the CLI) can catch domain failures without masking bugs.
"""

from __future__ import annotations


class BraidError(Exception):
    """Base class for all braidcert domain errors."""


class BadStrands(BraidError):
    """Strand count below 2, or otherwise unusable."""


class GeneratorOutOfRange(BraidError):
    """A letter references a generator index outside [1, strands - 1]."""


class StrandMismatch(BraidError):
    """Two braid words on different strand counts were combined."""


class WordLengthExceeded(BraidError):
    """A braid word grew past the hard length cap."""


class ReductionBudgetExceeded(BraidError):
    """Handle reduction blew past its working-length budget.

    Raised instead of looping on pathological inputs; the budget is set
    only through the BRAIDCERT_REDUCTION_BUDGET environment variable.
    """


class NotThreeBraid(BraidError):
    """A 3-strand-only operation was given a braid on != 3 strands."""


class BadParameters(BraidError):
    """Numeric parameters violate a documented precondition."""


class BadGenus(BraidError):
    """Genus parameter below 1."""


class SplitBinding(BraidError):
    """The braid closure is a split link (or the open book is reducible),
    so branched-cover certification does not apply."""


class ParseError(BraidError):
    """Malformed textual input.  Carries 1-based line and column."""

    def __init__(self, message: str, line: int = 1, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column
