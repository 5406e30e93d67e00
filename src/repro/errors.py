"""Exception hierarchy shared by every repro subsystem.

All user-facing failures derive from :class:`ReproError` so callers can
catch one type. Each subsystem raises the most specific subclass and attaches
a source position when one is available.
"""

from __future__ import annotations

from typing import Optional

from repro.record import Record, field

_set = object.__setattr__


class SourcePosition(Record, frozen=True):
    """A 1-based line/column position in an oolong source text.

    ``file`` names the source the position refers to (``None`` for
    anonymous texts). It is excluded from equality so programmatically
    built positions compare equal to parsed ones regardless of origin.
    """

    line: int
    column: int
    file: Optional[str] = field(default=None, compare=False)

    def __init__(self, line, column, file=None):
        _set(self, "line", line)
        _set(self, "column", column)
        _set(self, "file", file)

    def __str__(self) -> str:
        if self.file is not None:
            return f"{self.file}:{self.line}:{self.column}"
        return f"{self.line}:{self.column}"


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""

    def __init__(self, message: str, position: Optional[SourcePosition] = None):
        self.message = message
        self.position = position
        super().__init__(self._format())

    def _format(self) -> str:
        if self.position is not None:
            return f"{self.position}: {self.message}"
        return self.message


class LexError(ReproError):
    """Raised by the lexer on malformed input characters or literals."""


class ParseError(ReproError):
    """Raised by the parser on grammar violations."""


class WellFormednessError(ReproError):
    """Raised when a scope violates oolong's static well-formedness rules.

    Covers duplicate names, undeclared references (the rule of
    self-contained names), cyclic group inclusions, and malformed modifies
    lists.
    """


class RestrictionError(ReproError):
    """Raised when a program violates the pivot uniqueness restriction."""


class VerificationError(ReproError):
    """Raised when verification-condition generation itself fails.

    (A VC that is merely *invalid* is reported as a verdict, not raised.)
    """


class InterpError(ReproError):
    """Raised by the interpreter on dynamic errors other than going wrong.

    "Going wrong" (a failed ``assert`` or a modifies violation) is reported
    as an outcome; this exception covers genuine misuse such as calling an
    undeclared procedure.
    """


class ProverError(ReproError):
    """Raised on internal prover failures (never on mere non-proofs)."""
