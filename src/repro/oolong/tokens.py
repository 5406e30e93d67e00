"""Token kinds and the token record produced by the oolong lexer."""

from __future__ import annotations

import enum

from repro.errors import SourcePosition
from repro.record import Record


class TokenKind(enum.Enum):
    """Every lexical class in oolong's concrete syntax. The value of a
    keyword or operator kind is its text, which the scanner relies on."""

    # Literals and names.
    IDENT = "identifier"
    INT = "integer"

    # Declaration keywords (Figure 0).
    GROUP = "group"
    FIELD = "field"
    PROC = "proc"
    IMPL = "impl"
    IN = "in"
    MAPS = "maps"
    INTO = "into"
    MODIFIES = "modifies"
    REQUIRES = "requires"
    ENSURES = "ensures"

    # Command keywords (Figure 1 plus sugar).
    ASSERT = "assert"
    ASSUME = "assume"
    VAR = "var"
    END = "end"
    NEW = "new"
    IF = "if"
    THEN = "then"
    ELSE = "else"
    SKIP = "skip"

    # Constants.
    NULL = "null"
    TRUE = "true"
    FALSE = "false"

    # Punctuation.
    LPAREN = "("
    RPAREN = ")"
    LBRACE = "{"
    RBRACE = "}"
    COMMA = ","
    SEMI = ";"
    DOT = "."
    ASSIGN = ":="
    BOX = "[]"

    # Operators.
    EQ = "="
    NE = "!="
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="
    PLUS = "+"
    MINUS = "-"
    STAR = "*"
    AND = "&&"
    OR = "||"
    NOT = "!"

    EOF = "end of input"


class Token(Record, frozen=True):
    """A single lexeme with its source position.

    ``value`` carries the identifier text for :attr:`TokenKind.IDENT` and the
    numeral text for :attr:`TokenKind.INT`; for all other kinds it repeats
    the fixed lexeme.
    """

    kind: TokenKind
    value: str
    position: SourcePosition

    def __str__(self) -> str:
        return f"{self.kind.name}({self.value!r})@{self.position}"
