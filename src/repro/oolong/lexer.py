"""The oolong scanner.

One compiled regular expression scans the source: each match skips
whitespace and comments (``//`` to end of line, and ``/* ... */``, which
may span lines but does not nest), then takes one word, numeral or
operator, or matches the end of input. :func:`tokenize` returns the
parallel lists of token kinds, texts and start offsets, ending with EOF,
plus a table of line starts, as a :class:`TokenStream`. A
:class:`~repro.errors.SourcePosition` is built only when one is read:
line by bisection on the line starts, column = offset - line start + 1.
Indexing, slicing and iterating a stream build the same
:class:`~repro.oolong.tokens.Token` values on demand.

An identifier starts with a character where ``str.isalpha()`` holds, or
``_``, and continues on ``str.isalnum()`` or ``_``. A numeral is a run of
``str.isdecimal()`` characters, exactly what ``int()`` reads: ``٣`` is
the numeral 3, while ``²`` and ``Ⅷ`` are no token at all.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from typing import Iterator, List, Optional

from repro.errors import LexError, SourcePosition
from repro.oolong.tokens import Token, TokenKind

#: The kind of every fixed lexeme: keywords and operators.
_FIXED = {
    kind.value: kind
    for kind in TokenKind
    if kind not in (TokenKind.IDENT, TokenKind.INT, TokenKind.EOF)
}

# Groups: 1 a word, 2 a numeral, 3 an operator, 4 the end of input, 5 any
# other character, where the scan stops. ``[^\W\d]`` also admits the
# non-decimal numerics (``²``, ``Ⅷ``), which may not start a word; only
# a source with non-ASCII text can hold one, so only there is the first
# character of each identifier checked.
_SCAN = re.compile(
    r"""
    (?: [ \t\r\n]+ | //[^\n]* | /\*[^*]*\*+(?:[^/*][^*]*\*+)*/ )*
    (?: ([^\W\d]\w*)
      | (\d+)(?!\w)
      | (:=|\[\]|!=|<=|>=|&&|\|\||[(){},;.=<>+*!-])
      | ()\Z
      | (.)
    )
    """,
    re.VERBOSE | re.DOTALL,
)
_WORD, _NUMERAL, _END = 1, 2, 4
_DECIMALS = re.compile(r"\d*")
_NEWLINE = re.compile("\n")


class TokenStream:
    """The tokens of one source text, as parallel lists ending with EOF.

    ``kinds[i]``, ``values[i]`` and ``offsets[i]`` describe token ``i``;
    ``line_starts`` holds the offset of each line's first character.
    Indexing, slicing and iteration build :class:`Token` values on
    demand, positions included.
    """

    def __init__(
        self,
        kinds: List[TokenKind],
        values: List[str],
        offsets: List[int],
        line_starts: List[int],
        filename: Optional[str],
    ):
        self.kinds = kinds
        self.values = values
        self.offsets = offsets
        self.line_starts = line_starts
        self.filename = filename

    def position(self, index: int) -> SourcePosition:
        """The source position of token ``index``."""
        offset = self.offsets[index]
        starts = self.line_starts
        line = bisect_right(starts, offset)
        return SourcePosition(line, offset - starts[line - 1] + 1, self.filename)

    def __len__(self) -> int:
        return len(self.kinds)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self.kinds)))]
        return Token(self.kinds[index], self.values[index], self.position(index))

    def __iter__(self) -> Iterator[Token]:
        return map(self.__getitem__, range(len(self.kinds)))


def _line_starts(source: str) -> List[int]:
    return [0, *(newline.end() for newline in _NEWLINE.finditer(source))]


def _scan(source: str, filename: Optional[str]) -> TokenStream:
    kinds: List[TokenKind] = []
    values: List[str] = []
    offsets: List[int] = []
    add_kind, add_value, add_offset = kinds.append, values.append, offsets.append
    fixed = _FIXED.get
    ascii_only = source.isascii()
    for match in _SCAN.finditer(source):
        group = match.lastindex
        value = match[group]
        kind = fixed(value)
        if kind is None:
            if group == _WORD and (
                ascii_only or value[0].isalpha() or value[0] == "_"
            ):
                kind = TokenKind.IDENT
            elif group == _NUMERAL:
                kind = TokenKind.INT
            elif group == _END:
                break
            else:
                raise _scan_error(source, match.start(group), filename)
        add_kind(kind)
        add_value(value)
        add_offset(match.start(group))
    # Every scan ends at the match of the end of input (or raises).
    add_kind(TokenKind.EOF)
    add_value("")
    add_offset(len(source))
    return TokenStream(kinds, values, offsets, _line_starts(source), filename)


def _scan_error(source: str, offset: int, filename) -> LexError:
    """The error for the token that cannot start at ``offset``."""
    if source.startswith("/*", offset):
        message = "unterminated block comment"
    elif source[offset].isdecimal():
        # A numeral runs into a word character: a letter or ``_`` makes
        # it a malformed identifier, anything else is not a token.
        end = _DECIMALS.match(source, offset).end()
        if source[end].isalpha() or source[end] == "_":
            message = "identifier may not start with a digit"
        else:
            offset = end
            message = f"unexpected character {source[end]!r}"
    else:
        message = f"unexpected character {source[offset]!r}"
    line_start = source.rfind("\n", 0, offset) + 1
    line = source.count("\n", 0, line_start) + 1
    return LexError(message, SourcePosition(line, offset - line_start + 1, filename))


def tokenize(source: str, filename: Optional[str] = None) -> TokenStream:
    """Tokenize ``source`` into a stream ending with an EOF token."""
    from repro.obs import span
    from repro.testing.faults import fault_point

    with span("lex", file=filename) as sp:
        tokens = fault_point("lex", _scan(source, filename))
        sp.set(tokens=len(tokens))
        return tokens
