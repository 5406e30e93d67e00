"""Unit tests for the oolong lexer."""

import pytest

from repro.errors import LexError
from repro.oolong.lexer import tokenize
from repro.oolong.tokens import TokenKind


def kinds(source):
    return [t.kind for t in tokenize(source)]


def values(source):
    return [t.value for t in tokenize(source)[:-1]]


class TestBasicTokens:
    def test_empty_source_yields_eof(self):
        assert kinds("") == [TokenKind.EOF]

    def test_whitespace_only_yields_eof(self):
        assert kinds("  \t\n  \r\n") == [TokenKind.EOF]

    def test_identifier(self):
        tokens = tokenize("contents")
        assert tokens[0].kind is TokenKind.IDENT
        assert tokens[0].value == "contents"

    def test_identifier_with_underscore_and_digits(self):
        assert values("a_b2 _x") == ["a_b2", "_x"]

    def test_integer(self):
        tokens = tokenize("42")
        assert tokens[0].kind is TokenKind.INT
        assert tokens[0].value == "42"

    def test_integer_then_identifier_requires_separator(self):
        with pytest.raises(LexError):
            tokenize("12abc")

    def test_keywords_are_not_identifiers(self):
        assert kinds("group field proc impl")[:-1] == [
            TokenKind.GROUP,
            TokenKind.FIELD,
            TokenKind.PROC,
            TokenKind.IMPL,
        ]

    def test_all_command_keywords(self):
        source = "assert assume var end new if then else skip in maps into modifies"
        expected = [
            TokenKind.ASSERT,
            TokenKind.ASSUME,
            TokenKind.VAR,
            TokenKind.END,
            TokenKind.NEW,
            TokenKind.IF,
            TokenKind.THEN,
            TokenKind.ELSE,
            TokenKind.SKIP,
            TokenKind.IN,
            TokenKind.MAPS,
            TokenKind.INTO,
            TokenKind.MODIFIES,
        ]
        assert kinds(source)[:-1] == expected

    def test_constants(self):
        assert kinds("null true false")[:-1] == [
            TokenKind.NULL,
            TokenKind.TRUE,
            TokenKind.FALSE,
        ]


class TestOperators:
    def test_two_char_operators(self):
        assert kinds(":= [] != <= >= && ||")[:-1] == [
            TokenKind.ASSIGN,
            TokenKind.BOX,
            TokenKind.NE,
            TokenKind.LE,
            TokenKind.GE,
            TokenKind.AND,
            TokenKind.OR,
        ]

    def test_one_char_operators(self):
        assert kinds("( ) { } , ; . = < > + - * !")[:-1] == [
            TokenKind.LPAREN,
            TokenKind.RPAREN,
            TokenKind.LBRACE,
            TokenKind.RBRACE,
            TokenKind.COMMA,
            TokenKind.SEMI,
            TokenKind.DOT,
            TokenKind.EQ,
            TokenKind.LT,
            TokenKind.GT,
            TokenKind.PLUS,
            TokenKind.MINUS,
            TokenKind.STAR,
            TokenKind.NOT,
        ]

    def test_assign_vs_colon_rejected(self):
        with pytest.raises(LexError):
            tokenize(":")

    def test_maximal_munch_le_vs_lt(self):
        assert kinds("<=<")[:-1] == [TokenKind.LE, TokenKind.LT]

    def test_bang_equals_vs_bang(self):
        assert kinds("!!=")[:-1] == [TokenKind.NOT, TokenKind.NE]


class TestCommentsAndPositions:
    def test_line_comment_skipped(self):
        assert kinds("x // comment to end\ny")[:-1] == [
            TokenKind.IDENT,
            TokenKind.IDENT,
        ]

    def test_block_comment_skipped(self):
        assert values("a /* anything \n at all */ b") == ["a", "b"]

    def test_unterminated_block_comment(self):
        with pytest.raises(LexError):
            tokenize("a /* never closed")

    def test_positions_track_lines_and_columns(self):
        tokens = tokenize("a\n  bb")
        assert (tokens[0].position.line, tokens[0].position.column) == (1, 1)
        assert (tokens[1].position.line, tokens[1].position.column) == (2, 3)

    def test_unexpected_character(self):
        with pytest.raises(LexError):
            tokenize("a @ b")


class TestNonAsciiCharacters:
    def test_non_ascii_letters_make_identifiers(self):
        assert values("é x² aⅧ") == ["é", "x²", "aⅧ"]

    def test_any_decimal_digit_makes_a_numeral(self):
        tokens = tokenize("٣ 1٣")
        assert [(t.kind, t.value) for t in tokens[:-1]] == [
            (TokenKind.INT, "٣"),
            (TokenKind.INT, "1٣"),
        ]
        assert [int(t.value) for t in tokens[:-1]] == [3, 13]

    @pytest.mark.parametrize(
        "source, column",
        [("²", 1), ("1²", 2), ("a := ²", 6), ("²x", 1), ("Ⅷ", 1), ("12Ⅷ", 3)],
    )
    def test_non_decimal_numerics_are_unexpected(self, source, column):
        with pytest.raises(LexError) as excinfo:
            tokenize(source)
        char = "²" if "²" in source else "Ⅷ"
        assert excinfo.value.message == f"unexpected character {char!r}"
        assert excinfo.value.position.column == column

    def test_numeral_then_letter_is_a_malformed_identifier(self):
        with pytest.raises(LexError) as excinfo:
            tokenize("x := 7é")
        assert excinfo.value.message == "identifier may not start with a digit"
        assert excinfo.value.position.column == 6


class TestTokenStream:
    def test_indexing_slicing_and_iteration_agree(self):
        tokens = tokenize("group g\r\n\tfield f in g", "f.oolong")
        assert len(tokens) == 7
        assert list(tokens) == tokens[:] == [tokens[i] for i in range(7)]
        assert tokens[-1].kind is TokenKind.EOF
        assert [str(t.position) for t in tokens[2:4]] == [
            "f.oolong:2:2",
            "f.oolong:2:8",
        ]


class TestRealisticSources:
    def test_stack_module_header(self):
        source = "proc push(st, o) modifies st.contents"
        expected = [
            TokenKind.PROC,
            TokenKind.IDENT,
            TokenKind.LPAREN,
            TokenKind.IDENT,
            TokenKind.COMMA,
            TokenKind.IDENT,
            TokenKind.RPAREN,
            TokenKind.MODIFIES,
            TokenKind.IDENT,
            TokenKind.DOT,
            TokenKind.IDENT,
        ]
        assert kinds(source)[:-1] == expected

    def test_field_maps_declaration(self):
        source = "field vec maps elems into contents"
        assert kinds(source)[:-1] == [
            TokenKind.FIELD,
            TokenKind.IDENT,
            TokenKind.MAPS,
            TokenKind.IDENT,
            TokenKind.INTO,
            TokenKind.IDENT,
        ]
