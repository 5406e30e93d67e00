"""A recursive-descent parser for oolong.

Grammar (Figures 0 and 1 of the paper, plus ``if``/``skip`` sugar)::

    Program   ::= Decl*
    Decl      ::= 'group' Id ['in' IdList]
                | 'field' Id ['in' IdList] ('maps' Id 'into' IdList)*
                | 'proc' Id '(' [IdList] ')' ['modifies' DesigList]
                | 'impl' Id '(' [IdList] ')' '{' Cmd '}'
    Desig     ::= Id ('.' Id)+

    Cmd       ::= CmdSeq ('[]' CmdSeq)*
    CmdSeq    ::= CmdAtom (';' CmdAtom)*
    CmdAtom   ::= 'assert' Expr | 'assume' Expr
                | 'var' Id 'in' Cmd 'end'
                | 'skip'
                | 'if' Expr 'then' Cmd 'else' Cmd 'end'
                | '(' Cmd ')'
                | Id '(' [ExprList] ')'
                | Expr ':=' ('new' '(' ')' | Expr)

    Expr      ::= Or
    Or        ::= And ('||' And)*
    And       ::= Cmp ('&&' Cmp)*
    Cmp       ::= Add (('='|'!='|'<'|'<='|'>'|'>=') Add)?
    Add       ::= Mul (('+'|'-') Mul)*
    Mul       ::= Unary ('*' Unary)*
    Unary     ::= ('!'|'-') Unary | Postfix
    Postfix   ::= Primary ('.' Id)*
    Primary   ::= 'null' | 'true' | 'false' | Int | Id | '(' Expr ')'

The five binary levels ``Or`` … ``Mul`` are parsed by one
precedence-climbing loop (:meth:`Parser._parse_binary`) that builds the
same left-associative trees; it applies a comparison only to an operand
no operator at or below comparison power has built yet, which is the
``Cmp ::= Add (op Add)?`` rule.

The ``if`` form is desugared exactly as the paper prescribes::

    if B then C else D end  =  (assume !B ; D) [] (assume B ; C)

The parser walks a :class:`~repro.oolong.lexer.TokenStream` by index,
reading its parallel ``kinds`` and ``values`` lists; it never builds a
token object, and it builds a source position only for the AST nodes
and errors that store one.

Error handling comes in two modes. The default is fail-fast: the first
grammar violation raises :class:`repro.errors.ParseError`. With
``recover=True`` the parser switches to panic-mode recovery: each error
is recorded, the token stream is synchronized at the next declaration or
command boundary, and parsing continues — so one run surfaces *every*
syntax error in a file. :func:`parse_program_recovering` packages the
recovered declarations together with the collected errors (and converts
them to ``OL001``/``OL002`` diagnostics on request).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.errors import LexError, ParseError, SourcePosition
from repro.oolong.ast import (
    Assert,
    Assign,
    AssignNew,
    Assume,
    BinOp,
    BoolConst,
    Call,
    Choice,
    Cmd,
    Decl,
    Designator,
    Expr,
    FieldAccess,
    FieldDecl,
    GroupDecl,
    Id,
    ImplDecl,
    IntConst,
    MapsClause,
    NullConst,
    ProcDecl,
    Seq,
    Skip,
    UnOp,
    VarCmd,
    choice,
    sequence,
)
from repro.oolong.lexer import TokenStream, tokenize
from repro.oolong.tokens import TokenKind
from repro.record import Record
from repro.testing.faults import fault_point

#: Binary operators by token kind: the operator and its binding power.
#: Higher binds tighter; every level is left-associative except the
#: comparisons, which do not associate at all.
_BINARY = {
    TokenKind.OR: ("||", 1),
    TokenKind.AND: ("&&", 2),
    TokenKind.EQ: ("=", 3),
    TokenKind.NE: ("!=", 3),
    TokenKind.LT: ("<", 3),
    TokenKind.LE: ("<=", 3),
    TokenKind.GT: (">", 3),
    TokenKind.GE: (">=", 3),
    TokenKind.PLUS: ("+", 4),
    TokenKind.MINUS: ("-", 4),
    TokenKind.STAR: ("*", 5),
}
_COMPARISON = 3


#: Keywords that can only start a declaration — panic-mode sync points.
_DECL_STARTS = frozenset(
    (TokenKind.GROUP, TokenKind.FIELD, TokenKind.PROC, TokenKind.IMPL)
)

#: Tokens that end the current command context during command-level sync.
_CMD_BOUNDARIES = frozenset(
    (
        TokenKind.SEMI,
        TokenKind.RBRACE,
        TokenKind.END,
        TokenKind.BOX,
        TokenKind.EOF,
    )
)

#: Recovery stops recording past this many errors per source (cascade cap).
MAX_RECOVERED_ERRORS = 25


class Parser:
    """Parses a pre-tokenized oolong source.

    ``recover=True`` enables panic-mode error recovery: grammar
    violations are appended to :attr:`errors` and parsing resynchronizes
    instead of raising. Fail-fast (the default) raises on first error.
    """

    def __init__(self, tokens: TokenStream, *, recover: bool = False):
        self._kinds = tokens.kinds
        self._values = tokens.values
        #: The source position of a token, by index.
        self._at = tokens.position
        self._index = 0
        self._recover = recover
        #: Errors collected in recovery mode, in source order of detection.
        self.errors: List[ParseError] = []

    # -- token plumbing ----------------------------------------------------
    # No production steps past a token it has not checked to be other
    # than the final EOF, so the index never runs off the stream.

    def _step(self) -> SourcePosition:
        """Step past the current (checked, non-EOF) token; its position."""
        index = self._index
        self._index = index + 1
        return self._at(index)

    def _check(self, kind: TokenKind) -> bool:
        return self._kinds[self._index] is kind

    def _match(self, kind: TokenKind) -> bool:
        if self._kinds[self._index] is kind:
            self._index += 1
            return True
        return False

    def _unexpected(self, expected: str) -> ParseError:
        found = self._kinds[self._index].value
        return ParseError(f"{expected}, found {found!r}", self._at(self._index))

    def _expect(self, kind: TokenKind, context: str) -> None:
        if self._kinds[self._index] is not kind:
            raise self._unexpected(f"expected {kind.value!r} {context}")
        self._index += 1

    def _ident(self, context: str) -> str:
        index = self._index
        if self._kinds[index] is not TokenKind.IDENT:
            raise self._unexpected(f"expected {TokenKind.IDENT.value!r} {context}")
        self._index = index + 1
        return self._values[index]

    def _ident_list(self, context: str) -> Tuple[str, ...]:
        names = [self._ident(context)]
        while self._match(TokenKind.COMMA):
            names.append(self._ident(context))
        return tuple(names)

    # -- panic-mode recovery -----------------------------------------------

    def _record(self, error: ParseError) -> None:
        if len(self.errors) < MAX_RECOVERED_ERRORS:
            self.errors.append(error)

    def _synchronize_decl(self, start_index: int) -> None:
        """Skip tokens until the next declaration keyword at brace depth 0.

        Guarantees progress: if the failed production consumed nothing,
        one token is discarded before scanning, so the driver loop always
        terminates.
        """
        kinds = self._kinds
        if self._index == start_index and kinds[self._index] is not TokenKind.EOF:
            self._index += 1
        depth = 0
        while kinds[self._index] is not TokenKind.EOF:
            kind = kinds[self._index]
            if kind is TokenKind.LBRACE:
                depth += 1
            elif kind is TokenKind.RBRACE:
                depth = max(depth - 1, 0)
            elif kind in _DECL_STARTS and depth == 0:
                return
            self._index += 1

    def _synchronize_cmd(self) -> None:
        """Skip tokens up to (not including) the next command boundary."""
        kinds = self._kinds
        while True:
            kind = kinds[self._index]
            if kind in _CMD_BOUNDARIES or kind in _DECL_STARTS:
                return
            self._index += 1

    # -- declarations ------------------------------------------------------

    def parse_program(self) -> Tuple[Decl, ...]:
        """Parse a whole program: a sequence of declarations up to EOF.

        In recovery mode a failed declaration is recorded and skipped up
        to the next declaration boundary; all successfully parsed
        declarations (before, between, and after errors) are returned.
        """
        decls: List[Decl] = []
        while not self._check(TokenKind.EOF):
            start_index = self._index
            try:
                decls.append(self.parse_decl())
            except ParseError as error:
                if not self._recover:
                    raise
                self._record(error)
                self._synchronize_decl(start_index)
        return tuple(decls)

    def parse_decl(self) -> Decl:
        kind = self._kinds[self._index]
        if kind is TokenKind.GROUP:
            return self._parse_group()
        if kind is TokenKind.FIELD:
            return self._parse_field()
        if kind is TokenKind.PROC:
            return self._parse_proc()
        if kind is TokenKind.IMPL:
            return self._parse_impl()
        raise self._unexpected("expected a declaration")

    def _parse_group(self) -> GroupDecl:
        position = self._step()
        name = self._ident("after 'group'")
        in_groups: Tuple[str, ...] = ()
        if self._match(TokenKind.IN):
            in_groups = self._ident_list("in 'in' clause")
        return GroupDecl(name, in_groups, position)

    def _parse_field(self) -> FieldDecl:
        position = self._step()
        name = self._ident("after 'field'")
        in_groups: Tuple[str, ...] = ()
        if self._match(TokenKind.IN):
            in_groups = self._ident_list("in 'in' clause")
        maps: List[MapsClause] = []
        while self._match(TokenKind.MAPS):
            mapped = self._ident("after 'maps'")
            self._expect(TokenKind.INTO, "in maps clause")
            into = self._ident_list("in 'into' clause")
            maps.append(MapsClause(mapped, into))
        return FieldDecl(name, in_groups, tuple(maps), position)

    def _parse_params(self) -> Tuple[str, ...]:
        self._expect(TokenKind.LPAREN, "before parameter list")
        params: Tuple[str, ...] = ()
        if not self._check(TokenKind.RPAREN):
            params = self._ident_list("in parameter list")
        self._expect(TokenKind.RPAREN, "after parameter list")
        return params

    def _parse_proc(self) -> ProcDecl:
        position = self._step()
        name = self._ident("after 'proc'")
        params = self._parse_params()
        modifies: List[Designator] = []
        requires: List[Expr] = []
        ensures: List[Expr] = []
        while True:
            if self._match(TokenKind.MODIFIES):
                modifies.append(self._parse_designator())
                while self._match(TokenKind.COMMA):
                    modifies.append(self._parse_designator())
            elif self._match(TokenKind.REQUIRES):
                requires.append(self.parse_expr())
            elif self._match(TokenKind.ENSURES):
                ensures.append(self.parse_expr())
            else:
                break
        return ProcDecl(
            name, params, tuple(modifies), tuple(requires), tuple(ensures), position
        )

    def _parse_designator(self) -> Designator:
        root = self._ident("at start of modifies designator")
        selectors: List[str] = []
        self._expect(TokenKind.DOT, "in modifies designator")
        selectors.append(self._ident("after '.'"))
        while self._match(TokenKind.DOT):
            selectors.append(self._ident("after '.'"))
        return Designator(root, tuple(selectors[:-1]), selectors[-1])

    def _parse_impl(self) -> ImplDecl:
        position = self._step()
        name = self._ident("after 'impl'")
        params = self._parse_params()
        self._expect(TokenKind.LBRACE, "before implementation body")
        body = self.parse_cmd()
        self._expect(TokenKind.RBRACE, "after implementation body")
        return ImplDecl(name, params, body, position)

    # -- commands ----------------------------------------------------------

    def parse_cmd(self) -> Cmd:
        """Parse a command; ``[]`` binds loosest, then ``;``."""
        cmds = [self._parse_seq()]
        while self._match(TokenKind.BOX):
            cmds.append(self._parse_seq())
        return choice(cmds)

    def _parse_seq(self) -> Cmd:
        cmds = [self._parse_atom_recovering()]
        while self._match(TokenKind.SEMI):
            cmds.append(self._parse_atom_recovering())
        return sequence(cmds)

    def _parse_atom_recovering(self) -> Cmd:
        """One atomic command; in recovery mode a failed atom becomes a
        ``skip`` hole and the stream synchronizes at the next ``;`` (or
        the end of the enclosing command context), so every malformed
        statement in a body yields its own error."""
        if not self._recover:
            return self._parse_atom_cmd()
        try:
            return self._parse_atom_cmd()
        except ParseError as error:
            self._record(error)
            self._synchronize_cmd()
            return Skip()

    def _parse_atom_cmd(self) -> Cmd:
        index = self._index
        kind = self._kinds[index]
        if kind is TokenKind.ASSERT:
            position = self._step()
            return Assert(self.parse_expr(), position)
        if kind is TokenKind.ASSUME:
            position = self._step()
            return Assume(self.parse_expr(), position)
        if kind is TokenKind.VAR:
            position = self._step()
            name = self._ident("after 'var'")
            self._expect(TokenKind.IN, "after local variable name")
            body = self.parse_cmd()
            self._expect(TokenKind.END, "after 'var' body")
            return VarCmd(name, body, position)
        if kind is TokenKind.SKIP:
            self._index += 1
            return Skip()
        if kind is TokenKind.IF:
            return self._parse_if()
        if kind is TokenKind.LPAREN:
            self._index += 1
            cmd = self.parse_cmd()
            self._expect(TokenKind.RPAREN, "after parenthesized command")
            return cmd
        if kind is TokenKind.IDENT and self._kinds[index + 1] is TokenKind.LPAREN:
            return self._parse_call()
        return self._parse_assignment()

    def _parse_if(self) -> Cmd:
        """Desugar ``if B then C else D end`` per the paper's encoding."""
        position = self._step()
        condition = self.parse_expr()
        self._expect(TokenKind.THEN, "in if command")
        then_cmd = self.parse_cmd()
        self._expect(TokenKind.ELSE, "in if command")
        else_cmd = self.parse_cmd()
        self._expect(TokenKind.END, "after if command")
        else_arm = Seq((Assume(UnOp("!", condition), position), else_cmd))
        then_arm = Seq((Assume(condition, position), then_cmd))
        return Choice((else_arm, then_arm))

    def _parse_call(self) -> Cmd:
        position = self._at(self._index)
        proc = self._ident("at call")
        self._expect(TokenKind.LPAREN, "after procedure name")
        args: List[Expr] = []
        if not self._check(TokenKind.RPAREN):
            args.append(self.parse_expr())
            while self._match(TokenKind.COMMA):
                args.append(self.parse_expr())
        self._expect(TokenKind.RPAREN, "after call arguments")
        return Call(proc, tuple(args), position)

    def _parse_assignment(self) -> Cmd:
        start = self._index
        target = self.parse_expr()
        if not isinstance(target, (Id, FieldAccess)):
            raise ParseError(
                "assignment target must be a variable or a field designator",
                self._at(start),
            )
        self._expect(TokenKind.ASSIGN, "in assignment")
        if self._match(TokenKind.NEW):
            self._expect(TokenKind.LPAREN, "after 'new'")
            self._expect(TokenKind.RPAREN, "after 'new('")
            return AssignNew(target, self._at(start))
        rhs = self.parse_expr()
        return Assign(target, rhs, self._at(start))

    # -- expressions ---------------------------------------------------------

    def parse_expr(self) -> Expr:
        return self._parse_binary(1)

    def _parse_binary(self, min_power: int) -> Expr:
        """Precedence climbing over ``||``, ``&&``, comparisons, ``+ -``
        and ``*``: take operators of at least ``min_power``, each with a
        right operand of strictly higher power (left associativity).

        ``Cmp ::= Add (op Add)?`` allows one comparison per operand: a
        comparison applies only to an expression that no operator at or
        below comparison power has built yet in this loop, so ``a < b <
        c`` stops before the second ``<`` while ``a < b && c < d`` reads
        as two comparisons.
        """
        kinds = self._kinds
        expr = self._parse_unary()
        compared = False
        while True:
            entry = _BINARY.get(kinds[self._index])
            if entry is None:
                return expr
            op, power = entry
            if power < min_power or (compared and power == _COMPARISON):
                return expr
            self._index += 1
            expr = BinOp(op, expr, self._parse_binary(power + 1))
            compared = compared or power <= _COMPARISON

    def _parse_unary(self) -> Expr:
        """``Unary ::= ('!'|'-') Unary | Primary ('.' Id)*``."""
        kind = self._kinds[self._index]
        if kind is TokenKind.NOT:
            self._index += 1
            return UnOp("!", self._parse_unary())
        if kind is TokenKind.MINUS:
            self._index += 1
            return UnOp("-", self._parse_unary())
        expr = self._parse_primary()
        while self._kinds[self._index] is TokenKind.DOT:
            dot = self._index
            self._index = dot + 1
            attr = self._ident("after '.'")
            expr = FieldAccess(expr, attr, self._at(dot))
        return expr

    def _parse_primary(self) -> Expr:
        index = self._index
        kind = self._kinds[index]
        if kind is TokenKind.LPAREN:
            self._index = index + 1
            expr = self.parse_expr()
            self._expect(TokenKind.RPAREN, "after parenthesized expression")
            return expr
        if kind is TokenKind.IDENT:
            expr = Id(self._values[index], self._at(index))
        elif kind is TokenKind.INT:
            expr = IntConst(int(self._values[index]))
        elif kind is TokenKind.NULL:
            expr = NullConst()
        elif kind is TokenKind.TRUE or kind is TokenKind.FALSE:
            expr = BoolConst(kind is TokenKind.TRUE)
        else:
            raise self._unexpected("expected an expression")
        self._index = index + 1
        return expr

    def expect_eof(self) -> None:
        kind = self._kinds[self._index]
        if kind is not TokenKind.EOF:
            raise ParseError(
                f"unexpected trailing input: {kind.value!r}", self._at(self._index)
            )


def parse_program_text(
    source: str,
    filename=None,
    *,
    recover: bool = False,
    errors: Optional[List[ParseError]] = None,
) -> Tuple[Decl, ...]:
    """Parse an oolong program source text into a declaration tuple.

    ``filename``, when given, is recorded in every source position so
    multi-file diagnostics can name the file they point into.

    Fail-fast by default: the first grammar violation raises. With
    ``recover=True`` every syntax error is appended to ``errors`` (a
    caller-supplied list) and the surviving declarations are returned.
    """
    tokens = tokenize(source, filename)
    from repro.obs import span

    with span("parse", file=filename) as sp:
        parser = Parser(tokens, recover=recover)
        decls = parser.parse_program()
        parser.expect_eof()
        if errors is not None:
            errors.extend(parser.errors)
        sp.set(decls=len(decls), errors=len(parser.errors))
        return fault_point("parse", decls)


class RecoveredParse(Record, frozen=True):
    """The outcome of an error-recovering parse of one source text."""

    decls: Tuple[Decl, ...]
    errors: Tuple[ParseError, ...]

    @property
    def ok(self) -> bool:
        return not self.errors

    def diagnostics(self) -> list:
        """The collected errors as ``OL001``/``OL002`` diagnostics."""
        from repro.analysis.diagnostics import diagnostic_from_error

        return [
            diagnostic_from_error(
                error, code="OL001" if isinstance(error, LexError) else "OL002"
            )
            for error in self.errors
        ]


def parse_program_recovering(source: str, filename=None) -> RecoveredParse:
    """Parse ``source`` with panic-mode recovery; never raises on bad input.

    A lexical error aborts the file (the token stream is unusable) but is
    still reported through the same channel, as a single ``OL001``.
    """
    try:
        tokens = tokenize(source, filename)
    except LexError as error:
        return RecoveredParse((), (error,))
    from repro.obs import span

    with span("parse", file=filename) as sp:
        parser = Parser(tokens, recover=True)
        decls = parser.parse_program()
        sp.set(decls=len(decls), errors=len(parser.errors))
        decls = fault_point("parse", decls)
        return RecoveredParse(tuple(decls), tuple(parser.errors))


def parse_command(source: str) -> Cmd:
    """Parse a single command (used by tests and the builder DSL)."""
    parser = Parser(tokenize(source))
    cmd = parser.parse_cmd()
    parser.expect_eof()
    return cmd


def parse_expression(source: str) -> Expr:
    """Parse a single expression."""
    parser = Parser(tokenize(source))
    expr = parser.parse_expr()
    parser.expect_eof()
    return expr
