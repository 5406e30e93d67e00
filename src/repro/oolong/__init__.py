"""The oolong language: frontend, program representation, well-formedness.

oolong is the primitive, untyped object-oriented language of the paper
(Figures 0 and 1). A program is a set of declarations::

    Decl ::= 'group' Id ['in' IdList]
           | 'field' Id ['in' IdList] ('maps' Id 'into' IdList)*
           | 'proc'  Id '(' IdList ')' ['modifies' DesignatorList]
           | 'impl'  Id '(' IdList ')' '{' Cmd '}'

    Cmd  ::= 'assert' Expr | 'assume' Expr
           | 'var' Id 'in' Cmd 'end'
           | Expr ':=' Expr | Expr ':=' 'new' '(' ')'
           | Cmd ';' Cmd | Cmd '[]' Cmd
           | Id '(' ExprList ')'

plus the paper's ``if B then C else D end`` encoding and a ``skip`` command
as parsing sugar.
"""

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
)
from repro.oolong.lexer import tokenize
from repro.oolong.parser import Parser, parse_command, parse_expression, parse_program_text
from repro.oolong.pretty import pretty_cmd, pretty_decl, pretty_expr, pretty_program
from repro.oolong.program import Scope
from repro.oolong.wellformed import check_well_formed

__all__ = [
    "Assert",
    "Assign",
    "AssignNew",
    "Assume",
    "BinOp",
    "BoolConst",
    "Call",
    "Choice",
    "Cmd",
    "Decl",
    "Designator",
    "Expr",
    "FieldAccess",
    "FieldDecl",
    "GroupDecl",
    "Id",
    "ImplDecl",
    "IntConst",
    "MapsClause",
    "NullConst",
    "Parser",
    "ProcDecl",
    "Scope",
    "Seq",
    "Skip",
    "UnOp",
    "VarCmd",
    "check_well_formed",
    "parse_command",
    "parse_expression",
    "parse_program_text",
    "pretty_cmd",
    "pretty_decl",
    "pretty_expr",
    "pretty_program",
    "tokenize",
]
