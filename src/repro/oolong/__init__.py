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

The pretty-printer (:mod:`repro.oolong.pretty`) loads on first use
(PEP 562): a check never prints source.
"""

import importlib

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
from repro.oolong.program import Scope
from repro.oolong.wellformed import check_well_formed

#: Each public name of the pretty-printer and the submodule defining it.
_EXPORTS = {
    "pretty_cmd": "pretty",
    "pretty_decl": "pretty",
    "pretty_expr": "pretty",
    "pretty_program": "pretty",
}

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


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)
