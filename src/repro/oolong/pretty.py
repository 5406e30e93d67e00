"""Pretty printer for oolong ASTs.

The printer produces concrete syntax that re-parses to a structurally equal
tree (the round-trip property is exercised by unit and property tests).
Expressions are printed with minimal parentheses using the parser's
precedence table.
"""

from __future__ import annotations

from typing import List

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
    Expr,
    FieldAccess,
    FieldDecl,
    GroupDecl,
    Id,
    ImplDecl,
    IntConst,
    NullConst,
    ProcDecl,
    Seq,
    Skip,
    UnOp,
    VarCmd,
)

# Higher binds tighter. Comparisons are non-associative in the grammar, so
# nested comparisons always get parentheses.
_PRECEDENCE = {
    "||": 1,
    "&&": 2,
    "=": 3,
    "!=": 3,
    "<": 3,
    "<=": 3,
    ">": 3,
    ">=": 3,
    "+": 4,
    "-": 4,
    "*": 5,
}
_UNARY_PRECEDENCE = 6
_POSTFIX_PRECEDENCE = 7


def pretty_expr(expr: Expr, parent_precedence: int = 0) -> str:
    """Render ``expr``, parenthesizing where required by precedence."""
    if isinstance(expr, (NullConst, BoolConst, IntConst, Id)):
        return str(expr)
    if isinstance(expr, FieldAccess):
        return f"{pretty_expr(expr.obj, _POSTFIX_PRECEDENCE)}.{expr.attr}"
    if isinstance(expr, UnOp):
        rendered = f"{expr.op}{pretty_expr(expr.operand, _UNARY_PRECEDENCE)}"
        if parent_precedence > _UNARY_PRECEDENCE:
            return f"({rendered})"
        return rendered
    if isinstance(expr, BinOp):
        precedence = _PRECEDENCE[expr.op]
        left = pretty_expr(expr.left, precedence)
        # Right operand of a left-associative operator needs strictly higher
        # precedence; comparisons are non-associative so both sides do.
        right = pretty_expr(expr.right, precedence + 1)
        if precedence == 3:
            left = pretty_expr(expr.left, precedence + 1)
        rendered = f"{left} {expr.op} {right}"
        if parent_precedence >= precedence + 1 or (
            parent_precedence == precedence and precedence == 3
        ):
            return f"({rendered})"
        if parent_precedence > precedence:
            return f"({rendered})"
        return rendered
    raise TypeError(f"not an oolong expression: {expr!r}")


def pretty_cmd(cmd: Cmd, indent: int = 0) -> str:
    """Render a command as a single-level indented block."""
    pad = "  " * indent
    if isinstance(cmd, Assert):
        return f"{pad}assert {pretty_expr(cmd.condition)}"
    if isinstance(cmd, Assume):
        return f"{pad}assume {pretty_expr(cmd.condition)}"
    if isinstance(cmd, Skip):
        return f"{pad}skip"
    if isinstance(cmd, VarCmd):
        body = pretty_cmd(cmd.body, indent + 1)
        return f"{pad}var {cmd.name} in\n{body}\n{pad}end"
    if isinstance(cmd, Assign):
        return f"{pad}{pretty_expr(cmd.target)} := {pretty_expr(cmd.rhs)}"
    if isinstance(cmd, AssignNew):
        return f"{pad}{pretty_expr(cmd.target)} := new()"
    if isinstance(cmd, Seq):
        # A leading sequence is spliced in when parsed; parenthesize a
        # nested Seq at any later position so the round trip keeps it.
        parts = [pretty_cmd(cmd.cmds[0], indent)]
        for part in cmd.cmds[1:]:
            if isinstance(part, Seq):
                inner = pretty_cmd(part, indent + 1)
                parts.append(f"{pad}(\n{inner}\n{pad})")
            else:
                parts.append(pretty_cmd(part, indent))
        return " ;\n".join(parts)
    if isinstance(cmd, Choice):
        arms = (pretty_cmd(part, indent + 1) for part in cmd.cmds)
        return f"{pad}(\n" + f"\n{pad}[]\n".join(arms) + f"\n{pad})"
    if isinstance(cmd, Call):
        args = ", ".join(pretty_expr(a) for a in cmd.args)
        return f"{pad}{cmd.proc}({args})"
    raise TypeError(f"not an oolong command: {cmd!r}")


def pretty_decl(decl: Decl) -> str:
    """Render one declaration."""
    if isinstance(decl, GroupDecl):
        text = f"group {decl.name}"
        if decl.in_groups:
            text += " in " + ", ".join(decl.in_groups)
        return text
    if isinstance(decl, FieldDecl):
        text = f"field {decl.name}"
        if decl.in_groups:
            text += " in " + ", ".join(decl.in_groups)
        for clause in decl.maps:
            text += f" maps {clause.mapped} into " + ", ".join(clause.into)
        return text
    if isinstance(decl, ProcDecl):
        text = f"proc {decl.name}({', '.join(decl.params)})"
        if decl.modifies:
            text += " modifies " + ", ".join(str(d) for d in decl.modifies)
        for condition in decl.requires:
            text += f" requires {pretty_expr(condition)}"
        for condition in decl.ensures:
            text += f" ensures {pretty_expr(condition)}"
        return text
    if isinstance(decl, ImplDecl):
        body = pretty_cmd(decl.body, 1)
        return f"impl {decl.name}({', '.join(decl.params)}) {{\n{body}\n}}"
    raise TypeError(f"not an oolong declaration: {decl!r}")


def pretty_program(decls) -> str:
    """Render a sequence of declarations as a full program text."""
    lines: List[str] = [pretty_decl(decl) for decl in decls]
    return "\n".join(lines) + "\n"
